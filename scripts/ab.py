#!/usr/bin/env python3
"""A/B a base revision against the working tree on this host: the repo's one speed comparison.

    python3 scripts/ab.py <base-rev> <workload> [pairs] [seconds] [--seed N] [--work DIR]
    python3 scripts/ab.py <base-rev> bench-baseline [pairs] [--work DIR]

Builds `<base-rev>` (any git revision) from a `git archive` export into its
own directory with its own target directory, and the working tree as it
stands. Both builds get the working tree's `.cargo/config.toml` and this
process's environment, so they use the same compiler flags. Then it runs
`pairs` (default 10) alternating pairs, base first in even pairs and the
tree first in odd ones, so drift over the session hits both sides alike.

With a perfbench `<workload>`, each run is `perfbench --workload <workload>
--seconds <seconds> --trace 0` (default 30 s), and pair `i` runs seed
`N + i` on both sides (default N = 1000). For each end-to-end metric of
BENCHMARK.json it prints each side's q1, median and q3 and the number of
pairs the tree won. For every run it also prints the process's CPU time
over its wall time, from `getrusage(RUSAGE_CHILDREN)`: a run whose threads
overlap reads above 1, one whose threads take turns on one core reads
about 1.

With `bench-baseline`, each run is one full `bench-baseline`, started in
its side's own tree so that `lint/workspace_scan` scans that tree. The
documents are judged by `bench_diff.verdict`: a kernel, stage or
experiment row fails when the tree is slower in at least 9 in 10 pairs and
its median exceeds the base's by more than the larger of the two sides'
interquartile ranges.
The exit status is 1 when any row fails. `scripts/verify.sh` runs this
form against `HEAD`: a dirty tree is gated against its parent, and a clean
one is an A/A check.

The base export and its builds are kept in `--work` (default
`target/ab/<sha>`), so a second A/B against the same revision reuses them.
Run documents land in `--work`'s `runs/`. `git archive` rather than a
worktree keeps the repository's own git metadata untouched.

An unknown `-`-prefixed argument exits 2 with the usage text.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import time

from bench_diff import quartiles, verdict

# The docstring's summary line and usage lines.
USAGE = "\n\n".join(__doc__.strip().split("\n\n")[:2])
# The `<workload>` that selects the bench-baseline gate.
GATE = "bench-baseline"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(msg, code=2):
    print(f"ab.py: {msg}\n\n{USAGE}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    pos, opts = [], {"--seed": "1000", "--work": None}
    it = iter(argv)
    for a in it:
        if a in opts:
            opts[a] = next(it, None)
            if opts[a] is None:
                die(f"{a} needs a value")
        elif a.startswith("-"):
            die(f"unknown flag {a}")
        else:
            pos.append(a)
    if not 2 <= len(pos) <= (3 if pos[1:2] == [GATE] else 4):
        die("expected <base-rev> <workload> [pairs] [seconds]"
            f" or <base-rev> {GATE} [pairs]")
    try:
        pairs = int(pos[2]) if len(pos) > 2 else 10
        seconds = float(pos[3]) if len(pos) > 3 else 30.0
        seed = int(opts["--seed"])
    except ValueError as e:
        die(str(e))
    if pairs < 1 or seconds <= 0:
        die("pairs and seconds must be positive")
    return pos[0], pos[1], pairs, seconds, seed, opts["--work"]


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def build(src):
    """Builds perfbench in `src` and returns the binary's path."""
    manifest = os.path.join(src, "perfbench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        check=True,
    )
    return os.path.join(src, "perfbench", "target", "release", "perfbench")


def export(sha, work):
    """Exports `sha` into `work/src` once, with the tree's cargo config."""
    src = os.path.join(work, "src")
    if not os.path.isdir(src):
        os.makedirs(src + ".tmp", exist_ok=True)
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", sha], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", src + ".tmp"], input=archive, check=True)
        os.replace(src + ".tmp", src)
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if os.path.exists(config):
        os.makedirs(os.path.join(src, ".cargo"), exist_ok=True)
        shutil.copyfile(config, os.path.join(src, ".cargo", "config.toml"))
    return src


def run(binary, workload, seed, seconds, out):
    """One perfbench run: its metrics and its CPU time over wall time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--out", out],
        check=True, stdout=subprocess.DEVNULL,
    )
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    with open(os.path.join(out, f"{workload}-seed{seed}-trace0.json")) as f:
        doc = json.load(f)
    if doc.get("correct") is not True:
        die(f"{binary} seed {seed}: not correct: {doc.get('errors')}", 1)
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    return metrics, cpu / wall


def build_gate(src):
    """Builds bench-baseline in `src` and returns the binary's path."""
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(src, "Cargo.toml"),
         "-p", "freerider-bench", "--bin", GATE],
        check=True,
    )
    return os.path.join(src, "target", "release", GATE)


def gate(sha, work, pairs):
    """Alternating bench-baseline pairs judged by `verdict`: 1 if a row fails."""
    roots = {"base": export(sha, work), "tree": ROOT}
    # Both binaries run from paths of one length: the exec path sits on
    # the initial stack, and a longer one shifts every stack address of
    # the run, which moved small stage rows by 2% between two copies of
    # one binary.
    os.makedirs(os.path.join(work, "bin"), exist_ok=True)
    binaries = {side: os.path.join(work, "bin", side) for side in roots}
    for side, root in roots.items():
        shutil.copy(build_gate(root), binaries[side])
    runs = {"base": [], "tree": []}
    out = os.path.join(work, "runs", GATE)
    os.makedirs(out, exist_ok=True)
    for i in range(pairs):
        for side in ["base", "tree"] if i % 2 == 0 else ["tree", "base"]:
            path = os.path.join(out, f"{side}-{i}.json")
            t0 = time.monotonic()
            subprocess.run([binaries[side], "--out", path], cwd=roots[side],
                           check=True, stdout=subprocess.DEVNULL)
            print(f"pair {i + 1:2} {side}: {time.monotonic() - t0:.1f} s wall")
            with open(path) as f:
                runs[side].append(json.load(f))
    failing, lines = verdict(runs["base"], runs["tree"])
    print(f"\n{GATE}: {pairs} alternating pairs, base {sha[:12]} vs tree")
    print("\n".join(lines))
    return 1 if failing else 0


def main(argv):
    base_rev, workload, pairs, seconds, seed0, work = parse(argv)
    sha = git("rev-parse", "--verify", f"{base_rev}^{{commit}}")
    work = work or os.path.join(ROOT, "target", "ab", sha[:12])
    print(f"base {base_rev} = {sha[:12]}, built in {work}", file=sys.stderr)
    if workload == GATE:
        return gate(sha, work, pairs)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        die(f"workload must be one of {names + [GATE]}, not {workload!r}")
    sides = {"base": build(export(sha, work)), "tree": build(ROOT)}
    runs = {"base": [], "tree": []}
    out = os.path.join(work, "runs")
    for i in range(pairs):
        order = ["base", "tree"] if i % 2 == 0 else ["tree", "base"]
        for side in order:
            metrics, ratio = run(sides[side], workload, seed0 + i, seconds,
                                 os.path.join(out, side))
            runs[side].append(metrics)
            print(f"pair {i + 1:2} {side}: seed {seed0 + i}, "
                  f"ops_per_s {metrics.get('ops_per_s', float('nan')):.3f}, "
                  f"CPU/wall {ratio:.2f}")
    print(f"\n{workload}: {pairs} alternating {seconds:g} s pairs, "
          f"base {sha[:12]} vs tree")
    print(f"{'metric':<14}{'base q1 / median / q3':>30}{'tree q1 / median / q3':>30}"
          f"{'ratio':>8}{'won':>7}")
    for m in bench["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        a = [r[name] for r in runs["base"]]
        b = [r[name] for r in runs["tree"]]
        won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        fmt = lambda q: " / ".join(f"{v:.3f}" for v in q)
        print(f"{name:<14}{fmt(qa):>30}{fmt(qb):>30}{ratio:>8.3f}{won:>4}/{pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
