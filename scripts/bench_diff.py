#!/usr/bin/env python3
"""Diff a fresh bench-baseline JSON against the committed baseline.

    python3 scripts/bench_diff.py <old.json> <new.json> [--warn-only]
    python3 scripts/bench_diff.py --assert-lanes <new.json>
    python3 scripts/bench_diff.py --selftest

`--assert-lanes` audits the lane-width sweep evidence instead of diffing:
the document must carry a `lanes` section, every advertised width
(1 = the unbatched kernel) must have its measured `lanes_N` kernel row,
and each compiled-in `selected` default must be the measured winner of
its sweep (within a noise slack, default 10% -- override with
FREERIDER_LANE_SLACK). This is how verify.sh keeps
`DEFAULT_VITERBI_LANES`/`DEFAULT_CORR_LANES` honest: a default that loses
its own sweep fails CI.

Compares kernel median times, per-profile-stage p50 times, and
per-experiment wall-clock between two `freerider-bench/1` documents. A
metric regresses when the new value exceeds the old by more than the
threshold (percent, default 50 -- wall-clock benchmarks are noisy;
override with FREERIDER_BENCH_THRESHOLD).

Kernel and stage regressions always fail (exit 1): the PHY hot paths are
the product, and a silent 2x loss there is exactly what this gate exists
to catch. Stage rows come from `bench-baseline`'s profile-on WiFi RX run
on both sides, so the comparison is like for like (profiling overhead is
present in both). `--warn-only` downgrades only the experiment
wall-clock rows, which bundle scheduling noise and workload drift on top
of kernel time. A missing old baseline is still fine (first run: nothing
to compare yet).

An unknown `-`-prefixed argument exits 2 with the usage text.

`--selftest` exercises the gate on synthetic documents -- a clean pair
must pass and an injected per-stage regression must exit 1 -- and is run
by scripts/verify.sh so the gate itself cannot silently rot.
"""

import contextlib
import io
import json
import os
import sys

# The docstring's summary line and usage lines.
USAGE = "\n\n".join(__doc__.strip().split("\n\n")[:2])
FLAGS = {"--selftest", "--assert-lanes", "--warn-only"}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "freerider-bench/1":
        sys.exit(f"bench_diff: {path}: unexpected schema {doc.get('schema')!r}")
    return doc


def diff(old, new, threshold, warn_only):
    """Returns (exit code, printed lines) for one old/new document pair."""
    rows = []  # (metric, hard failure?, old value, new value, unit)
    for name, k in new.get("kernels", {}).items():
        prev = old.get("kernels", {}).get(name)
        if prev:
            # `lint/` rows track analyzer wall-clock, not product hot
            # paths: downgradable by --warn-only like experiment rows.
            hard = not name.startswith("lint/")
            rows.append((f"kernel {name}", hard, prev["median_ns"], k["median_ns"], "ns"))
    for name, s in new.get("stages", {}).items():
        prev = old.get("stages", {}).get(name)
        if prev and prev.get("p50_ns"):
            rows.append((f"stage {name}", True, prev["p50_ns"], s["p50_ns"], "ns"))
    for name, e in new.get("experiments", {}).items():
        prev = old.get("experiments", {}).get(name)
        if prev:
            rows.append((f"experiment {name}", False, prev["wall_s"], e["wall_s"], "s"))

    lines = []
    if not rows:
        lines.append("bench_diff: no overlapping metrics between baselines")
        return 0, lines

    hard_regressions = 0
    soft_regressions = 0
    lines.append(f"bench_diff: {old.get('git_sha')} -> {new.get('git_sha')}"
                 f" (threshold {threshold:g}%)")
    for metric, hard, before, after, unit in rows:
        delta = (after / before - 1.0) * 100.0 if before else 0.0
        flag = ""
        if delta > threshold:
            if hard or not warn_only:
                flag = "  << REGRESSION"
                hard_regressions += 1
            else:
                flag = "  << regression (warn-only)"
                soft_regressions += 1
        lines.append(f"  {metric:<40} {before:>12g} -> {after:>12g} {unit}"
                     f"  ({delta:+6.1f}%){flag}")

    if soft_regressions:
        lines.append(f"bench_diff: {soft_regressions} experiment wall-clock metric(s)"
                     f" regressed beyond {threshold:g}% (downgraded by --warn-only)")
    if hard_regressions:
        lines.append(f"bench_diff: {hard_regressions} metric(s) regressed"
                     f" beyond {threshold:g}%")
        return 1, lines
    lines.append("bench_diff: OK")
    return 0, lines


# Lane-sweep groups: `lanes` section key -> kernel row prefix. Each group's
# sweep rows are `<prefix>/lanes_<N>` for every advertised width.
LANE_GROUPS = {"viterbi": "coding/viterbi", "corr": "dsp/ltf_corr"}


def assert_lanes(doc, slack):
    """Returns (exit code, lines): every sweep row present and each
    `selected` default within `slack` percent of its sweep's winner."""
    lines = []
    failures = 0
    lanes = doc.get("lanes")
    if not lanes:
        return 1, ["bench_diff: no `lanes` section"]
    kernels = doc.get("kernels", {})
    for group, prefix in sorted(LANE_GROUPS.items()):
        info = lanes.get(group)
        if not info:
            lines.append(f"  lanes.{group}: section MISSING")
            failures += 1
            continue
        widths = info.get("widths", [])
        selected = info.get("selected")
        rows = {}
        missing = 0
        for label in [f"lanes_{w}" for w in widths]:
            k = kernels.get(f"{prefix}/{label}")
            if k is None:
                lines.append(f"  lanes.{group}: sweep row {prefix}/{label} MISSING")
                missing += 1
            else:
                rows[label] = k["median_ns"]
        if missing or not widths:
            failures += missing or 1
            continue
        sel_label = f"lanes_{selected}"
        if sel_label not in rows:
            lines.append(f"  lanes.{group}: selected width {selected}"
                         f" has no measured row")
            failures += 1
            continue
        best_label = min(rows, key=rows.get)
        best, sel = rows[best_label], rows[sel_label]
        margin = (sel / best - 1.0) * 100.0 if best else 0.0
        if margin > slack:
            lines.append(f"  lanes.{group}: selected {sel_label} ({sel} ns) is"
                         f" {margin:.1f}% behind winner {best_label} ({best} ns)"
                         f" -- beyond {slack:g}% noise slack  << NOT THE WINNER")
            failures += 1
        else:
            lines.append(f"  lanes.{group}: selected {sel_label} {sel} ns vs"
                         f" best {best_label} {best} ns ({margin:+.1f}%) ok")
    if failures:
        lines.append(f"bench_diff: --assert-lanes: {failures} failure(s)")
        return 1, lines
    lines.append("bench_diff: --assert-lanes OK"
                 " (sweep rows present, defaults are measured winners)")
    return 0, lines


def selftest():
    """The gate gates: a clean pair passes, an injected stage regression fails."""
    base = {
        "schema": "freerider-bench/1",
        "git_sha": "selftest-old",
        "kernels": {
            "wifi/rx_1000B": {"median_ns": 1_000_000},
            "lint/workspace_scan": {"median_ns": 100_000_000},
        },
        "stages": {
            "wifi.rx": {"p50_ns": 900_000, "count": 10},
            "wifi.rx/decode/viterbi": {"p50_ns": 400_000, "count": 10},
        },
        "experiments": {"fig10": {"wall_s": 1.0}},
    }
    clean = json.loads(json.dumps(base))
    clean["git_sha"] = "selftest-new"
    code, _ = diff(base, clean, 50.0, warn_only=False)
    if code != 0:
        print("bench_diff selftest: FAIL -- identical baselines flagged as regression")
        return 1

    regressed = json.loads(json.dumps(clean))
    regressed["stages"]["wifi.rx/decode/viterbi"]["p50_ns"] = 1_000_000  # +150%
    code, lines = diff(base, regressed, 50.0, warn_only=False)
    if code != 1:
        print("bench_diff selftest: FAIL -- injected stage regression not caught")
        return 1
    if not any("stage wifi.rx/decode/viterbi" in l and "REGRESSION" in l for l in lines):
        print("bench_diff selftest: FAIL -- regression caught but not attributed to the stage row")
        return 1

    # An injected regression must still fail under --warn-only: stage rows
    # are hard, only experiment rows are downgradable.
    code, _ = diff(base, regressed, 50.0, warn_only=True)
    if code != 1:
        print("bench_diff selftest: FAIL -- --warn-only must not soften stage rows")
        return 1

    # Experiment rows, by contrast, do soften.
    slow_exp = json.loads(json.dumps(clean))
    slow_exp["experiments"]["fig10"]["wall_s"] = 5.0
    code, _ = diff(base, slow_exp, 50.0, warn_only=True)
    if code != 0:
        print("bench_diff selftest: FAIL -- --warn-only must downgrade experiment rows")
        return 1

    # The analyzer wall-clock row softens too (not a product hot path)...
    slow_lint = json.loads(json.dumps(clean))
    slow_lint["kernels"]["lint/workspace_scan"]["median_ns"] = 500_000_000  # +400%
    code, _ = diff(base, slow_lint, 50.0, warn_only=True)
    if code != 0:
        print("bench_diff selftest: FAIL -- --warn-only must downgrade lint/ kernel rows")
        return 1
    # ...but still fails a strict (no --warn-only) run.
    code, _ = diff(base, slow_lint, 50.0, warn_only=False)
    if code != 1:
        print("bench_diff selftest: FAIL -- strict run must gate lint/ kernel rows")
        return 1

    # --assert-lanes: a document whose selected widths win their sweeps
    # passes; a missing sweep row and a selected width that loses beyond
    # the noise slack both fail.
    lanes_doc = {
        "schema": "freerider-bench/1",
        "git_sha": "selftest-lanes",
        "kernels": {
            "coding/viterbi/lanes_1": {"median_ns": 45_000},
            "coding/viterbi/lanes_2": {"median_ns": 40_000},
            "coding/viterbi/lanes_4": {"median_ns": 70_000},
            "coding/viterbi/lanes_8": {"median_ns": 90_000},
            "dsp/ltf_corr/lanes_1": {"median_ns": 80_000},
            "dsp/ltf_corr/lanes_2": {"median_ns": 82_000},
            "dsp/ltf_corr/lanes_4": {"median_ns": 81_000},
            "dsp/ltf_corr/lanes_8": {"median_ns": 35_000},
        },
        "lanes": {
            "viterbi": {"selected": 2, "widths": [1, 2, 4, 8]},
            "corr": {"selected": 8, "widths": [1, 2, 4, 8]},
        },
    }
    code, _ = assert_lanes(lanes_doc, slack=10.0)
    if code != 0:
        print("bench_diff selftest: FAIL -- winning lane defaults flagged")
        return 1

    no_row = json.loads(json.dumps(lanes_doc))
    del no_row["kernels"]["coding/viterbi/lanes_4"]
    code, lines = assert_lanes(no_row, slack=10.0)
    if code != 1 or not any("lanes_4 MISSING" in l for l in lines):
        print("bench_diff selftest: FAIL -- missing sweep row not caught")
        return 1

    # The unbatched width competes like any other: a selected width that
    # loses to lanes_1 beyond the slack fails.
    unbatched_wins = json.loads(json.dumps(lanes_doc))
    unbatched_wins["kernels"]["coding/viterbi/lanes_1"]["median_ns"] = 25_000
    code, lines = assert_lanes(unbatched_wins, slack=10.0)
    if code != 1 or not any("winner lanes_1" in l for l in lines):
        print("bench_diff selftest: FAIL -- selected width losing to lanes_1 not caught")
        return 1

    loser = json.loads(json.dumps(lanes_doc))
    loser["lanes"]["viterbi"]["selected"] = 8  # 90 us vs 40 us winner
    code, lines = assert_lanes(loser, slack=10.0)
    if code != 1 or not any("NOT THE WINNER" in l for l in lines):
        print("bench_diff selftest: FAIL -- losing selected width not caught")
        return 1

    near_tie = json.loads(json.dumps(lanes_doc))
    near_tie["kernels"]["coding/viterbi/lanes_4"]["median_ns"] = 41_000
    near_tie["lanes"]["viterbi"]["selected"] = 4  # 2.5% behind: within noise
    code, _ = assert_lanes(near_tie, slack=10.0)
    if code != 0:
        print("bench_diff selftest: FAIL -- within-slack selected width flagged")
        return 1

    # A misspelt flag is a usage error, not a silently strict run.
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--warn_only", "old.json", "new.json"])
    if code != 2 or USAGE not in err.getvalue():
        print("bench_diff selftest: FAIL -- unknown flag --warn_only not rejected")
        return 1

    print("bench_diff selftest: OK (stage regression gated, warn-only semantics"
          " hold, lane assertions gate, unknown flags rejected)")
    return 0


def main(argv):
    unknown = [a for a in argv if a.startswith("-") and a not in FLAGS]
    if unknown:
        print(f"bench_diff: unknown argument {unknown[0]}\n{USAGE}", file=sys.stderr)
        return 2
    if "--selftest" in argv:
        return selftest()
    args = [a for a in argv if not a.startswith("--")]
    if "--assert-lanes" in argv:
        if len(args) != 1:
            sys.exit("bench_diff: --assert-lanes takes exactly one JSON document")
        slack = float(os.environ.get("FREERIDER_LANE_SLACK", "10"))
        code, lines = assert_lanes(load(args[0]), slack)
        print("\n".join(lines))
        return code
    warn_only = "--warn-only" in argv
    if len(args) != 2:
        sys.exit(__doc__.strip())
    old_path, new_path = args
    threshold = float(os.environ.get("FREERIDER_BENCH_THRESHOLD", "50"))

    if not os.path.exists(old_path):
        print(f"bench_diff: no baseline at {old_path} (first run), nothing to diff")
        return 0
    old, new = load(old_path), load(new_path)
    code, lines = diff(old, new, threshold, warn_only)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
