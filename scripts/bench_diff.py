#!/usr/bin/env python3
"""Judge `bench-baseline` documents: the same-host speed gate and the lane audit.

    python3 scripts/bench_diff.py --assert-lanes <doc.json>
    python3 scripts/bench_diff.py --selftest

`verdict` is the speed gate that `scripts/ab.py <base-rev> bench-baseline`
applies to alternating base/tree pairs of runs made on one host. A row is
a kernel median, a profile-stage p50 or an experiment's wall-clock, and
every row is gated by one rule: it fails only when the tree is slower in
at least 9 of 10 pairs **and** the tree's median exceeds the base's by
more than the larger of the two sides' interquartile ranges. So a row
must lose consistently, and by more than its own run-to-run spread,
before it fails. The rule has no threshold constant: its only inputs are
the runs themselves. A row present on only one side is listed and not
gated.

`--assert-lanes` audits one document's lane-width sweep instead: the
document must carry a `lanes` section, every advertised width (1 = the
unbatched kernel) must have its measured `lanes_N` kernel row, and each
compiled-in `selected` default must be the measured winner of its sweep
(within a noise slack, default 10% -- override with FREERIDER_LANE_SLACK).
This is how verify.sh keeps `DEFAULT_VITERBI_LANES`/`DEFAULT_CORR_LANES`
honest: a default that loses its own sweep fails CI.

An unknown `-`-prefixed argument exits 2 with the usage text.

`--selftest` exercises both on synthetic documents and is run by
scripts/verify.sh, so neither gate can silently rot.
"""

import contextlib
import io
import json
import os
import sys

# The docstring's summary line and usage lines.
USAGE = "\n\n".join(__doc__.strip().split("\n\n")[:2])
FLAGS = {"--selftest", "--assert-lanes"}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "freerider-bench/1":
        sys.exit(f"bench_diff: {path}: unexpected schema {doc.get('schema')!r}")
    return doc


def quartiles(xs):
    """q1, median, q3 by linear interpolation between order statistics."""
    s = sorted(xs)

    def q(p):
        k = (len(s) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (k - lo)

    return q(0.25), q(0.5), q(0.75)


def rows(doc):
    """Every timed row of one document: name -> (value, unit)."""
    out = {}
    for name, k in doc.get("kernels", {}).items():
        out[f"kernel {name}"] = (k["median_ns"], "ns")
    for name, s in doc.get("stages", {}).items():
        out[f"stage {name}"] = (s["p50_ns"], "ns")
    for name, e in doc.get("experiments", {}).items():
        out[f"experiment {name}"] = (e["wall_s"], "s")
    return out


def verdict(base_docs, tree_docs):
    """Returns (failing row names, printed lines) for paired runs:
    `base_docs[i]` and `tree_docs[i]` are pair i."""
    assert base_docs and len(base_docs) == len(tree_docs), "runs must pair up"
    n = len(base_docs)
    base = [rows(d) for d in base_docs]
    tree = [rows(d) for d in tree_docs]
    names = sorted(set().union(*base, *tree))
    failing, lines = [], []
    lines.append(f"{'row':<48}{'base median':>13}{'IQR':>11}"
                 f"{'tree median':>13}{'ratio':>8}{'slower':>8}")
    for name in names:
        if not all(name in r for r in base + tree):
            side = "base" if all(name in r for r in base) else \
                "tree" if all(name in r for r in tree) else "some runs"
            lines.append(f"{name:<48}  on {side} only, not gated")
            continue
        unit = base[0][name][1]
        a = [r[name][0] for r in base]
        b = [r[name][0] for r in tree]
        slower = sum(y > x for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        # The larger IQR: ten runs can give one side a freak-tight spread
        # (an A/A gate read viterbi/lanes_4 at 0.7% on one side, 27% on
        # the other).
        iqr = max(qa[2] - qa[0], qb[2] - qb[0])
        fails = 10 * slower >= 9 * n and qb[1] - qa[1] > iqr
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        lines.append(f"{name:<48}{qa[1]:>11.4g}{unit:>2}{iqr:>9.3g}{unit:>2}"
                     f"{qb[1]:>11.4g}{unit:>2}{ratio:>8.3f}{slower:>5}/{n}"
                     + ("  << SLOWER" if fails else ""))
        if fails:
            failing.append(name)
    if failing:
        lines.append(f"bench_diff: {len(failing)} row(s) slower in at least 9 in 10"
                     f" of {n} pairs by more than the IQR: {', '.join(failing)}")
    else:
        lines.append(f"bench_diff: OK, no row slower in at least 9 in 10 of {n}"
                     " pairs by more than the IQR")
    return failing, lines


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
    """Both gates gate, on synthetic documents."""

    def doc(fft, viterbi, extra=None):
        d = {
            "schema": "freerider-bench/1",
            "kernels": {"dsp/fft64_planned": {"median_ns": fft}},
            "stages": {"wifi.rx/decode/viterbi": {"p50_ns": viterbi, "count": 10}},
            "experiments": {"fig10": {"wall_s": 1.0}},
        }
        if extra:
            d["kernels"][extra] = {"median_ns": 5}
        return d

    # Ten paired runs with a base spread of about 4% (IQR 22.5 ns on 500).
    jitter = [0, 20, -10, 15, -20, 5, 10, -15, 25, -5]
    base = [doc(500 + j, 1000 + j) for j in jitter]
    rotated = jitter[3:] + jitter[:3]

    cases = [
        # (what, tree runs, rows that must fail)
        ("an A/A set", [doc(500 + j, 1000 + j) for j in rotated], []),
        ("a row 20% slower in 10 of 10 pairs",
         [doc(600 + j, 1000 + j) for j in jitter], ["kernel dsp/fft64_planned"]),
        ("a row slower in 10 of 10 pairs by less than the IQR",
         [doc(510 + j, 1000 + j) for j in jitter], []),
        ("a row 20% slower in only 8 of 10 pairs",
         [doc(600 + j if i < 8 else 400, 1000 + j) for i, j in enumerate(jitter)], []),
        ("a faster tree", [doc(400 + j, 800 + j) for j in jitter], []),
    ]
    for what, tree, want in cases:
        failing, lines = verdict(base, tree)
        if failing != want:
            print(f"bench_diff selftest: FAIL -- {what}: failing rows {failing},"
                  f" want {want}\n" + "\n".join(lines))
            return 1
        if want and not any(want[0] in l and "SLOWER" in l for l in lines):
            print(f"bench_diff selftest: FAIL -- {what}: row not named")
            return 1

    # A row on one side only is listed and not gated.
    failing, lines = verdict(base, [doc(500 + j, 1000 + j, "new/row") for j in jitter])
    if failing or not any("kernel new/row" in l and "tree only" in l for l in lines):
        print("bench_diff selftest: FAIL -- a one-sided row was gated or not listed")
        return 1

    # --assert-lanes: a document whose selected widths win their sweeps
    # passes; a missing sweep row and a selected width that loses beyond
    # the noise slack both fail.
    lanes_doc = {
        "schema": "freerider-bench/1",
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

    # A misspelt flag is a usage error, not a silently skipped audit.
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--assert_lanes", "doc.json"])
    if code != 2 or USAGE not in err.getvalue():
        print("bench_diff selftest: FAIL -- unknown flag --assert_lanes not rejected")
        return 1

    print("bench_diff selftest: OK (the pair verdict fails only a consistent"
          " slowdown beyond the IQR, lane assertions gate, unknown flags"
          " rejected)")
    return 0


def main(argv):
    unknown = [a for a in argv if a.startswith("-") and a not in FLAGS]
    if unknown:
        print(f"bench_diff: unknown argument {unknown[0]}\n{USAGE}", file=sys.stderr)
        return 2
    if "--selftest" in argv:
        return selftest()
    args = [a for a in argv if not a.startswith("--")]
    if "--assert-lanes" not in argv or len(args) != 1:
        print(f"bench_diff: expected --assert-lanes <doc.json> or --selftest\n{USAGE}",
              file=sys.stderr)
        return 2
    slack = float(os.environ.get("FREERIDER_LANE_SLACK", "10"))
    code, lines = assert_lanes(load(args[0]), slack)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
