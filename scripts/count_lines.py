#!/usr/bin/env python3
"""Counts the shipping lines of a source tree, per crate and in total.

A shipping line is a non-blank line of a `.rs` file under `crates/*/src`
or `src/` that does not start with `//` (so doc comments do not count)
and does not lie inside a `#[cfg(test)]` item. The item after each
`#[cfg(test)]` attribute is skipped up to its matching closing brace, or
up to its `;` if it has no body. Braces are matched on the text before
any `//`; braces inside string literals are counted too, which no file in
this workspace trips over.

Usage: python3 scripts/count_lines.py [TREE]   (TREE defaults to `.`)

To count a commit, extract it first, e.g.
`mkdir /tmp/t && git archive REV | tar -x -C /tmp/t`.
"""

import glob
import sys
from collections import Counter


def shipping_lines(lines):
    n = 0
    i = 0
    while i < len(lines):
        s = lines[i].strip()
        if s.startswith("#[cfg(test)]"):
            depth = 0
            opened = False
            i += 1
            while i < len(lines):
                code = lines[i].split("//")[0]
                depth += code.count("{") - code.count("}")
                opened = opened or "{" in code
                if (opened and depth <= 0) or (not opened and code.strip().endswith(";")):
                    break
                i += 1
        elif s and not s.startswith("//"):
            n += 1
        i += 1
    return n


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = glob.glob(f"{root}/crates/*/src/**/*.rs", recursive=True)
    files += glob.glob(f"{root}/src/**/*.rs", recursive=True)
    per = Counter()
    for path in files:
        rel = path[len(root) + 1 :].split("/")
        unit = "/".join(rel[:2]) if rel[0] == "crates" else "src"
        with open(path, encoding="utf-8") as f:
            per[unit] += shipping_lines(f.read().split("\n"))
    for unit, n in sorted(per.items()):
        print(f"{n:6} {unit}")
    print(f"{sum(per.values()):6} total")


if __name__ == "__main__":
    main()
