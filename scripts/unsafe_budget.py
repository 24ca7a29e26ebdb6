#!/usr/bin/env python3
"""Holds the engine's `unsafe` budget.

usage: python3 scripts/unsafe_budget.py

Counts the lines containing `unsafe` in the Rust sources of
crates/dcsim/src and crates/core/src, each file read up to its test
module (the first line starting with `mod tests` or `pub(crate) mod
tests`), lists them, and exits 1 when there are more than BUDGET: the
prefetch helper's line and the tick pool's three. A change that moves
the count edits BUDGET.
"""

import pathlib
import re
import sys

ROOTS = ("crates/dcsim/src", "crates/core/src")
TEST_MODULE = re.compile(r"^(pub(\([^)]*\))? )?mod tests\b")
BUDGET = 4


def unsafe_lines(repo: pathlib.Path):
    for root in ROOTS:
        for path in sorted((repo / root).rglob("*.rs")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if TEST_MODULE.match(line):
                    break
                if "unsafe" in line:
                    yield f"{path.relative_to(repo)}:{number}: {line.strip()}"


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    lines = list(unsafe_lines(repo))
    for line in lines:
        print(line)
    print(f"{len(lines)} lines contain `unsafe` (budget {BUDGET})")
    if len(lines) > BUDGET:
        print("error: over the unsafe budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
