#!/usr/bin/env python3
"""Runs a command and reports its peak resident memory.

usage: python3 scripts/max_rss.py [--ceiling-mb MB] -- COMMAND [ARGS...]

The command's stdout and stderr pass through. Once it exits, its max
RSS, read with getrusage(RUSAGE_CHILDREN), goes to stderr as
"max RSS: N MB" (MB = 10^6 bytes, as perfbench's peak_rss_mb; the
child is forked from this interpreter, so ~15 MB is the floor). The exit
status is the command's when it fails, 1 when its peak is above
--ceiling-mb, and 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ceiling-mb", type=float, help="fail above this peak")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    status = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    print(f"max RSS: {peak_mb:.1f} MB", file=sys.stderr)
    if status != 0:
        # A command killed by signal N reports -N; shells report 128 + N.
        return status if status > 0 else 128 - status
    if args.ceiling_mb is not None and peak_mb > args.ceiling_mb:
        print(
            f"error: max RSS {peak_mb:.1f} MB is above the {args.ceiling_mb:g} MB ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
