#!/usr/bin/env python
"""Run every built-in preset (or a filtered subset) and write each one's
outputs to its own subdirectory."""

import argparse
import sys
from pathlib import Path

from autophagy_tumor.cli import fan_out
from autophagy_tumor.scenarios import PRESETS, run_scenario
from autophagy_tumor.solver import SolverError


def _run_one(item):
    name, out_dir = item
    try:
        result = run_scenario(PRESETS[name], out_dir)
        return name, None, result.log.violations
    except (SolverError, ValueError) as err:
        return name, str(err), []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs", help="parent output directory")
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel workers (at most one per preset)"
    )
    parser.add_argument(
        "--only", default=None, help="substring filter on preset names (comma-separated)"
    )
    args = parser.parse_args(argv)

    names = list(PRESETS)
    if args.only:
        needles = [s for s in args.only.split(",") if s]
        names = [n for n in names if any(s in n for s in needles)]
    if not names:
        print("no presets match the filter", file=sys.stderr)
        return 2

    items = [(name, str(Path(args.out) / name)) for name in names]
    try:
        results = fan_out(_run_one, items, args.jobs)
    except ValueError as err:  # bad --jobs; _run_one reports its own errors
        print(err, file=sys.stderr)
        return 2

    failed = 0
    for name, error, violations in results:
        if error is not None:
            failed += 1
            print(f"FAILED {name}: {error}", file=sys.stderr)
        elif violations:
            failed += 1
            print(f"VIOLATIONS {name}: {violations}", file=sys.stderr)
        else:
            print(f"done {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
