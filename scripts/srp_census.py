#!/usr/bin/env python3
"""Count strongly regular partitions per ground-set size and check that
every one of them is realized by a permutation group.

Counts are findings of the run, not asserted constants.  n = 5 and 6 are
each run under a time budget and reported as partial if it runs out.
Exit status: 0 if every n completed with every partition realized, 1 if
some partition is realized by no group, 3 if some n ran out of budget.
"""

import argparse
import sys
import time

from goa import GroundSet
from goa.srp import enumerate_strongly_regular, is_orbit_partition


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=4, choices=range(1, 7),
                    help="largest ground-set size; the enumeration supports n <= 6")
    ap.add_argument("--budget", type=float, default=300.0,
                    help="time budget in seconds for each n >= 5")
    args = ap.parse_args()
    if not args.budget > 0:
        ap.error(f"--budget must be a positive number of seconds, got {args.budget}")

    status_code = 0
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        parts, complete = enumerate_strongly_regular(
            GroundSet(n), budget_seconds=args.budget if n >= 5 else None)
        realizable = sum(1 for p in parts if is_orbit_partition(p)[0])
        status = "" if complete else " (partial: budget exhausted)"
        print(f"n={n}: {len(parts)} strongly regular partitions, "
              f"{realizable} orbit-realizable{status} "
              f"[{time.monotonic() - start:.1f}s]")
        if realizable < len(parts):
            status_code = 1
        elif not complete and status_code == 0:
            status_code = 3
    return status_code


if __name__ == "__main__":
    sys.exit(main())
