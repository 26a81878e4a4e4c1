#!/usr/bin/env python3
"""Run the exact operator-identity suite across a range of ground sets.

Exit status: 0 if every identity holds for every n, 1 if some identity
fails, 2 on bad arguments (the suite supports 1 <= n <= 8, and an empty
range, --min-n above --max-n, is refused rather than passed).
"""

import argparse
import sys
import time

from goa import GroundSet
from goa.errors import DEFAULT_SEED
from goa.identities import identity_suite


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--min-n", type=int, default=2, choices=range(1, 9))
    ap.add_argument("--max-n", type=int, default=6, choices=range(1, 9),
                    help="largest ground-set size; the suite supports n <= 8")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    if args.min_n > args.max_n:
        ap.error(f"--min-n {args.min_n} is larger than --max-n {args.max_n}")

    status_code = 0
    for n in range(args.min_n, args.max_n + 1):
        start = time.monotonic()
        checks = identity_suite(GroundSet(n), seed=args.seed)
        bad = [name for name, ok, _ in checks if not ok]
        verdict = "all pass" if not bad else f"FAILED: {bad}"
        print(f"n={n}: {len(checks)} identities, {verdict} "
              f"[{time.monotonic() - start:.1f}s]")
        if bad:
            status_code = 1
    return status_code


if __name__ == "__main__":
    sys.exit(main())
