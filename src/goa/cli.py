"""Command-line entry point.

Exit codes: 0 verified / true / success, 1 falsified / false, 2 input
error, 3 resource budget exceeded, 4 internal error (any other
exception, reported as one stderr line, so a crash never reads as a
verdict).  Reports are plain 'key: value' lines so acceptance logs diff
cleanly.

Each command imports the goa modules it uses when it runs, not when
this module loads.  Every check runs as its own short process, and
loading all of goa adds half (with a bytecode cache) to all (without
one) of the bare interpreter's start-up time to each, while most
commands need only some of its modules.  The imports run inside main's
try, so a module that fails to import exits 4, not 1.
"""

import argparse
import re
import sys
from pathlib import Path

from goa.errors import (DEFAULT_SEED, BudgetExceeded, InputError, VerificationFailure,
                        budget_deadline)


def _read(path):
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_partition(path):
    from goa.partition import parse_partition_text
    return parse_partition_text(_read(path))


def _load_group(path):
    from goa.perms import parse_group_text
    return parse_group_text(_read(path))


def cmd_verify(args):
    from goa.partition import verify_goa_closure, verify_strongly_regular
    if args.budget is not None and not args.closure:
        raise InputError("--budget bounds the --closure test; give it with --closure")
    deadline = budget_deadline(args.budget)
    p = _load_partition(args.partition)
    rep = verify_strongly_regular(p)
    for line in rep.lines():
        print(line)
    ok = rep.ok
    if args.closure:
        goa = verify_goa_closure(p, deadline)
        for line in goa.lines():
            print(line)
        ok = ok and goa.closed
    return 0 if ok else 1


def cmd_coeff(args):
    from goa.partition import mnukhin_check
    if args.power == 0:
        raise InputError("power must be a nonzero integer")
    p = _load_partition(args.partition)
    for line in p.matrix.lines():
        print(line)
    if args.power is not None:
        mnukhin_check(p, args.power)
        print(f"power-law m={args.power}: True")
    return 0


def cmd_is_orbit_algebra(args):
    from goa.srp import is_orbit_partition
    p = _load_partition(args.partition)
    flag, witness = is_orbit_partition(p)
    print(f"is-orbit-partition: {flag}")
    print(f"stabilizer-order: {witness.order}")
    return 0 if flag else 1


def cmd_enumerate_srp(args):
    from goa.partition import format_partition
    from goa.srp import enumerate_strongly_regular
    from goa.subsets import GroundSet
    g = GroundSet(args.n)
    parts, complete = enumerate_strongly_regular(g, budget_seconds=args.budget)
    print(f"n: {args.n}")
    print(f"count: {len(parts)}")
    print(f"complete: {complete}")
    for i, p in enumerate(parts):
        print(f"# partition {i + 1}")
        print(format_partition(p))
    return 0 if complete else 3


def cmd_counterexample(args):
    from goa.srp import build_counterexample
    _, rep = build_counterexample()
    for line in rep.lines():
        print(line)
    return 0 if rep.ok else 1


def cmd_orbits(args):
    from goa.partition import format_partition
    from goa.perms import orbit_partition
    group = _load_group(args.group)
    print(format_partition(orbit_partition(group)))
    return 0


def cmd_stabilizer(args):
    from goa.perms import format_permutation, partition_stabilizer
    p = _load_partition(args.partition)
    h = partition_stabilizer(p)
    print(f"order: {h.order}")
    for sigma in h.elements:
        print(format_permutation(sigma))
    return 0


def cmd_identities(args):
    from goa.identities import identity_suite
    from goa.subsets import GroundSet
    checks = identity_suite(GroundSet(args.n), seed=args.seed)
    for name, ok, detail in checks:
        suffix = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_recon(args):
    from goa.recon import lovasz_check, muller_check
    from goa.subsets import format_subset
    p = _load_partition(args.partition)
    if args.size is not None and not 0 <= args.size <= p.g.n:
        raise InputError(f"--size must be in 0..{p.g.n}, got {args.size}")
    pairs_by_size = lovasz_check(p)
    if args.size is not None:
        pairs_by_size = {args.size: pairs_by_size[args.size]}
    for k, pairs in pairs_by_size.items():
        print(f"pairs at size {k}: {len(pairs)}")
        for pair in pairs:
            print(f"pair: blocks {pair.a} {pair.b} "
                  f"({format_subset(p.blocks[pair.a][0])} vs {format_subset(p.blocks[pair.b][0])})")
    print("no-pairs-above-half: True")
    for pairs in pairs_by_size.values():
        for pair in pairs:
            rows = muller_check(p, pair)
            in_scope = [r for r in rows if r[3]]
            print(f"order-bound pair ({pair.a},{pair.b}): {len(in_scope)} bounds hold")
    return 0


def cmd_muller_tight(args):
    from goa.perms import orbit_partition
    from goa.recon import lovasz_tight_instance, muller_check, reconstruction_pairs
    from goa.subsets import format_subset
    group, a_mask, b_mask = lovasz_tight_instance(args.r, args.pad)
    part = orbit_partition(group)
    print(f"n: {group.g.n}")
    print(f"group-order: {group.order}")
    print(f"set-a: {format_subset(a_mask)}")
    print(f"set-b: {format_subset(b_mask)}")
    pairs = [q for q in reconstruction_pairs(part, args.r)
             if {q.a, q.b} == {part.block_of[a_mask], part.block_of[b_mask]}]
    print(f"equal-decks: {bool(pairs)}")
    rows = muller_check(part, pairs[0])
    empty_block = part.block_of[0]
    bound_row = next(r for r in rows if r[0] == empty_block)
    print(f"empty-block-bound: 2^{args.r - 1} = {bound_row[1]} <= orbit size {bound_row[2]}")
    print(f"equality-at-empty-block: {bound_row[1] == bound_row[2]}")
    return 0


def cmd_free_index(args):
    from goa.recon import maynard_siemons_index
    group = _load_group(args.group)
    index = maynard_siemons_index(group)
    print(f"reconstruction-index: {index}")
    print("bound-5-satisfied: True")
    return 0


def cmd_digraph_demo(args):
    from goa.digraphs import graph_kelly_check, hypomorphy_search
    f = args.vertices
    drep = hypomorphy_search(f, directed=True)
    for line in drep.lines():
        print(line)
    grep = hypomorphy_search(f, directed=False)
    for line in grep.lines():
        print(line)
    kelly = graph_kelly_check(f)
    print(f"graph-deletion-identity: {kelly}")
    if f == 4:
        expected = drep.has_nontrivial and drep.witness and not grep.has_nontrivial
        print(f"expected-pattern: {bool(expected)}")
        return 0 if expected else 1
    return 0


def cmd_dimensions(args):
    from goa.incidence import bilinear_dimension_comparison
    if args.n < 1:
        raise InputError(f"--n must be at least 1, got {args.n}")
    lhs, rhs, holds = bilinear_dimension_comparison(args.n)
    print(f"three-times-squared-order3: {lhs}")
    print(f"order4: {rhs}")
    print(f"strictly-smaller: {holds}")
    return 0


def _ascii_number(pattern, convert):
    """An argparse type: convert(text) once text fully matches pattern.
    int and float alone also read non-ASCII digits ('٣') and underscores
    ('1_0')."""
    def parse(text):
        if not re.fullmatch(pattern, text):
            raise ValueError(text)
        return convert(text)
    parse.__name__ = convert.__name__   # argparse names the type in its error
    return parse


_INT = _ascii_number("-?[0-9]+", int)
_SECONDS = _ascii_number(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)", float)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="goa",
        description="Exact computations with strongly regular partitions of a powerset")
    ap.add_argument("--seed", type=_INT, default=DEFAULT_SEED,
                    help=f"seed for randomized spot checks (default {DEFAULT_SEED})")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the three strong-regularity axioms")
    p.add_argument("--partition", required=True)
    p.add_argument("--closure", action="store_true",
                   help="also test closure under the lattice operators")
    p.add_argument("--budget", type=_SECONDS, default=None,
                   help="time budget in seconds for the --closure test, counted from the start "
                        "of the command (needs --closure)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("coeff", help="print the downward-count coefficient matrix")
    p.add_argument("--partition", required=True)
    p.add_argument("--power", type=_INT, default=None,
                   help="also verify the entrywise matrix power law for this m")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("is-orbit-algebra",
                       help="decide whether some permutation group realizes the partition")
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=cmd_is_orbit_algebra)

    p = sub.add_parser("enumerate-srp", help="list all strongly regular partitions")
    p.add_argument("--n", type=_INT, required=True)
    p.add_argument("--budget", type=_SECONDS, default=None, help="time budget in seconds")
    p.set_defaults(fn=cmd_enumerate_srp)

    p = sub.add_parser("counterexample",
                       help="build the order-8 partition that no group realizes")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("orbits", help="orbit partition of a group on the powerset")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("stabilizer", help="setwise stabilizer of a partition")
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=cmd_stabilizer)

    p = sub.add_parser("identities", help="run the exact operator identity suite")
    p.add_argument("--n", type=_INT, required=True)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("recon", help="reconstruction pairs and counting bounds")
    p.add_argument("--partition", required=True)
    p.add_argument("--size", type=_INT, default=None)
    p.set_defaults(fn=cmd_recon)

    p = sub.add_parser("muller-tight", help="the order-bound-tight family")
    p.add_argument("--r", type=_INT, required=True)
    p.add_argument("--pad", type=_INT, default=0)
    p.set_defaults(fn=cmd_muller_tight)

    p = sub.add_parser("free-index", help="reconstruction index of a free action")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_free_index)

    p = sub.add_parser("digraph-demo", help="hypomorphy census for small (di)graphs")
    p.add_argument("--vertices", type=_INT, required=True)
    p.set_defaults(fn=cmd_digraph_demo)

    p = sub.add_parser("dimensions", help="exact bilinear-span dimension comparison")
    p.add_argument("--n", type=_INT, required=True)
    p.set_defaults(fn=cmd_dimensions)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        code, message = 2, f"input error: {exc}"
    except VerificationFailure as exc:
        code, message = 1, f"verification failure: {exc}"
    except BudgetExceeded as exc:
        code, message = 3, f"budget exceeded: {exc}"
    except Exception as exc:
        code, message = 4, f"internal error: {type(exc).__name__}: {exc}"
    try:
        print(message, file=sys.stderr)
    except OSError:   # stderr closed too, e.g. both piped into `head`
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
