"""Deciding orbit realizability, exhaustive search for strongly regular
partitions, and the order-8 merged partition that is strongly regular
but not the orbit partition of any permutation group.
"""

import time
from itertools import chain, product

from goa.errors import BudgetExceeded, InputError, budget_deadline
from goa.partition import (Partition, merge_blocks, verify_goa_closure,
                           verify_strongly_regular)
from goa.perms import (close_generators, orbit_partition, parse_permutation,
                       partition_stabilizer)
from goa.subsets import GroundSet, downward_counts, enumerate_by_size, format_subset, mask_of


def is_orbit_partition(p: Partition):
    """(flag, witness group).

    A partition is the orbit partition of some group iff it equals the
    orbit partition of its own setwise stabilizer H: any realizing group
    is contained in H, so p refines orbits(H); H preserves the blocks,
    so orbits(H) refines p.  Equality is therefore exact realizability,
    and H is the witness.
    """
    h = partition_stabilizer(p)
    return orbit_partition(h) == p, h


def enumerate_strongly_regular(g: GroundSet, budget_seconds=None):
    """All strongly regular partitions of the powerset, as
    (partitions, completed) with completed False on budget exhaustion.

    Search is layer by layer, k = 0, 1, ..., n/2, and within a layer one
    block at a time.  A block is the first unplaced set of size k together
    with any subset of the unplaced rest of its class; below the middle
    its complement block (each member replaced by its complement) is
    placed with it.  In the middle layer (even n) a block is either its
    own complement, or disjoint from its complement, which is then placed
    as a second block.

    After each placement, axiom 3 (every x in X holds the same number of
    members of Y) is tested by a direct count on each pair (X, Y) with Y
    the new size-k block and X a block above n - k.  That number depends
    only on X and Y, so a failing pair prunes every completion.  The counts
    are packed: each set of size k has one int with a byte per member of
    the blocks above n - k, the sum over Y holds every count at once, and
    one shift, xor and and compare each byte with the next.  Every
    other pair with a new block holds already:
    - a member of Y lies inside x only if it is smaller than x or is x;
    - the members of Y^c inside x (X above n - k) are those of Y holding
      x^c: by Moebius inversion, the sum over U inside x^c of (-1)^|U|
      times the tested count of Y inside U^c, fixed by the word at x^c;
    - for X new and Y below k, the count is a field of the class word at
      m, which fixes the word at m ^ full: the members of S (below k)
      disjoint from m number the sum over blocks B of (-1)^|B| times the
      b in B inside m (a field) times the members of S holding each b;
    - for X = B^c and Y of this layer, the members of Y inside b^c are by
      inclusion-exclusion (-1)^k [b in Y] plus, over blocks S below k,
      (-1)^|S| times the s in S inside b times the Y holding each s (above).

    A full layer gets one downward_counts table of all placed blocks,
    which groups the next layer into classes: two sets may share a block
    only if their words agree.  The tested pairs and the four cases above
    give axiom 3 on every pair of blocks, so neither the table nor a
    finished partition is checked again (the tests verify every partition
    found at n <= 6).  Supports n <= 6:
    the CLI run takes 0.08-0.10 s at n = 5 (93 partitions) and 0.75-1.19 s
    at n = 6 (955), both under a default 300 s budget.  A budget,
    when given, must be a positive number of seconds.
    """
    n = g.n
    if n > 6:
        raise InputError("strongly regular enumeration supports n <= 6")
    if n >= 5 and budget_seconds is None:
        budget_seconds = 300.0
    deadline = budget_deadline(budget_seconds)
    levels = [enumerate_by_size(g, k) for k in range(n + 1)]
    full = g.full_mask
    results = []

    def layer(k, fixed, table):
        if k > n - k:
            results.append(Partition.from_blocks(g, fixed))
            return
        classes = {}
        for m in levels[k]:
            classes.setdefault(table[m], []).append(m)
        order = [m for members in sorted(classes.values()) for m in members]
        class_of = {m: members for members in classes.values() for m in members}
        # byte i of inside[m] is [m inside x_i], over the members x_i of the
        # blocks above n - k in block order.  The sum of a block's ints holds
        # in byte i its members inside x_i (at most C(6, 3) = 20, so no byte
        # carries), and those counts are constant on each upper block iff
        # each byte equals the next wherever both are of one block: the
        # bytes of `same`
        upper = [b for b in fixed if b[0].bit_count() > n - k]
        xs = [x for b in upper for x in b]
        inside = {m: sum(1 << 8 * i for i, x in enumerate(xs) if m & x == m) for m in levels[k]}
        same = start = 0
        for b in upper:
            same |= ((1 << 8 * (len(b) - 1)) - 1) << 8 * start
            start += len(b)

        def place(placed, unplaced):
            if not unplaced:
                candidate = fixed + placed
                layer(k + 1, candidate, downward_counts(candidate, n)[0])
                return
            head = next(m for m in order if m in unplaced)
            rest = [m for m in class_of[head] if m != head and m in unplaced]
            for members in blocks_from(head, rest):
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExceeded("strongly regular search")
                comp = [m ^ full for m in members]
                new = [members] if comp[0] in members else [members, comp]
                held = sum(map(inside.__getitem__, members))
                if not ((held >> 8) ^ held) & same:
                    place(placed + new, unplaced.difference(members, comp))

        def blocks_from(head, rest):
            """Every block of head and a subset of rest.  In the middle layer
            the unplaced sets are closed under complement, and only blocks
            that are their own complement or disjoint from it are made."""
            if 2 * k < n:
                shapes = [([head], [((), (m,)) for m in rest])]
            else:
                h = head ^ full
                # disjoint from its complement: at most one of each pair m, m^full
                shapes = [([head], [((), (m,), (m ^ full,)) if m ^ full in rest else ((), (m,))
                                    for m in rest
                                    if m != h and (m < m ^ full or m ^ full not in rest)])]
                if h in rest:   # its own complement: whole pairs only
                    shapes.append(([head, h], [((), (m, m ^ full)) for m in rest
                                               if m < m ^ full and m ^ full in rest]))
            for start, groups in shapes:
                for picks in product(*groups):
                    yield start + [*chain.from_iterable(picks)]

        place([], set(levels[k]))

    try:
        layer(0, [], [0] * g.size)
        complete = True
    except BudgetExceeded:
        complete = False
    results.sort(key=lambda p: (len(p.blocks), p.blocks))
    return results, complete


COUNTEREXAMPLE_GENERATORS = ("(1,2)(3,4)", "(5,6)(7,8)",
                             "(1,3,2,4)(5,7,6,8)", "(1,5)(2,6)(3,7)(4,8)")
COUNTEREXAMPLE_MERGE = ((1, 3, 5, 7), (1, 3, 5, 8))


class CounterexampleReport:
    """The verdicts on the merged partition; decompositions_a and _b list
    the unordered pairs of the orbit whose union is merged set 1 and 2."""

    __slots__ = ("group_order", "strongly_regular", "goa_closed", "orbit_realizable",
                 "decompositions_a", "decompositions_b", "meet_blocks_differ",
                 "certificate_ok")

    def __init__(self, group_order: int, strongly_regular: bool, goa_closed: bool,
                 orbit_realizable: bool, decompositions_a: list = None,
                 decompositions_b: list = None, meet_blocks_differ: bool = False,
                 certificate_ok: bool = False):
        self.group_order = group_order
        self.strongly_regular = strongly_regular
        self.goa_closed = goa_closed
        self.orbit_realizable = orbit_realizable
        self.decompositions_a = [] if decompositions_a is None else decompositions_a
        self.decompositions_b = [] if decompositions_b is None else decompositions_b
        self.meet_blocks_differ = meet_blocks_differ
        self.certificate_ok = certificate_ok

    @property
    def ok(self):
        return (self.strongly_regular and self.goa_closed
                and not self.orbit_realizable and self.certificate_ok)

    def lines(self):
        fmt = lambda dec: "; ".join(
            f"{format_subset(u)} + {format_subset(v)} (meet {format_subset(u & v)})"
            for u, v in dec)
        return [
            f"group order: {self.group_order}",
            f"strongly-regular: {self.strongly_regular}",
            f"goa-closed: {self.goa_closed}",
            f"is-orbit-partition: {self.orbit_realizable}",
            f"decompositions of merged set 1: {fmt(self.decompositions_a)}",
            f"decompositions of merged set 2: {fmt(self.decompositions_b)}",
            f"meet-blocks-differ: {self.meet_blocks_differ}",
            f"certificate: {self.certificate_ok}",
        ]


def build_counterexample():
    """The order-8 construction: merge the orbits of {1,3,5,7} and
    {1,3,5,8} in the orbit partition of the stated group, then certify
    strongly-regular + closure + non-realizability, with the
    union-decomposition certificate over the orbit of {1,3,7}."""
    g = GroundSet(8)
    gens = [parse_permutation(t, g) for t in COUNTEREXAMPLE_GENERATORS]
    gamma = close_generators(g, gens)
    base = orbit_partition(gamma)
    a_mask, b_mask = (mask_of(s) for s in COUNTEREXAMPLE_MERGE)
    merged = merge_blocks(base, base.block_of[a_mask], base.block_of[b_mask])

    srp = verify_strongly_regular(merged)
    goa = verify_goa_closure(merged)
    realizable, _witness = is_orbit_partition(merged)

    orbit_o = set(base.blocks[base.block_of[mask_of((1, 3, 7))]])

    def decompositions(target):
        out = []
        members = sorted(orbit_o)
        for ui, u in enumerate(members):
            for v in members[ui + 1:]:
                if u | v == target:
                    out.append((u, v))
        return out

    dec_a = decompositions(a_mask)
    dec_b = decompositions(b_mask)
    named_a = (mask_of((1, 3, 7)), mask_of((3, 5, 7)))
    named_b = (mask_of((1, 3, 8)), mask_of((1, 5, 8)))
    meet_a = named_a[0] & named_a[1]
    meet_b = named_b[0] & named_b[1]
    meets_differ = base.block_of[meet_a] != base.block_of[meet_b]
    certificate = (
        set(named_a) <= orbit_o and set(named_b) <= orbit_o
        and len(dec_a) == 1 and tuple(sorted(named_a)) == dec_a[0]
        and len(dec_b) == 1 and tuple(sorted(named_b)) == dec_b[0]
        and meet_a == mask_of((3, 7)) and meet_b == mask_of((1, 8))
        and meets_differ
    )
    report = CounterexampleReport(
        group_order=gamma.order,
        strongly_regular=srp.ok,
        goa_closed=goa.closed,
        orbit_realizable=realizable,
        decompositions_a=dec_a,
        decompositions_b=dec_b,
        meet_blocks_differ=meets_differ,
        certificate_ok=certificate,
    )
    return merged, report
