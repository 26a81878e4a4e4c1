"""Deciding orbit realizability, exhaustive search for strongly regular
partitions, and the order-8 merged partition that is strongly regular
but not the orbit partition of any permutation group.
"""

import time
from dataclasses import dataclass, field

from goa.errors import InputError, VerificationFailure, budget_deadline
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


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def enumerate_strongly_regular(g: GroundSet, budget_seconds=None):
    """All strongly regular partitions of the powerset, as
    (partitions, completed) with completed False on budget exhaustion.

    Search is level by level: a set partition of the size-k layer forces
    the size-(n-k) layer through complementation; the middle layer (even
    n) must itself be complement-closed.  Each candidate (the fixed blocks
    plus the new ones) gets one downward_counts table, and passes axiom 3
    iff every member of each block has its first member's word: fields of
    larger blocks are 0 and of same-size blocks [a in y], so only smaller
    blocks can differ.  That table is handed down: two sets of the next
    layer may share a block only if their words (and their complements')
    agree.  Supports n <= 5; n = 5 completes in about 3 s with 93
    partitions, well inside its default 300 s budget.
    A budget, when given, must be a positive number of seconds.
    """
    n = g.n
    if n > 5:
        raise InputError("strongly regular enumeration supports n <= 5")
    if n == 5 and budget_seconds is None:
        budget_seconds = 300.0
    deadline = budget_deadline(budget_seconds)
    levels = [enumerate_by_size(g, k) for k in range(n + 1)]
    full = g.full_mask
    results = []
    state = {"complete": True}

    def layer_partitions(k, table):
        classes = {}
        for m in levels[k]:
            classes.setdefault((table[m], table[m ^ full]), []).append(m)
        class_lists = sorted(classes.values())

        def rec(idx):
            if idx == len(class_lists):
                yield []
                return
            for head in _set_partitions(class_lists[idx]):
                for tail in rec(idx + 1):
                    yield head + tail

        yield from rec(0)

    def recurse(k, fixed, table):
        if deadline is not None and time.monotonic() > deadline:
            state["complete"] = False
            return
        if k > n - k:
            part = Partition.from_blocks(g, fixed)
            if not verify_strongly_regular(part).ok:
                raise VerificationFailure("search produced a non-strongly-regular partition")
            results.append(part)
            return
        for blocks_k in layer_partitions(k, table):
            if deadline is not None and time.monotonic() > deadline:
                state["complete"] = False
                return
            comps = [[m ^ full for m in b] for b in blocks_k]
            if k < n - k:
                candidate = fixed + blocks_k + comps
            elif set(map(frozenset, comps)) == set(map(frozenset, blocks_k)):
                candidate = fixed + blocks_k
            else:
                continue
            counts, _ = downward_counts(candidate, n)
            if all(counts[m] == counts[b[0]] for b in candidate for m in b):
                recurse(k + 1, candidate, counts)

    recurse(0, [], downward_counts([], n)[0])
    results.sort(key=lambda p: (len(p.blocks), p.blocks))
    return results, state["complete"]


COUNTEREXAMPLE_GENERATORS = ("(1,2)(3,4)", "(5,6)(7,8)",
                             "(1,3,2,4)(5,7,6,8)", "(1,5)(2,6)(3,7)(4,8)")
COUNTEREXAMPLE_MERGE = ((1, 3, 5, 7), (1, 3, 5, 8))


@dataclass
class CounterexampleReport:
    group_order: int
    strongly_regular: bool
    goa_closed: bool
    orbit_realizable: bool
    decompositions_a: list = field(default_factory=list)   # unordered pairs with union = set 1
    decompositions_b: list = field(default_factory=list)
    meet_blocks_differ: bool = False
    certificate_ok: bool = False

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
