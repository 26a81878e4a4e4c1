import pytest

from goa import GroundSet, Partition
from goa.errors import InputError, VerificationFailure
from goa.partition import verify_goa_closure, verify_strongly_regular
from goa.perms import close_generators, orbit_partition, parse_permutation
from goa.srp import (build_counterexample, enumerate_strongly_regular,
                     is_orbit_partition)
from goa.subsets import downward_counts, mask_of, popcount


def test_example_partition_is_realizable(example_partition):
    flag, witness = is_orbit_partition(example_partition)
    assert flag
    assert witness.order == 2


def test_cardinality_partition_is_realizable():
    g = GroundSet(4)
    by_size = {}
    for m in g.masks():
        by_size.setdefault(popcount(m), []).append(m)
    p = Partition.from_blocks(g, list(by_size.values()))
    flag, witness = is_orbit_partition(p)
    assert flag and witness.order == 24


def test_non_realizable_regular_looking_partition():
    # splitting one middle orbit breaks realizability
    g = GroundSet(3)
    p = Partition.from_blocks(g, [
        [0], [mask_of([1]), mask_of([2]), mask_of([3])],
        [mask_of([1, 2])], [mask_of([1, 3]), mask_of([2, 3])],
        [mask_of([1, 2, 3])]])
    flag, _ = is_orbit_partition(p)
    assert not flag


def test_enumeration_small_counts():
    assert len(enumerate_strongly_regular(GroundSet(1))[0]) == 1
    for n, count in ((2, 2), (3, 5), (4, 22)):
        parts, complete = enumerate_strongly_regular(GroundSet(n))
        assert complete and len(parts) == count


def test_enumeration_everything_verifies_and_realizes():
    for n in (2, 3, 4):
        parts, complete = enumerate_strongly_regular(GroundSet(n))
        assert complete
        for p in parts:
            assert verify_strongly_regular(p).ok
            assert is_orbit_partition(p)[0]


def restricted_growth_strings(length):
    """Every a_0..a_{length-1} with a_0 = 0 and a_i <= 1 + max(a_0..a_{i-1}):
    one string per set partition of range(length)."""
    def extend(prefix, top):
        if len(prefix) == length:
            yield prefix
            return
        for label in range(top + 2):
            yield from extend(prefix + [label], max(top, label))
    yield from extend([0], 0)


@pytest.mark.parametrize("n, bell", ((2, 15), (3, 4140)))
def test_enumeration_matches_brute_force(n, bell):
    # every set partition of the 2^n masks, kept when axioms 1-3 hold
    g = GroundSet(n)
    strings = list(restricted_growth_strings(g.size))
    assert len(strings) == bell
    brute = set()
    for labels in strings:
        blocks = {}
        for m, label in enumerate(labels):
            blocks.setdefault(label, []).append(m)
        p = Partition.from_blocks(g, list(blocks.values()))
        if verify_strongly_regular(p).ok:
            brute.add(p)
    parts, complete = enumerate_strongly_regular(g)
    assert complete
    assert len(parts) == len(set(parts))
    assert set(parts) == brute


def test_enumeration_tables_only_complement_closed_middle_layers(monkeypatch):
    # axiom 2 on the middle layer (even n) is tested before any table is
    # built: a middle block's complement is a block of the same candidate
    from goa import srp
    families = []

    def recording(blocks, n):
        families.append((n, [frozenset(b) for b in blocks]))
        return downward_counts(blocks, n)

    monkeypatch.setattr(srp, "downward_counts", recording)
    for n in (2, 4):
        enumerate_strongly_regular(GroundSet(n))
    middles = [({b for b in blocks if 2 * popcount(min(b)) == n}, (1 << n) - 1)
               for n, blocks in families]
    assert sum(len(middle) for middle, _ in middles) > 10
    for middle, full in middles:
        assert {frozenset(m ^ full for m in b) for b in middle} == middle


def test_enumeration_contains_example(example_partition):
    parts, _ = enumerate_strongly_regular(GroundSet(3))
    assert example_partition in parts


def test_enumeration_best_effort_at_five():
    # one level past the required range: grouping each layer by its
    # downward-count words finishes n=5 in seconds, and every partition
    # found is still realized by a group
    # (the count 93 is this run's finding, pinned as a regression value)
    parts, complete = enumerate_strongly_regular(GroundSet(5), budget_seconds=240)
    assert complete
    assert len(parts) == 93
    assert all(is_orbit_partition(p)[0] for p in parts)


def test_enumeration_budget_exhaustion_flag():
    parts, complete = enumerate_strongly_regular(GroundSet(5), budget_seconds=0.02)
    assert not complete


def test_enumeration_rejects_large():
    with pytest.raises(InputError):
        enumerate_strongly_regular(GroundSet(6))


def test_counterexample_headline():
    part, rep = build_counterexample()
    assert rep.group_order == 16
    assert rep.strongly_regular
    assert rep.goa_closed
    assert not rep.orbit_realizable
    assert rep.certificate_ok
    assert rep.ok
    assert verify_strongly_regular(part).ok
    assert verify_goa_closure(part).closed


def test_counterexample_certificate_details():
    part, rep = build_counterexample()
    assert rep.decompositions_a == [(mask_of([1, 3, 7]), mask_of([3, 5, 7]))]
    assert rep.decompositions_b == [(mask_of([1, 3, 8]), mask_of([1, 5, 8]))]
    assert rep.meet_blocks_differ
    # merged block really is the union of the two 4-set orbits
    merged_block = part.blocks[part.block_of[mask_of([1, 3, 5, 7])]]
    assert mask_of([1, 3, 5, 8]) in merged_block


def test_enumeration_cross_check_raises_not_asserts(monkeypatch):
    from goa.partition import SrpReport
    monkeypatch.setattr("goa.srp.verify_strongly_regular",
                        lambda p: SrpReport(True, True, False))
    with pytest.raises(VerificationFailure):
        enumerate_strongly_regular(GroundSet(2))


def test_counterexample_file_round_trip():
    from goa.partition import format_partition, parse_partition_text
    part, _ = build_counterexample()
    assert parse_partition_text(format_partition(part)) == part


def test_unmerged_orbit_partition_is_realizable():
    g = GroundSet(8)
    gens = [parse_permutation(t, g) for t in
            ("(1,2)(3,4)", "(5,6)(7,8)", "(1,3,2,4)(5,7,6,8)", "(1,5)(2,6)(3,7)(4,8)")]
    base = orbit_partition(close_generators(g, gens))
    flag, witness = is_orbit_partition(base)
    assert flag
    assert witness.order % 16 == 0
