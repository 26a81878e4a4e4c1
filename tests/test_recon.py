import random

import pytest

from conftest import random_group
from goa import GroundSet
from goa.errors import InputError
from goa.partition import Partition, coeff_matrix, upward_count
from goa.perms import PermGroup, close_generators, orbit_partition, parse_permutation
from goa.recon import (acts_freely, deck, e_block_entry,
                       exact_intersection_counts, intersection_difference_rule,
                       intersection_sum_rule, kelly_check, lovasz_check,
                       lovasz_tight_instance, maynard_siemons_index, muller_check,
                       reconstruction_pairs)
from goa.srp import build_counterexample
from goa.subsets import mask_of, popcount


def brute_deck(p, i):
    """Independent deck: count subsets of a representative directly."""
    a = p.blocks[i][0]
    k = popcount(a)
    rows = {}
    for j, block in enumerate(p.blocks):
        if popcount(block[0]) < k and p.member_size(j) is not None:
            rows[j] = sum(1 for b in block if b & a == b)
    return rows


def test_deck_example(example_partition):
    d = deck(example_partition, 4)     # block {1,3},{2,3}
    assert d.smaller_blocks == (0, 1, 2)
    assert d.entries == (1, 1, 1)
    assert deck(example_partition, 0).entries == ()
    top = deck(example_partition, 5)
    assert top.smaller_blocks == (0, 1, 2, 3, 4)


def test_deck_matches_brute_force():
    rng = random.Random(2)
    parts = [orbit_partition(random_group(rng, rng.randint(3, 6))) for _ in range(6)]
    parts += [orbit_partition(lovasz_tight_instance(r)[0]) for r in range(3, 7)]
    for part in parts:
        m = part.matrix
        for i in range(m.s):
            d = deck(part, i)
            brute = brute_deck(part, i)
            assert dict(zip(d.smaller_blocks, d.entries)) == brute


def test_example_pairs_only_at_singletons(example_partition):
    # the two singleton-level blocks share the forced trivial deck [1]
    assert [(q.a, q.b) for q in reconstruction_pairs(example_partition, 1)] == [(1, 2)]
    for k in (0, 2, 3):
        assert reconstruction_pairs(example_partition, k) == []


def test_tight_instance_r2():
    group, a, b = lovasz_tight_instance(2)
    assert group.order == 2
    part = orbit_partition(group)
    pairs = reconstruction_pairs(part, 2)
    blocks = {frozenset((q.a, q.b)) for q in pairs}
    assert frozenset((part.block_of[a], part.block_of[b])) in blocks
    assert set(part.blocks[part.block_of[a]]) == {mask_of([1, 4]), mask_of([2, 3])}
    assert set(part.blocks[part.block_of[b]]) == {mask_of([1, 3]), mask_of([2, 4])}


@pytest.mark.parametrize("r,pad", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
def test_tight_instance_guarantees(r, pad):
    group, a, b = lovasz_tight_instance(r, pad)
    assert group.order == 2 ** (r - 1)
    assert popcount(a) == popcount(b) == r
    part = orbit_partition(group)
    assert part.block_of[a] != part.block_of[b]


def test_tight_instance_rejects_small_r():
    with pytest.raises(InputError):
        lovasz_tight_instance(1)


def test_kelly_check_examples(example_partition):
    m = example_partition.matrix
    assert kelly_check(example_partition, 3, 1)   # 2*1 = 1+1 on A={1,2}
    for i in range(m.s):
        for j in range(m.s):
            if m.member_sizes[j] < m.member_sizes[i]:
                assert kelly_check(example_partition, i, j)


def test_kelly_check_exhaustive_random():
    rng = random.Random(6)
    for _ in range(6):
        part = orbit_partition(random_group(rng, rng.randint(3, 6)))
        m = part.matrix
        for i in range(m.s):
            for j in range(m.s):
                if m.member_sizes[j] < m.member_sizes[i]:
                    kelly_check(part, i, j)


def test_lovasz_on_random_groups():
    rng = random.Random(10)
    for _ in range(12):
        part = orbit_partition(random_group(rng, rng.randint(4, 7)))
        lovasz_check(part)    # raises on any pair above n/2


def test_lovasz_mechanism_on_tight_pair():
    group, a, b = lovasz_tight_instance(3)
    part = orbit_partition(group)
    pairs = lovasz_check(part)[3]     # raises unless the mechanism gives (-1)^3
    assert any({q.a, q.b} == {part.block_of[a], part.block_of[b]} for q in pairs)


def test_tight_pair_padded_persists():
    group, a, b = lovasz_tight_instance(3, pad=1)
    part = orbit_partition(group)
    pairs = reconstruction_pairs(part, 3)
    assert any({q.a, q.b} == {part.block_of[a], part.block_of[b]} for q in pairs)


def test_muller_equality_on_tight_r3():
    group, a, b = lovasz_tight_instance(3)
    part = orbit_partition(group)
    pair = next(q for q in reconstruction_pairs(part, 3)
                if {q.a, q.b} == {part.block_of[a], part.block_of[b]})
    rows = muller_check(part, pair)
    empty_block = part.block_of[0]
    row = next(r for r in rows if r[0] == empty_block)
    assert row[1] == 4 == row[2]     # 2^(3-1) = orbit size, equality
    # orbit of A is the four stated sets
    assert set(part.blocks[part.block_of[a]]) == {
        mask_of([1, 4, 6]), mask_of([2, 3, 6]), mask_of([2, 4, 5]), mask_of([1, 3, 5])}


def test_muller_proof_scope_is_necessary():
    # blocks whose members never occur inside A fall outside the proof
    # scope, and there the unrestricted bound genuinely fails (1 > 0);
    # muller_check must flag them rather than assert them
    group, a, b = lovasz_tight_instance(3)
    part = orbit_partition(group)
    pair = next(q for q in reconstruction_pairs(part, 3)
                if {q.a, q.b} == {part.block_of[a], part.block_of[b]})
    rows = muller_check(part, pair)
    assert any(not scope and bound > up for _, bound, up, scope in rows)
    assert all(bound <= up for _, bound, up, scope in rows if scope)


def test_muller_holds_on_all_found_pairs():
    rng = random.Random(14)
    for _ in range(8):
        part = orbit_partition(random_group(rng, rng.randint(4, 6)))
        m = part.matrix
        for k in sorted(set(m.member_sizes)):
            for pair in reconstruction_pairs(part, k):
                muller_check(part, pair)


def test_muller_upward_counts_match_direct_count():
    # muller_check reads each upward count from the matrix in complement
    # form; upward_count counts member pairs directly
    parts = [orbit_partition(lovasz_tight_instance(r)[0]) for r in (3, 4, 5)]
    parts.append(build_counterexample()[0])
    checked = 0
    for part in parts:
        for pairs in lovasz_check(part).values():
            for pair in pairs:
                for j, _, up, _ in muller_check(part, pair):
                    assert up == upward_count(part, j, pair.a)
                    checked += 1
    assert checked > 0


def test_e_block_entries_match_brute_force():
    rng = random.Random(20)
    parts = [orbit_partition(random_group(rng, rng.randint(3, 5))) for _ in range(4)]
    parts += [orbit_partition(lovasz_tight_instance(r)[0]) for r in (3, 4)]
    parts.append(build_counterexample()[0])
    for part in parts:
        m = part.matrix
        for i in range(m.s):
            for j in range(m.s):
                for r in range(min(m.member_sizes[i], m.member_sizes[j]) + 1):
                    e_block_entry(part, i, j, r)   # self-checking
    # n = 10: the r = 0 operator vanishes on each level above n/2
    # (pigeonhole); every r there would take seconds
    part = orbit_partition(lovasz_tight_instance(5)[0])
    sizes = part.matrix.member_sizes
    for i in range(part.matrix.s):
        for j in range(part.matrix.s):
            if sizes[i] == sizes[j] and 2 * sizes[i] > part.g.n:
                assert e_block_entry(part, i, j, 0) == 0


def test_intersection_census_trivial_partition():
    g = GroundSet(2)
    p = Partition.from_blocks(g, [[m] for m in g.masks()])
    m = p.matrix
    a = mask_of([1])
    b_block = p.block_of[mask_of([1])]
    assert exact_intersection_counts(p, a, b_block, p.block_of[0]) == 0
    assert exact_intersection_counts(p, a, b_block, b_block) == 1


def test_intersection_rules_on_tight_instance():
    group, a, b = lovasz_tight_instance(3)
    part = orbit_partition(group)
    m = part.matrix
    pair = next(q for q in reconstruction_pairs(part, 3)
                if {q.a, q.b} == {part.block_of[a], part.block_of[b]})
    for t in range(m.s):
        intersection_sum_rule(part, a, pair.a, t)
        if m.member_sizes[t] <= 3:
            intersection_difference_rule(part, pair, t)
    empty = part.block_of[0]
    # difference at the empty pattern block is (-1)^3 * 1
    lhs = (exact_intersection_counts(part, a, pair.a, empty)
           - exact_intersection_counts(part, b, pair.a, empty))
    assert lhs == -1


def test_free_index_cycles():
    for p in (5, 7):
        g = GroundSet(p)
        cycle = tuple(list(range(2, p + 1)) + [1])
        group = close_generators(g, [cycle])
        assert acts_freely(group)
        assert acts_freely(PermGroup(g, (cycle,)))   # generators only
        assert maynard_siemons_index(group) <= 5


def test_acts_freely_stops_closing_past_n():
    g = GroundSet(10)
    s10 = PermGroup(g, (parse_permutation("(1,2)", g),
                        parse_permutation("(1,2,3,4,5,6,7,8,9,10)", g)))
    assert not acts_freely(s10)
    assert s10._elements is None


def test_coeff_matrix_built_once_per_partition(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return coeff_matrix(p)

    monkeypatch.setattr("goa.partition.coeff_matrix", counting)
    group, a, b = lovasz_tight_instance(3)
    part = orbit_partition(group)
    calls.clear()
    pair = next(q for q in reconstruction_pairs(part, 3)
                if {q.a, q.b} == {part.block_of[a], part.block_of[b]})
    deck(part, pair.a)
    lovasz_check(part)
    muller_check(part, pair)
    upward_count(part, 0, pair.a)
    e_block_entry(part, pair.a, pair.b, 0)
    assert len(calls) == 1 and calls[0] is part
    # an equal but distinct partition object builds its own matrix
    orbit_partition(group).matrix
    assert len(calls) == 2


def test_free_index_trivial_group():
    group = close_generators(GroundSet(3), [])
    # singletons of a trivial group are mutual reconstructions, so the
    # index is 2: every set of size >= 2 is reconstructible
    assert maynard_siemons_index(group) == 2


def test_free_index_rejects_nonfree():
    g = GroundSet(3)
    group = close_generators(g, [parse_permutation("(1,2)", g)])
    with pytest.raises(InputError):
        maynard_siemons_index(group)
