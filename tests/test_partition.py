import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group
from goa import GroundSet, Partition
from goa.errors import InputError
from goa.operators import e_klr, epsilon_map
from goa.partition import (coeff_matrix, format_partition, merge_blocks, mnukhin_check,
                           parse_partition_text, partition_from_polys,
                           structure_constants, upward_count, verify_goa_closure,
                           verify_strongly_regular)
from goa.perms import orbit_partition
from goa.poly import EPS, Poly
from goa.incidence import signature_of
from goa.subsets import format_subset, mask_of, popcount, submasks


def cardinality_partition(g):
    by_size = {}
    for m in g.masks():
        by_size.setdefault(popcount(m), []).append(m)
    return Partition.from_blocks(g, list(by_size.values()))


def singletons_partition(g):
    return Partition.from_blocks(g, [[m] for m in g.masks()])


@st.composite
def partitions(draw, max_n=6):
    """Any partition of the powerset of a ground set with n <= max_n."""
    g = GroundSet(draw(st.integers(min_value=1, max_value=max_n)))
    labels = draw(st.lists(st.integers(min_value=0, max_value=5),
                           min_size=g.size, max_size=g.size))
    blocks = {}
    for m, label in enumerate(labels):
        blocks.setdefault(label, []).append(m)
    return Partition.from_blocks(g, list(blocks.values()))


# -- block values -------------------------------------------------------------

def brute_force_block_values(part, vec):
    scan = [i for i, block in enumerate(part.blocks) if len({vec[m] for m in block}) > 1]
    return [vec[block[0]] for block in part.blocks], (scan[0] if scan else None)


@given(partitions(), st.data())
@settings(max_examples=150, deadline=None)
def test_block_values_matches_brute_force_scan(part, data):
    # constant vectors, block-constant vectors, and ones with a few changed entries
    vec = [data.draw(st.integers(-2, 2)) for _ in part.blocks]
    vec = [vec[b] for b in part.block_of]
    for m in data.draw(st.lists(st.integers(0, part.g.size - 1), max_size=3)):
        vec[m] = data.draw(st.integers(-2, 2))
    assert part.block_values(tuple(vec)) == brute_force_block_values(part, vec)


def test_block_values_edge_cases(g3):
    one_block = Partition.from_blocks(g3, [list(g3.masks())])
    # itemgetter of one index returns a bare item, not a 1-tuple
    for vec in ([5] * 8, (5,) * 8, [(1, 2)] * 8, [0] * 7 + [1], (0,) * 7 + (1,)):
        assert one_block.block_values(vec) == brute_force_block_values(one_block, vec)
    assert one_block.block_values([(1, 2)] * 8) == ([(1, 2)], None)
    levels = cardinality_partition(g3)
    levels.block_values([popcount(m) for m in g3.masks()])
    getters = levels._getters
    # different vectors on one partition reuse the getters of the first call
    for vec in ([1, 2, 2, 3, 2, 3, 3, 9], tuple(-popcount(m) for m in g3.masks()),
                [0, 1, 1, 2, 2, 2, 2, 3]):
        values, bad = levels.block_values(vec)
        assert (values, bad) == brute_force_block_values(levels, vec)
        assert type(values) is list
        assert levels._getters is getters
    assert levels.block_values([0, 1, 1, 2, 2, 2, 2, 3])[1] == 1   # mask 4 = {3} holds 2


@st.composite
def byte_vectors(draw):
    """(partition, entries in 0..255): up to 256 blocks at n <= 8, or 257 to
    1024 blocks at n = 9, 10 (the grouped translate route); the entries are
    constant on every block, constant everywhere, or either with a few
    entries changed."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        s = draw(st.integers(1, min(256, 1 << n)))
    else:
        n = draw(st.integers(9, 10))
        s = draw(st.integers(257, 1 << n))
    labels = list(range(s)) + [rng.randrange(s) for _ in range((1 << n) - s)]
    rng.shuffle(labels)
    blocks = {}
    for m, label in enumerate(labels):
        blocks.setdefault(label, []).append(m)
    part = Partition.from_blocks(GroundSet(n), list(blocks.values()))
    top = draw(st.sampled_from([0, 1, 255]))
    values = [rng.randint(0, top) for _ in range(s)]
    vec = [values[b] for b in part.block_of]
    for _ in range(draw(st.integers(0, 3))):
        vec[rng.randrange(1 << n)] = rng.randint(0, 255)
    return part, vec


@given(byte_vectors())
@settings(max_examples=120, deadline=None)
def test_block_values_on_bytes_match_the_tuple_route(part_vec):
    part, vec = part_vec
    expected = brute_force_block_values(part, vec)
    assert part.block_values(tuple(vec)) == expected
    assert part.block_values(bytes(vec)) == expected
    low, groups = part._byte_spread            # the translate route ran
    assert len(groups) == (0 if len(part) <= 256 else (len(part) + 255) // 256)
    values = [vec[b[0]] for b in part.blocks]
    assert part._spread_bytes(values) == bytes(values[b] for b in part.block_of)
    # one entry changed at each end of the vector
    for m in (0, len(vec) - 1):
        changed = vec[:m] + [vec[m] ^ 1] + vec[m + 1:]
        assert part.block_values(bytes(changed)) == brute_force_block_values(part, changed)


def test_block_values_past_the_translate_cap_take_the_itemgetter(monkeypatch):
    from goa import partition
    monkeypatch.setattr(partition, "BYTE_SPREAD_MAX_BLOCKS", 256)
    rng = random.Random(22)
    g = GroundSet(9)
    masks = list(g.masks())
    rng.shuffle(masks)
    part = Partition.from_blocks(g, [masks[i::300] for i in range(300)])
    values = [rng.randrange(256) for _ in range(300)]
    vec = [values[b] for b in part.block_of]
    assert part.block_values(bytes(vec)) == (values, None)
    i = next(i for i, block in enumerate(part.blocks) if len(block) > 1)
    vec[part.blocks[i][1]] ^= 1
    assert part.block_values(bytes(vec)) == brute_force_block_values(part, vec)
    assert part.block_values(bytes(vec))[1] == i
    assert part._byte_spread is None


def test_closure_and_cross_check_images_reach_block_values_as_bytes(monkeypatch):
    # the packed hot path on the n = 9 tight orbit partition: every closure
    # image and every coefficient-matrix cross-check image stays bytes from
    # Poly.block_sum to Partition.block_values; only the downward_counts
    # table of the axiom-3 test is a list
    from goa.recon import lovasz_tight_instance
    part = orbit_partition(lovasz_tight_instance(4, pad=1)[0])
    s = len(part)
    assert s == 164
    seen = []
    real = Partition.block_values

    def spy(self, vec):
        seen.append(type(vec))
        return real(self, vec)

    monkeypatch.setattr(Partition, "block_values", spy)
    assert verify_goa_closure(part).closed
    assert seen == [bytes] * (2 * s + s * (s + 1) // 2) and len(seen) == 13858
    del seen[:]
    coeff_matrix(part)
    assert seen == [list] + [bytes] * s


# -- axioms ----------------------------------------------------------------

def test_example_is_strongly_regular(example_partition):
    rep = verify_strongly_regular(example_partition)
    assert rep.ok
    assert rep.comp_map == (5, 4, 3, 2, 1, 0)


def test_singletons_are_strongly_regular(g3):
    assert verify_strongly_regular(singletons_partition(g3)).ok


def test_repeated_member_in_one_block_rejected():
    g = GroundSet(2)
    with pytest.raises(InputError, match="twice in one block"):
        Partition.from_blocks(g, [[0], [mask_of([1]), mask_of([2]), mask_of([1])], [g.full_mask]])


def test_mixed_sizes_fail_axiom_one():
    g = GroundSet(2)
    p = Partition.from_blocks(g, [[0, mask_of([1])], [mask_of([2]), mask_of([1, 2])]])
    rep = verify_strongly_regular(p)
    assert not rep.size_homogeneous
    assert rep.witness[0] == "axiom-1"
    # axioms 1 and 2 both fail: the witness is axiom 1's
    p = Partition.from_blocks(g, [[0, mask_of([1])], [mask_of([2])], [mask_of([1, 2])]])
    rep = verify_strongly_regular(p)
    assert not rep.size_homogeneous and not rep.complement_closed
    assert rep.witness[0] == "axiom-1"


def test_complement_axiom_failure():
    g = GroundSet(2)
    p = Partition.from_blocks(g, [[0], [mask_of([1])], [mask_of([2]), mask_of([1, 2])]])
    rep = verify_strongly_regular(p)
    assert not rep.size_homogeneous or not rep.complement_closed


def test_axiom_three_witness():
    g = GroundSet(3)
    # size-homogeneous, complement-closed, but counts differ:
    # pair {1},{2} against the split 2-sets
    p = Partition.from_blocks(g, [
        [0], [mask_of([1]), mask_of([2])], [mask_of([3])],
        [mask_of([1, 3])], [mask_of([2, 3]), mask_of([1, 2])],
        [mask_of([1, 2, 3])]])
    rep = verify_strongly_regular(p)
    assert rep.size_homogeneous and not rep.ok
    # axioms 2 and 3 both fail: the witness is axiom 2's
    assert not rep.complement_closed and not rep.counts_constant
    assert rep.witness == ("axiom-2", 1)


def homogeneous_complement_closed(draw_int, n):
    """Random blocks that satisfy axioms 1 and 2: each level below the
    middle is split at random and mirrored by complements; the middle
    level of an even n is split into complement-closed groups."""
    g = GroundSet(n)
    full = g.full_mask
    blocks = []
    for k in range(n // 2 + 1):
        middle = 2 * k == n
        label, groups = {}, {}
        for m in (m for m in g.masks() if popcount(m) == k):
            key = min(m, m ^ full) if middle else m
            if key not in label:
                label[key] = draw_int(0, 2)
            groups.setdefault(label[key], []).append(m)
        blocks += groups.values()
        if not middle:
            blocks += [[m ^ full for m in b] for b in groups.values()]
    return Partition.from_blocks(g, blocks)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=150, deadline=None)
def test_axiom_three_witness_is_first_failure_in_row_major_order(n, data):
    part = homogeneous_complement_closed(
        lambda lo, hi: data.draw(st.integers(lo, hi)), n)
    # oracle: count members of each block below a mask by submask enumeration
    rows = [[sum(1 for sub in submasks(a) if part.block_of[sub] == j)
             for j in range(len(part.blocks))] for a in range(part.g.size)]
    expected = None
    for i, block in enumerate(part.blocks):
        first = rows[block[0]]
        a = next((a for a in block[1:] if rows[a] != first), None)
        if a is not None:
            j = next(j for j in range(len(first)) if first[j] != rows[a][j])
            expected = ("axiom-3", i, j, format_subset(block[0]), format_subset(a),
                        first[j], rows[a][j])
            break
    rep = verify_strongly_regular(part)
    assert rep.size_homogeneous and rep.complement_closed
    assert rep.witness == expected
    assert rep.counts_constant == (expected is None)
    if expected is None:
        assert tuple(map(tuple, rep.counts)) == tuple(tuple(rows[b[0]]) for b in part.blocks)


# -- coefficient matrix -----------------------------------------------------

def test_coeff_matrix_example_entries(example_partition):
    m = example_partition.matrix
    pair_block = 1     # {1},{2}
    top_pair = 3       # {1,2}
    assert m.entries[top_pair][pair_block] == 2
    assert all(row[0] == 1 for row in m.entries)
    assert all(m.entries[0][j] == 0 for j in range(1, m.s))


@pytest.mark.parametrize("n, code", [(9, "B"), (11, "H")])
def test_size_level_rows_are_binomials_in_packed_fields(n, code):
    # at n = 11 the largest level has C(11,5) = 462 members: 2-byte fields
    part = cardinality_partition(GroundSet(n))
    rows = verify_strongly_regular(part).counts
    assert all(isinstance(row, memoryview) and row.format == code for row in rows)
    m = part.matrix
    assert all(m.entries[k][j] == comb(k, j) for k in range(n + 1) for j in range(n + 1))
    assert mnukhin_check(part, 2)


def test_coeff_matrix_requires_srp():
    g = GroundSet(2)
    p = Partition.from_blocks(g, [[0, mask_of([1])], [mask_of([2]), mask_of([1, 2])]])
    with pytest.raises(InputError):
        coeff_matrix(p)
    with pytest.raises(InputError):
        p.matrix


def test_coeff_row_sums_are_binomials():
    rng = random.Random(2)
    for _ in range(6):
        part = orbit_partition(random_group(rng, rng.randint(3, 6)))
        m = part.matrix
        for i in range(m.s):
            for k in range(m.member_sizes[i] + 1):
                total = sum(m.entries[i][j] for j in range(m.s) if m.member_sizes[j] == k)
                from math import comb
                assert total == comb(m.member_sizes[i], k)


def test_upward_count_example(example_partition):
    m = example_partition.matrix
    assert upward_count(example_partition, 1, 3) == 1     # {1} below {1,2}
    assert upward_count(example_partition, 0, 4) == 2     # {} below both 2-sets
    for i in range(m.s):
        assert upward_count(example_partition, i, i) == 1


def test_upward_count_three_routes_on_random_orbits():
    rng = random.Random(5)
    for _ in range(5):
        part = orbit_partition(random_group(rng, rng.randint(3, 5)))
        m = part.matrix
        for i in range(m.s):
            for j in range(m.s):
                upward_count(part, i, j)   # raises on any route disagreement


def test_counting_relation():
    # |orbit_i| * upward(i -> j) = |orbit_j| * downward(j -> i)
    rng = random.Random(8)
    for _ in range(5):
        part = orbit_partition(random_group(rng, rng.randint(3, 6)))
        m = part.matrix
        for i in range(m.s):
            for j in range(m.s):
                up = m.entries[m.comp_map[i]][m.comp_map[j]]
                assert m.orbit_sizes[i] * up == m.orbit_sizes[j] * m.entries[j][i]


# -- closure ----------------------------------------------------------------

def test_example_closure(example_partition):
    assert verify_goa_closure(example_partition).closed


def test_cardinality_partition_closed():
    for n in (2, 3, 4):
        assert verify_goa_closure(cardinality_partition(GroundSet(n))).closed


def test_split_one_merge_other_not_closed():
    g = GroundSet(2)
    p = Partition.from_blocks(g, [[0, mask_of([1, 2])], [mask_of([1])], [mask_of([2])]])
    rep = verify_goa_closure(p)
    assert not rep.closed


def test_closure_matches_axioms_on_negatives():
    rng = random.Random(13)
    found = 0
    while found < 12:
        n = rng.randint(2, 4)
        g = GroundSet(n)
        masks = list(g.masks())
        rng.shuffle(masks)
        cuts = sorted(rng.sample(range(1, g.size), rng.randint(1, g.size - 1)))
        blocks, prev = [], 0
        for c in cuts + [g.size]:
            blocks.append(masks[prev:c])
            prev = c
        p = Partition.from_blocks(g, blocks)
        srp = verify_strongly_regular(p).ok
        goa = verify_goa_closure(p).closed
        assert srp == goa
        if not srp:
            found += 1


# -- structure constants -----------------------------------------------------

def test_structure_constants_hand_example(example_partition):
    # (x1+x2)^2 = (x1+x2) + 2 x1x2
    vec = structure_constants(example_partition, 1, 1)
    assert vec == (0, 1, 0, 2, 0, 0)


def test_structure_constants_unit_and_top(example_partition):
    m = example_partition.matrix
    for i in range(m.s):
        vec = structure_constants(example_partition, 0, i)
        assert vec == tuple(1 if j == i else 0 for j in range(m.s))
    assert structure_constants(example_partition, 5, 5) == (0, 0, 0, 0, 0, 1)


def test_structure_constants_match_direct_multiplication():
    rng = random.Random(21)
    for _ in range(4):
        part = orbit_partition(random_group(rng, rng.randint(3, 5)))
        m = part.matrix
        for i in range(m.s):
            for j in range(i, m.s):
                structure_constants(part, i, j)   # raises on route mismatch


# -- matrix power law ---------------------------------------------------------

def test_power_law_small_cases(example_partition):
    for m in (1, 2, 3, -1, -2):
        assert mnukhin_check(example_partition, m)


def test_power_law_rejects_zero(example_partition):
    with pytest.raises(InputError):
        mnukhin_check(example_partition, 0)


def test_power_law_square_by_hand(example_partition):
    cm = example_partition.matrix
    from goa.linalg import mat_mul
    sq = mat_mul([list(r) for r in cm.entries], [list(r) for r in cm.entries])
    for i in range(cm.s):
        for j in range(cm.s):
            expected = cm.entries[i][j] * Fraction(2) ** (cm.member_sizes[i] - cm.member_sizes[j]) \
                if cm.entries[i][j] else 0
            assert sq[i][j] == expected


# -- merging and rebuilding ----------------------------------------------------

def test_merge_blocks(g3):
    p = singletons_partition(GroundSet(2))
    merged = merge_blocks(p, 1, 2)
    assert len(merged.blocks) == 3
    with pytest.raises(InputError):
        merge_blocks(p, 1, 1)


def test_merge_mixed_sizes_warns():
    p = singletons_partition(GroundSet(2))
    with pytest.warns(UserWarning):
        merge_blocks(p, 0, 1)


def test_random_merges_usually_break_regularity(example_partition):
    # same-size merge that breaks complement closure
    broken = merge_blocks(example_partition, 1, 2)
    assert not verify_strongly_regular(broken).ok


def test_partition_from_example_polys(g3, example_partition):
    x = lambda *e: Poly.term(g3, mask_of(e))
    basis = [Poly.one(g3), x(1) + x(2), x(3), x(1, 2), x(1, 3) + x(2, 3), x(1, 2, 3)]
    assert partition_from_polys(basis) == example_partition


def test_partition_from_constant(g3):
    assert len(partition_from_polys([Poly.one(g3)]).blocks) == 1


def test_partition_from_indicators(g3):
    eps = [epsilon_map(Poly.term(g3, a)) for a in g3.masks()]
    assert partition_from_polys(eps) == singletons_partition(g3)


# -- operator stability of blocks ---------------------------------------------

def test_intersection_operators_stabilize_blocks():
    rng = random.Random(34)
    for _ in range(3):
        n = rng.randint(3, 6)
        part = orbit_partition(random_group(rng, n))
        g = part.g
        for k in range(n + 1):
            for l in range(n + 1):
                for r in range(max(0, k + l - n), min(k, l) + 1):
                    op = e_klr(g, k, l, r)
                    for i in range(len(part.blocks)):
                        image = op(part.block_poly(i))
                        assert part.block_values(image.to_basis(EPS).coeffs)[1] is None


def test_triple_intersection_counts_constant():
    # for every realized 3-set intersection pattern and block pair (i,j),
    # the number of (A,B) completing C is the same for all C in C's block
    rng = random.Random(55)
    for n in (4, 5):
        part = orbit_partition(random_group(rng, n))
        g = part.g

        def census(c):
            d = {}
            for a in g.masks():
                for b in g.masks():
                    sig = signature_of(g, (a, b, c))
                    key = (sig.values, part.block_of[a], part.block_of[b])
                    d[key] = d.get(key, 0) + 1
            return d

        for block in part.blocks:
            reference = census(block[0])
            for c in block[1:]:
                assert census(c) == reference


def test_livingstone_wagner_profile():
    rng = random.Random(89)
    for _ in range(6):
        n = rng.randint(3, 7)
        part = orbit_partition(random_group(rng, n))
        level_counts = {}
        for i in range(len(part.blocks)):
            k = part.member_size(i)
            level_counts[k] = level_counts.get(k, 0) + 1
        for k in range(0, (n + 1) // 2):
            assert level_counts.get(k + 1, 0) >= level_counts.get(k, 0)


# -- file format ----------------------------------------------------------------

def test_partition_file_round_trip(example_partition):
    assert parse_partition_text(format_partition(example_partition)) == example_partition


def test_partition_file_example():
    p = parse_partition_text("n 2\n-\n1 ; 2\n1 2\n")
    assert len(p.blocks) == 3


def test_partition_file_errors():
    with pytest.raises(InputError, match="cover"):
        parse_partition_text("n 2\n-\n1\n1 2\n")
    with pytest.raises(InputError, match="line 3"):
        parse_partition_text("n 2\n-\n1 3\n")
    with pytest.raises(InputError, match="two blocks"):
        parse_partition_text("n 1\n-\n- ; 1\n")
    with pytest.raises(InputError, match="header"):
        parse_partition_text("- ; 1\n")
    with pytest.raises(InputError, match="line 2: empty subset"):
        parse_partition_text("n 1\n1 ;\n")     # trailing ';' is not {-, 1}
