import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group
from goa import GroundSet, Partition, merge_blocks, perms
from goa.errors import BudgetExceeded, InputError, VerificationFailure
from goa.perms import (PermGroup, _sims_filter, act_on_subset, action_table, close_generators,
                       compose, format_permutation, format_group, identity_perm,
                       orbit_partition, parse_group_text, parse_permutation,
                       partition_stabilizer)
from goa.subsets import mask_of, popcount


def test_parse_examples():
    g4 = GroundSet(4)
    assert parse_permutation("(1,2)(3,4)", g4) == (2, 1, 4, 3)
    assert parse_permutation("()", GroundSet(3)) == (1, 2, 3)
    assert parse_permutation("( )", GroundSet(3)) == (1, 2, 3)
    assert parse_permutation(" ( 1 , 2 ) (3,4) ", g4) == (2, 1, 4, 3)
    g8 = GroundSet(8)
    sigma = parse_permutation("(1,3,2,4)(5,7,6,8)", g8)
    assert sigma == (3, 4, 2, 1, 7, 8, 6, 5)


def test_parse_errors():
    g = GroundSet(4)
    for bad in ["(1,2)(2,3)", "(1,5)", "(1,2", "1,2", "(a,b)"]:
        with pytest.raises(InputError):
            parse_permutation(bad, g)
    # a point is one run of digits: '(1 2)' and '(1_2)' must not read as 12
    for n, bad in [(12, "(1 2)"), (10, "(1 0)"), (12, "(1_2)"), (4, "(1,2) x")]:
        with pytest.raises(InputError):
            parse_permutation(bad, GroundSet(n))


def test_format_round_trip():
    g = GroundSet(6)
    rng = random.Random(5)
    for _ in range(25):
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = tuple(images)
        assert parse_permutation(format_permutation(sigma), g) == sigma


def test_closure_examples():
    g6 = GroundSet(6)
    gens = [parse_permutation("(1,2)(3,4)", g6), parse_permutation("(1,2)(5,6)", g6)]
    assert close_generators(g6, gens).order == 4
    assert close_generators(GroundSet(3), []).order == 1
    grp = close_generators(GroundSet(3), [parse_permutation("(1,2)", GroundSet(3))])
    assert grp.order == 2
    assert identity_perm(3) in grp.elements


def test_closure_cap():
    g = GroundSet(5)
    gens = [parse_permutation("(1,2)", g), parse_permutation("(1,2,3,4,5)", g)]
    with pytest.raises(BudgetExceeded):
        close_generators(g, gens, cap=10)
    assert close_generators(g, gens).order == 120


def test_action_examples():
    g3 = GroundSet(3)
    assert act_on_subset(parse_permutation("(1,2)", g3), mask_of([1, 3])) == mask_of([2, 3])
    assert act_on_subset(identity_perm(3), mask_of([2])) == mask_of([2])
    g4 = GroundSet(4)
    assert act_on_subset(parse_permutation("(1,2)(3,4)", g4), mask_of([1, 4])) == mask_of([2, 3])


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=40, deadline=None)
def test_action_is_a_group_action(n, data):
    perm = st.permutations(list(range(1, n + 1)))
    sigma = tuple(data.draw(perm))
    tau = tuple(data.draw(perm))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert act_on_subset(compose(sigma, tau), mask) \
        == act_on_subset(sigma, act_on_subset(tau, mask))
    assert popcount(act_on_subset(sigma, mask)) == popcount(mask)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_action_table_matches_act_on_subset(n, data):
    g = GroundSet(n)
    sigma = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    assert action_table(sigma, g) == [act_on_subset(sigma, m) for m in g.masks()]


def test_orbit_partition_example(example_partition, g3):
    grp = close_generators(g3, [parse_permutation("(1,2)", g3)])
    assert orbit_partition(grp) == example_partition


def test_orbit_partition_trivial_and_symmetric(g3):
    assert len(orbit_partition(close_generators(g3, [])).blocks) == 8
    sym = close_generators(g3, [parse_permutation("(1,2)", g3),
                                parse_permutation("(1,2,3)", g3)])
    assert len(orbit_partition(sym).blocks) == 4


def test_orbit_blocks_are_size_homogeneous():
    rng = random.Random(17)
    for _ in range(10):
        grp = random_group(rng, rng.randint(3, 6))
        part = orbit_partition(grp)
        for block in part.blocks:
            assert len({popcount(m) for m in block}) == 1


def test_orbit_size_divides_group_order():
    rng = random.Random(23)
    for _ in range(10):
        grp = random_group(rng, rng.randint(3, 6))
        part = orbit_partition(grp)
        assert all(grp.order % len(b) == 0 for b in part.blocks)


def brute_force_stabilizer(p):
    n = p.g.n
    out = []
    for images in permutations(range(1, n + 1)):
        ok = True
        for mask in p.g.masks():
            if p.block_of[act_on_subset(images, mask)] != p.block_of[mask]:
                ok = False
                break
        if ok:
            out.append(images)
    return sorted(out)


def leaf_stabilizer(p):
    """Every leaf of the tree of point images, sorted: a partial
    assignment of 1..t is kept only if every subset of the assigned
    points lands in its own block (the search partition_stabilizer
    prunes to one leaf per coset)."""
    n = p.g.n
    block_of = p.block_of
    images = [0] * n
    image_mask = [0] * p.g.size  # image of each submask of the assigned prefix
    used = [False] * (n + 1)
    found = []

    def extend(t):
        if t == n:
            found.append(tuple(images))
            return
        new_bit = 1 << t
        for img in range(1, n + 1):
            if used[img]:
                continue
            img_bit = 1 << (img - 1)
            ok = True
            for sub in range(new_bit):
                im = image_mask[sub] | img_bit
                if block_of[sub | new_bit] != block_of[im]:
                    ok = False
                    break
                image_mask[sub | new_bit] = im
            if ok:
                images[t] = img
                used[img] = True
                extend(t + 1)
                used[img] = False

    extend(0)
    return tuple(sorted(found))


def test_stabilizer_against_brute_force(example_partition):
    h = partition_stabilizer(example_partition)
    assert list(h.elements) == brute_force_stabilizer(example_partition)
    assert h.order == 2


def test_stabilizer_of_cardinality_partition():
    g = GroundSet(4)
    by_size = {}
    for m in g.masks():
        by_size.setdefault(popcount(m), []).append(m)
    p = Partition.from_blocks(g, list(by_size.values()))
    assert partition_stabilizer(p).order == 24


def test_stabilizer_of_singletons(g3):
    p = Partition.from_blocks(g3, [[m] for m in g3.masks()])
    assert partition_stabilizer(p).order == 1


def test_stabilizer_orbits_refine_input():
    rng = random.Random(31)
    for _ in range(8):
        grp = random_group(rng, 5)
        part = orbit_partition(grp)
        h = partition_stabilizer(part)
        assert orbit_partition(h).refines(part)


@given(st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=60, deadline=None)
def test_stabilizer_matches_leaf_oracle(n, data):
    g = GroundSet(n)
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    gens = data.draw(st.lists(perm, min_size=0, max_size=3))
    part = orbit_partition(PermGroup(g, tuple(gens)))
    candidates = [part]
    # merging two blocks of one size gives partitions that need not be
    # orbit partitions, like the order-8 counterexample
    pairs = [(i, j) for i in range(len(part)) for j in range(i + 1, len(part))
             if part.member_size(i) == part.member_size(j)]
    if pairs:
        candidates.append(merge_blocks(part, *data.draw(st.sampled_from(pairs))))
    for p in candidates:
        h = partition_stabilizer(p)
        assert h.elements == h.generators == leaf_stabilizer(p)
        if n <= 5:
            assert list(h.elements) == brute_force_stabilizer(p)


def test_stabilizer_of_size_levels_is_s8():
    g = GroundSet(8)
    levels = Partition.from_blocks(g, [[m for m in g.masks() if popcount(m) == k]
                                       for k in range(9)])
    h = partition_stabilizer(levels)
    assert h.elements == tuple(sorted(permutations(range(1, 9))))


class CountingTuple(tuple):
    """A tuple that counts its item reads."""
    reads = 0

    def __getitem__(self, i):
        CountingTuple.reads += 1
        return tuple.__getitem__(self, i)


def test_stabilizer_search_on_size_levels_reads_a_pinned_number_of_blocks(monkeypatch):
    # The search prunes by skipping images already in an orbit; a search
    # that misses orbit points still finds every element, only slower.
    # Closing each orbit under the newest strong generator alone reads
    # block_of 13 842 times here, not 3330.
    g = GroundSet(8)
    levels = Partition.from_blocks(g, [[m for m in g.masks() if popcount(m) == k]
                                       for k in range(9)])
    monkeypatch.setattr(CountingTuple, "reads", 0)
    h = partition_stabilizer(Partition(g, levels.blocks, CountingTuple(levels.block_of)))
    assert h.order == 40320
    assert CountingTuple.reads == 3330


def test_stabilizer_raises_when_the_products_repeat(monkeypatch, g3):
    # u . h read as h: every coset gives the same elements again
    monkeypatch.setattr(perms, "compose", lambda a, b: b)
    levels = Partition.from_blocks(g3, [[m for m in g3.masks() if popcount(m) == k]
                                        for k in range(4)])
    with pytest.raises(VerificationFailure, match="not 6 distinct"):
        partition_stabilizer(levels)


def test_stabilizer_refuses_n_above_8():
    g = GroundSet(9)
    with pytest.raises(InputError, match="n <= 8"):
        partition_stabilizer(Partition.from_blocks(g, [list(g.masks())]))


def test_group_file_round_trip():
    text = "n 6\n# comment\n(1,2)(3,4)\n(1,2)(5,6)\n"
    grp = parse_group_text(text)
    assert grp.order == 4
    assert parse_group_text(format_group(grp)).elements == grp.elements


def test_group_file_errors():
    with pytest.raises(InputError, match="line 2"):
        parse_group_text("n 8\n(1,9)\n")
    with pytest.raises(InputError, match="header"):
        parse_group_text("(1,2)\n")


def brute_force_orbits(g, elements):
    """Orbit of m = {sigma(m) : sigma in elements}, for every mask m."""
    seen, blocks = set(), []
    for m in g.masks():
        if m not in seen:
            orbit = {act_on_subset(sigma, m) for sigma in elements}
            seen |= orbit
            blocks.append(orbit)
    return Partition.from_blocks(g, blocks)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_sims_filter_keeps_the_group_and_bounds_the_sweeps(n, data):
    g = GroundSet(n)
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    gens = tuple(data.draw(st.lists(perm, min_size=0, max_size=5)))
    elements = close_generators(g, gens).elements
    # as given, and as the full element list partition_stabilizer returns
    for given_gens in (gens, elements):
        kept = _sims_filter(given_gens)
        assert len(kept) <= min(len(given_gens), n * (n - 1) // 2)
        # each kept member fills its own slot (first moved point i, its image)
        slots = {next((i, k[i]) for i in range(n) if k[i] != i + 1) for k in kept}
        assert len(slots) == len(kept)
        assert close_generators(g, kept).elements == elements
        sweeps = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perms, "action_table",
                       lambda sigma, gs: sweeps.append(sigma) or action_table(sigma, gs))
            part = orbit_partition(PermGroup(g, given_gens))
        assert sweeps == kept
        assert part == brute_force_orbits(g, elements)


def tuple_sims_filter(gens):
    """Sims' filter on tuples, sifting by tuple(map(t^-1, sigma)): the
    oracle of perms._sims_filter, which sifts bytes."""
    inverses = {}   # (i, t(i)) -> t^-1 with a 0 in front, so that x indexes t^-1(x)
    kept = []
    for sigma in gens:
        n = len(sigma)
        for i in range(n):
            if sigma[i] == i + 1:
                continue
            slot = (i, sigma[i])
            t_inv = inverses.get(slot)
            if t_inv is None:
                inv = [0] * (n + 1)
                for x, y in enumerate(sigma, 1):
                    inv[y] = x
                inverses[slot] = tuple(inv)
                kept.append(sigma)
                break
            sigma = tuple(map(t_inv.__getitem__, sigma))
    return kept


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=150, deadline=None)
def test_sims_filter_on_bytes_keeps_what_the_tuple_filter_keeps(n, data):
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    gens = data.draw(st.lists(st.one_of(perm, st.just(identity_perm(n))), max_size=8))
    # repeats, both of a generator and of one the filter has already kept
    gens += data.draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []
    inputs = [gens]
    if n <= 6:
        inputs.append(close_generators(GroundSet(n), gens).elements)
    for given_gens in inputs:
        assert _sims_filter(given_gens) == tuple_sims_filter(given_gens)


def test_sims_filter_keeps_28_of_the_40320_elements_of_s8():
    g = GroundSet(8)
    levels = Partition.from_blocks(g, [[m for m in g.masks() if popcount(m) == k]
                                       for k in range(9)])
    elements = partition_stabilizer(levels).elements
    kept = _sims_filter(elements)
    assert len(kept) == 28
    assert kept == tuple_sims_filter(elements)


def test_group_file_elements_are_lazy():
    grp = parse_group_text("n 10\n(1,2)\n(1,2,3,4,5,6,7,8,9,10)\n")
    assert grp.generators == ((2, 1, 3, 4, 5, 6, 7, 8, 9, 10), (2, 3, 4, 5, 6, 7, 8, 9, 10, 1))
    assert len(orbit_partition(grp).blocks) == 11
    small = parse_group_text("n 5\n(1,2)\n(1,2,3,4,5)\n")
    assert small.order == 120
    assert small.elements == close_generators(small.g, small.generators).elements


def test_lazy_elements_keep_the_closure_cap(monkeypatch):
    grp = parse_group_text("n 5\n(1,2)\n(1,2,3,4,5)\n")
    monkeypatch.setattr(perms, "DEFAULT_CLOSURE_CAP", 10)
    with pytest.raises(BudgetExceeded):
        grp.order
