import random
import sys

import pytest

from conftest import random_group
from goa import GroundSet, Partition
from goa.errors import InputError
from goa.partition import verify_goa_closure, verify_strongly_regular
from goa.perms import close_generators, orbit_partition, parse_permutation
from goa.srp import (build_counterexample, enumerate_strongly_regular,
                     is_orbit_partition)
from goa.subsets import downward_counts, enumerate_by_size, mask_of, popcount


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


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def whole_layer_enumeration(g):
    """The search one whole layer at a time: every set partition of each
    class of the size-k layer, its complements added below the middle (the
    middle layer kept only when complement-closed), one downward_counts
    table per candidate, axiom 3 read off the table."""
    n, full = g.n, g.full_mask
    results = []

    def layer_partitions(k, table):
        classes = {}
        for m in enumerate_by_size(g, k):
            classes.setdefault((table[m], table[m ^ full]), []).append(m)
        class_lists = sorted(classes.values())

        def rec(idx):
            if idx == len(class_lists):
                yield []
                return
            for head in set_partitions(class_lists[idx]):
                for tail in rec(idx + 1):
                    yield head + tail

        yield from rec(0)

    def recurse(k, fixed, table):
        if k > n - k:
            results.append(Partition.from_blocks(g, fixed))
            return
        for blocks_k in layer_partitions(k, table):
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
    return results


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_enumeration_matches_whole_layer_search(n):
    parts, complete = enumerate_strongly_regular(GroundSet(n))
    assert complete
    assert parts == whole_layer_enumeration(GroundSet(n))


def test_enumeration_at_six_holds_random_orbit_partitions():
    # completeness spot check: the orbit partition of any group is
    # strongly regular, so it must be in the list
    # (the count 955 is this run's finding, pinned as a regression value)
    g = GroundSet(6)
    parts, complete = enumerate_strongly_regular(g)
    assert complete
    assert len(parts) == len(set(parts)) == 955
    rng = random.Random(6)
    found = set(parts)
    for _ in range(8):
        assert orbit_partition(random_group(rng, 6)) in found
    singletons = [[m] for m in g.masks()]
    assert Partition.from_blocks(g, singletons) in found
    assert all(verify_strongly_regular(p).ok for p in parts)
    # no non-orbit strongly regular partition exists at n = 6
    assert all(is_orbit_partition(p)[0] for p in parts)


def test_enumeration_builds_one_table_per_full_layer(monkeypatch):
    # each placement is tested by direct counts, with no table; every
    # downward_counts table covers whole layers 0..k and their complements,
    # and passes axiom 3: 146 at n = 5 (145 past layer 0), against the
    # 143 635 candidates the whole-layer search tables
    from goa import srp
    n = 5
    depth = [min(popcount(m), n - popcount(m)) for m in range(1 << n)]
    tables = []

    def recording(blocks, n):
        table, code = downward_counts(blocks, n)
        covered = sorted(m for b in blocks for m in b)
        k = max((depth[m] for m in covered), default=-1)
        whole = covered == [m for m in range(1 << n) if depth[m] <= k]
        tables.append(whole and all(table[m] == table[b[0]] for b in blocks for m in b))
        return table, code

    monkeypatch.setattr(srp, "downward_counts", recording)
    assert len(enumerate_strongly_regular(GroundSet(n))[0]) == 93
    assert len(tables) == 146 and all(tables)


def test_enumeration_pruning_is_pinned():
    # the nested place and layer calls of the search, counted from outside:
    # a search that prunes more weakly, or differently, makes other counts
    from goa import srp
    for n, pinned in ((4, {"place": 89, "layer": 39}), (5, {"place": 533, "layer": 147})):
        calls = dict.fromkeys(pinned, 0)

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == srp.__file__ and code.co_name in calls:
                calls[code.co_name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            parts, complete = enumerate_strongly_regular(GroundSet(n))
        finally:
            sys.setprofile(previous)
        assert complete and calls == pinned


def test_enumeration_layer_word_fixes_complement_word(monkeypatch):
    # the search keys the classes of layer k on the word at m alone: on every
    # layer table it makes, the word at m ^ full is a function of the word at m
    from goa import srp
    tables = []

    def recording(blocks, n):
        table, code = downward_counts(blocks, n)
        tables.append((n, blocks, table))
        return table, code

    monkeypatch.setattr(srp, "downward_counts", recording)
    for n in range(1, 6):
        enumerate_strongly_regular(GroundSet(n))
    checked = 0
    for n, blocks, table in tables:
        full = (1 << n) - 1
        k = 1 + max(min(popcount(m), n - popcount(m)) for b in blocks for m in b)
        if 2 * k > n:
            continue    # the table of the last layer: no layer left to class
        complement_word = {}
        for m in enumerate_by_size(GroundSet(n), k):
            if table[m] in complement_word:
                assert complement_word[table[m]] == table[m ^ full]
                checked += 1
            complement_word[table[m]] = table[m ^ full]
    # every layer table the search makes at n <= 5, and the sets of each
    # whose word repeats one seen before in the same table
    assert (len(tables), checked) == (194, 336)


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
    # one level past the required range: placing one block at a time and
    # pruning on axiom 3 finishes n=5 in a fraction of a second, and every
    # partition found is still realized by a group
    # (the count 93 is this run's finding, pinned as a regression value)
    parts, complete = enumerate_strongly_regular(GroundSet(5), budget_seconds=240)
    assert complete
    assert len(parts) == 93
    assert all(verify_strongly_regular(p).ok for p in parts)
    assert all(is_orbit_partition(p)[0] for p in parts)


def test_enumeration_budget_exhaustion_flag():
    parts, complete = enumerate_strongly_regular(GroundSet(6), budget_seconds=0.02)
    assert not complete


def test_enumeration_rejects_large():
    with pytest.raises(InputError):
        enumerate_strongly_regular(GroundSet(7))


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
