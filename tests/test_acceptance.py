"""Acceptance suite: one test per criterion, one PASS line per criterion.

Every assertion here is exact (integer or rational equality); the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from math import comb

from conftest import random_group
from goa import GroundSet, Partition
from goa.digraphs import graph_kelly_check, hypomorphy_search
from goa.identities import identity_suite
from goa.incidence import enumerate_incidence_functions, verify_bilinear_decomposition
from goa.partition import (mnukhin_check, structure_constants,
                           upward_count, verify_goa_closure, verify_strongly_regular)
from goa.perms import close_generators, orbit_partition
from goa.recon import (intersection_difference_rule, intersection_sum_rule,
                       lovasz_check, lovasz_tight_instance, maynard_siemons_index,
                       muller_check, reconstruction_pairs)
from goa.srp import build_counterexample, enumerate_strongly_regular, is_orbit_partition
from goa.subsets import mask_of


def _report(name, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_counterexample(capsys):
    from goa.cli import main
    start = time.monotonic()
    part, rep = build_counterexample()
    assert rep.strongly_regular
    assert rep.goa_closed
    assert not rep.orbit_realizable
    assert rep.certificate_ok
    assert rep.decompositions_a == [(mask_of([1, 3, 7]), mask_of([3, 5, 7]))]
    assert rep.decompositions_b == [(mask_of([1, 3, 8]), mask_of([1, 5, 8]))]
    assert main(["counterexample"]) == 0
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert elapsed < 60
    _report("1 counterexample reproduction", elapsed)


def test_criterion_2_enumeration_consistency(capsys):
    from goa.cli import main
    start = time.monotonic()
    counts = {}
    for n in (1, 2, 3, 4):
        parts, complete = enumerate_strongly_regular(GroundSet(n))
        assert complete
        counts[n] = len(parts)
        for p in parts:
            assert verify_strongly_regular(p).ok
            assert is_orbit_partition(p)[0]
        assert main(["enumerate-srp", "--n", str(n)]) == 0
    capsys.readouterr()
    assert counts[2] == 2
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"  enumerated counts by n: {counts}")
    _report("2 enumeration consistency", elapsed)


def test_criterion_3_operator_identities():
    start = time.monotonic()
    for n in (2, 4, 6):
        checks = identity_suite(GroundSet(n))
        failed = [name for name, ok, _ in checks if not ok]
        assert not failed, failed
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report("3 operator identity suite (n <= 6)", elapsed)


def test_criterion_4_bilinear_decomposition_and_counts():
    start = time.monotonic()
    for n in (1, 2):
        rep = verify_bilinear_decomposition(GroundSet(n))
        assert rep["all_ok"], rep["failures"]
    for n in range(1, 6):
        assert len(enumerate_incidence_functions(GroundSet(n), 2)) == comb(n + 3, 3)
        assert len(enumerate_incidence_functions(GroundSet(n), 3)) == comb(n + 7, 7)
    _report("4 order-3 decomposition and pattern counts", time.monotonic() - start)


def _corpus_random_groups(seed=20100801, total=50):
    rng = random.Random(seed)
    groups = []
    while len(groups) < total:
        groups.append(random_group(rng, rng.randint(4, 7), max_gens=3))
    return groups


def test_criterion_5_lovasz_suite():
    start = time.monotonic()
    found_pairs = []
    for grp in _corpus_random_groups():
        part = orbit_partition(grp)
        m = part.matrix
        lovasz_check(part)        # raises on a pair above n/2
        for k in sorted(set(m.member_sizes)):
            found_pairs.extend((part, q) for q in reconstruction_pairs(part, k))
    for n in (1, 2, 3, 4):
        for part in enumerate_strongly_regular(GroundSet(n))[0]:
            lovasz_check(part)
    for r in (2, 3, 4, 5):
        for pad in (0, 1):
            grp, a, b = lovasz_tight_instance(r, pad)
            assert grp.order == 2 ** (r - 1)
            part = orbit_partition(grp)
            m = part.matrix
            ia, ib = part.block_of[a], part.block_of[b]
            assert ia != ib
            assert any({q.a, q.b} == {ia, ib}
                       for q in reconstruction_pairs(part, r))
            lovasz_check(part)
    test_criterion_5_lovasz_suite.found_pairs = found_pairs
    elapsed = time.monotonic() - start
    print(f"  random-group pairs collected: {len(found_pairs)}")
    _report("5 reconstruction bound suite", elapsed)


def test_criterion_6_muller_suite():
    start = time.monotonic()
    pairs = getattr(test_criterion_5_lovasz_suite, "found_pairs", None)
    if pairs is None:
        test_criterion_5_lovasz_suite()
        pairs = test_criterion_5_lovasz_suite.found_pairs
    for part, pair in pairs:
        muller_check(part, pair)
    grp, a, b = lovasz_tight_instance(3)
    part = orbit_partition(grp)
    m = part.matrix
    pair = next(q for q in reconstruction_pairs(part, 3)
                if {q.a, q.b} == {part.block_of[a], part.block_of[b]})
    rows = muller_check(part, pair)
    empty_row = next(r for r in rows if r[0] == part.block_of[0])
    assert empty_row[1] == 4 == empty_row[2]
    for t in range(m.s):
        intersection_sum_rule(part, a, pair.a, t)
        if m.member_sizes[t] <= 3:
            intersection_difference_rule(part, pair, t)
    _report("6 order bound suite", time.monotonic() - start)


def test_criterion_7_equivalence_and_matrix_laws():
    start = time.monotonic()
    corpus = []
    rng = random.Random(77)
    for _ in range(12):
        corpus.append(orbit_partition(random_group(rng, rng.randint(3, 5))))
    for n in (1, 2, 3, 4):
        corpus.extend(enumerate_strongly_regular(GroundSet(n))[0])
    merged, _ = build_counterexample()
    corpus.append(merged)

    negatives = 0
    while negatives < 20:
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
        if not verify_strongly_regular(p).ok:
            negatives += 1
        corpus.append(p)

    for p in corpus:
        srp = verify_strongly_regular(p)
        goa = verify_goa_closure(p)
        assert srp.ok == goa.closed
        if not srp.ok:
            continue
        m = p.matrix
        for i in range(m.s):
            for j in range(m.s):
                upward_count(p, i, j)       # three-expression agreement
        for power in (-2, -1, 2, 3):
            mnukhin_check(p, power)
        if p.g.n <= 4:
            for i in range(m.s):
                for j in range(i, m.s):
                    structure_constants(p, i, j)
    elapsed = time.monotonic() - start
    print(f"  corpus size: {len(corpus)} (negatives: {negatives})")
    _report("7 regularity/closure equivalence and matrix laws", elapsed)


def test_criterion_8_free_action_index():
    start = time.monotonic()
    indices = {}
    for p in (5, 7, 11):
        g = GroundSet(p)
        cycle = tuple(list(range(2, p + 1)) + [1])
        group = close_generators(g, [cycle])
        indices[f"cycle{p}"] = maynard_siemons_index(group)
    g4 = GroundSet(4)
    klein = close_generators(g4, [(2, 1, 4, 3), (3, 4, 1, 2)])
    assert klein.order == 4
    indices["klein"] = maynard_siemons_index(klein)
    assert all(v <= 5 for v in indices.values())
    print(f"  indices: {indices}")
    _report("8 free-action reconstruction index", time.monotonic() - start)


def test_criterion_9_digraph_demo():
    start = time.monotonic()
    drep = hypomorphy_search(4, directed=True)
    assert drep.has_nontrivial
    assert drep.witness is not None
    g_rep, h_rep, sub, cg, ch = drep.witness
    assert cg != ch
    for f in (3, 4):
        assert not hypomorphy_search(f, directed=False).has_nontrivial
    assert graph_kelly_check(4)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report("9 digraph hypomorphy demo", elapsed)
