from itertools import permutations

import pytest

from goa.digraphs import EdgeWorld, graph_kelly_check, hypomorphy_search
from goa.errors import InputError


def test_ground_set_sizes():
    assert EdgeWorld(4, directed=True).n == 12
    assert EdgeWorld(4, directed=False).n == 6
    assert EdgeWorld(3, directed=True).n == 6
    with pytest.raises(InputError):
        EdgeWorld(5, directed=True)


def test_digraphs_f4_have_hypomorphic_nonisomorphic_pairs():
    rep = hypomorphy_search(4, directed=True)
    assert rep.has_nontrivial
    assert rep.witness is not None
    g_rep, h_rep, sub, cg, ch = rep.witness
    assert cg != ch
    # the witness really is contained a different number of times
    world = rep.world
    assert world.subtype_counts(g_rep).get(sub, 0) == cg
    assert world.subtype_counts(h_rep).get(sub, 0) == ch


def test_digraph_pairs_are_not_isomorphic_but_share_decks():
    rep = hypomorphy_search(4, directed=True)
    world = rep.world
    for family in rep.nontrivial:
        decks = {world.deck(m) for m in family}
        assert len(decks) == 1
        assert len({world.canon[m] for m in family}) == len(family)


def test_digraphs_f3_families_are_reversal_pairs():
    rep = hypomorphy_search(3, directed=True)
    assert rep.has_nontrivial
    world = rep.world
    reverse_index = {}
    for idx, (i, j) in enumerate(world.edges):
        reverse_index[idx] = world.edges.index((j, i))

    def reverse(mask):
        out = 0
        for idx in range(world.n):
            if mask & (1 << idx):
                out |= 1 << reverse_index[idx]
        return out

    for family in rep.nontrivial:
        canons = set(family)
        assert {world.canon[reverse(m)] for m in family} == canons


@pytest.mark.parametrize("f", [3, 4, 5])
def test_graphs_are_reconstructible(f):
    rep = hypomorphy_search(f, directed=False)
    assert not rep.has_nontrivial


def test_graph_kelly_exhaustive_f4():
    assert graph_kelly_check(4)


def test_graph_kelly_f3():
    assert graph_kelly_check(3)


def brute_force_canon(world):
    """Least image of every edge mask over all f! vertex relabellings."""
    index = {e: k for k, e in enumerate(world.edges)}
    perms = []
    for sigma in permutations(range(1, world.f + 1)):
        perms.append([index[(a, b) if world.directed or a < b else (b, a)]
                      for a, b in ((sigma[i - 1], sigma[j - 1]) for i, j in world.edges)])
    canon = []
    for mask in range(1 << world.n):
        canon.append(min(sum(1 << perm[k] for k in range(world.n) if mask >> k & 1)
                         for perm in perms))
    return canon


@pytest.mark.parametrize("f, directed", [(3, True), (4, True), (4, False), (5, False)])
def test_canon_is_least_relabelled_image(f, directed):
    world = EdgeWorld(f, directed)
    assert world.canon == brute_force_canon(world)
