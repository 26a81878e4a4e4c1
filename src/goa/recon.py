"""Reconstruction machinery on strongly regular partitions: decks,
reconstruction pairs, the counting bounds that forbid them above half
the ground set (and above the log of the orbit size), the families
showing both bounds tight, and the free-action reconstruction index.

`lovasz_check` checks the bound; the intersection formula `e_block_entry`
and the upward count `goa.partition.upward_count` are cross-checks against
a direct count that tests call, not commands.
"""

from bisect import bisect_left, bisect_right
from math import comb

from goa.errors import BudgetExceeded, InputError, VerificationFailure
from goa.partition import Partition
from goa.perms import PermGroup, close_generators, identity_perm, orbit_partition
from goa.subsets import GroundSet, format_subset, mask_of, popcount


class Deck:
    """Coefficient-matrix row of a block, restricted to strictly smaller
    member sizes, in canonical block order.  Immutable."""

    __slots__ = ("block", "smaller_blocks", "entries")

    def __init__(self, block: int, smaller_blocks: tuple, entries: tuple):
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "smaller_blocks", smaller_blocks)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Deck is immutable")


class ReconPair:
    """Blocks a < b at member size `size` with the identical deck `deck`.
    Immutable."""

    __slots__ = ("a", "b", "size", "deck")

    def __init__(self, a: int, b: int, size: int, deck: Deck):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "deck", deck)

    def __setattr__(self, *a):
        raise AttributeError("ReconPair is immutable")


def deck(p: Partition, i: int) -> Deck:
    """Block i's deck.  Blocks are in canonical order, so member sizes
    ascend and the smaller blocks are a prefix of the row."""
    matrix = p.matrix
    sizes = matrix.member_sizes
    start = bisect_left(sizes, sizes[i])
    return Deck(i, tuple(range(start)), tuple(matrix.entries[i][:start]))


def reconstruction_pairs(p: Partition, k: int):
    """Unordered block pairs at member size k with identical decks."""
    sizes = p.matrix.member_sizes
    level = range(bisect_left(sizes, k), bisect_right(sizes, k))
    decks = {i: deck(p, i) for i in level}
    out = []
    for xi, i in enumerate(level):
        for j in level[xi + 1:]:
            if decks[i].entries == decks[j].entries:
                out.append(ReconPair(i, j, k, decks[i]))
    return out


def kelly_check(p: Partition, i: int, j: int) -> bool:
    """(|A| - size_j) * count(A, j) = sum over e in A of count(A-e, j),
    the single-element-deletion counting identity, read off matrix rows."""
    matrix = p.matrix
    if matrix.member_sizes[j] >= matrix.member_sizes[i]:
        raise InputError("deletion identity needs size_j < size_i")
    a = p.blocks[i][0]
    lhs = matrix.entries[i][j] * (popcount(a) - matrix.member_sizes[j])
    rhs = 0
    m = a
    while m:
        bit = m & -m
        rhs += matrix.entries[p.block_of[a ^ bit]][j]
        m ^= bit
    if lhs != rhs:
        raise VerificationFailure(f"deletion identity fails on blocks ({i},{j})")
    return True


def e_block_entry(p: Partition, i: int, j: int, r: int) -> int:
    """Number of members of block j meeting a member of block i in exactly
    r points, via the alternating binomial formula over all blocks;
    checked against a direct count and for block-constancy.  Tests call
    it on small partitions; no command does."""
    matrix = p.matrix
    ent, sizes, comp = matrix.entries, matrix.member_sizes, matrix.comp_map
    total = 0
    for u in range(matrix.s):
        cnt = ent[i][u]
        if cnt == 0 or sizes[u] < r:
            continue
        up = ent[comp[u]][comp[j]]
        if up:
            total += (-1) ** (sizes[u] - r) * comb(sizes[u], r) * cnt * up
    counts = {sum(1 for b in p.blocks[j] if popcount(a & b) == r) for a in p.blocks[i]}
    if counts != {total}:
        raise VerificationFailure(
            f"intersection count formula fails on ({i},{j},r={r}): "
            f"{total} vs direct {sorted(counts)}")
    return total


def lovasz_check(p: Partition):
    """No reconstruction pairs above half the ground set (Lovász's bound);
    and on any pair that does exist, the zero-entry contradiction mechanism
    (difference of the pair's r = 0 operator rows) evaluates to (-1)^k.

    Returns the reconstruction pairs of every member size k, as
    {k: [ReconPair]} in ascending k; raises if a pair above n/2 is found
    (that would falsify the bound) or a mechanism value is off.  The tests
    check the intersection formula (`e_block_entry`).
    """
    matrix = p.matrix
    n = p.g.n
    pairs_by_size = {}
    for k in sorted(set(matrix.member_sizes)):
        pairs = pairs_by_size[k] = reconstruction_pairs(p, k)
        if 2 * k > n and pairs:
            raise VerificationFailure(
                f"reconstruction pair at size {k} > n/2: blocks "
                f"{pairs[0].a},{pairs[0].b}")
        for pair in pairs:
            # difference of the r=0 intersection-operator row entries:
            # with equal decks only the size-k terms survive and give (-1)^k
            ent, sizes, comp = matrix.entries, matrix.member_sizes, matrix.comp_map
            diff = 0
            for u in range(matrix.s):
                delta = ent[pair.a][u] - ent[pair.b][u]
                if delta:
                    diff += (-1) ** sizes[u] * delta * ent[comp[u]][comp[pair.a]]
            if diff != (-1) ** k:
                raise VerificationFailure(
                    f"row-difference mechanism gives {diff}, expected {(-1) ** k} "
                    f"on pair ({pair.a},{pair.b})")
    return pairs_by_size


def muller_check(p: Partition, pair: ReconPair):
    """The order bound on any reconstruction pair: for every block j whose
    members occur as strict subsets of the pair's sets,
    2^(k - size_j - 1) <= upward count from block j into the pair's block.

    Returns a list of (block, bound, upward, within_proof_scope), upward
    read in complement form (members of c(pair) inside a member of c(j),
    exact under axioms 2 and 3, which the matrix build checks); raises
    when a proof-scope instance fails.  Blocks outside the scope (no
    member inside A) are reported, not asserted.
    """
    matrix = p.matrix
    comp = matrix.comp_map
    k = pair.size
    results = []
    for j in range(matrix.s):
        if matrix.member_sizes[j] >= k:
            continue
        in_scope = matrix.entries[pair.a][j] > 0
        bound = 2 ** (k - matrix.member_sizes[j] - 1)
        up = matrix.entries[comp[j]][comp[pair.a]]
        if in_scope and bound > up:
            raise VerificationFailure(
                f"order bound fails: 2^{k - matrix.member_sizes[j] - 1} = {bound} "
                f"> {up} on block {j}")
        results.append((j, bound, up, in_scope))
    return results


def lovasz_tight_instance(r: int, pad: int = 0):
    """The commutative group of order 2^(r-1) on 2r (+pad) points whose
    orbit partition carries a reconstruction pair exactly at size r.

    Returns (group, a_mask, b_mask); guarantees are verified: the two
    sets lie in different orbits, their decks agree, and the group has
    order 2^(r-1).
    """
    if r < 2:
        raise InputError("tight family needs r >= 2")
    if pad < 0:
        raise InputError(f"pad must be nonnegative, got {pad}")
    n = 2 * r + pad
    if n > 16:
        raise InputError("ground set too large (n <= 16)")
    g = GroundSet(n)
    gens = []
    for i in range(1, r):
        images = list(identity_perm(n))
        for x, y in ((1, 2), (2 * i + 1, 2 * i + 2)):
            images[x - 1], images[y - 1] = y, x
        gens.append(tuple(images))
    group = close_generators(g, gens)
    u = [2 * i for i in range(2, r + 1)]
    a_mask = mask_of(u + [1])
    b_mask = mask_of(u + [2])
    if group.order != 2 ** (r - 1):
        raise VerificationFailure(f"tight group has order {group.order}, not 2^{r - 1}")
    part = orbit_partition(group)
    ia, ib = part.block_of[a_mask], part.block_of[b_mask]
    if ia == ib:
        raise VerificationFailure("tight pair collapsed into one orbit")
    pairs = reconstruction_pairs(part, r)
    if not any({q.a, q.b} == {ia, ib} for q in pairs):
        raise VerificationFailure("tight pair does not have equal decks")
    return group, a_mask, b_mask


def exact_intersection_counts(p: Partition, a_mask: int, b: int, s: int) -> int:
    """Number of members V of block b with V intersect A in block s,
    computed by brute force and by the alternating block formula; the two
    must agree."""
    matrix = p.matrix
    direct = sum(1 for v in p.blocks[b] if p.block_of[v & a_mask] == s)
    ent, sizes, comp = matrix.entries, matrix.member_sizes, matrix.comp_map
    ia = p.block_of[a_mask]
    total = 0
    for u in range(matrix.s):
        term = ent[u][s] * ent[ia][u] * ent[comp[u]][comp[b]]
        if term:
            total += (-1) ** (sizes[u] - sizes[s]) * term
    if direct != total:
        raise VerificationFailure(
            f"intersection census disagrees for A={format_subset(a_mask)}, "
            f"block {b}, pattern block {s}: {direct} vs {total}")
    return direct


def intersection_sum_rule(p: Partition, a_mask: int, b: int, t: int) -> bool:
    """sum over blocks S of count(S,T) * census(A,B,S)
    equals count(A,T) * upward(T -> B)."""
    matrix = p.matrix
    ent, comp = matrix.entries, matrix.comp_map
    lhs = sum(ent[s][t] * exact_intersection_counts(p, a_mask, b, s)
              for s in range(matrix.s) if ent[s][t])
    rhs = ent[p.block_of[a_mask]][t] * ent[comp[t]][comp[b]]
    if lhs != rhs:
        raise VerificationFailure(f"census sum rule fails at T={t}: {lhs} != {rhs}")
    return True


def intersection_difference_rule(p: Partition, pair: ReconPair, t: int) -> bool:
    """For a reconstruction pair (A's block, B's block):
    census(A, orbit(A), T) - census(B, orbit(A), T) = (-1)^(|A| - size_T) count(A,T)."""
    matrix = p.matrix
    a_mask = p.blocks[pair.a][0]
    b_mask = p.blocks[pair.b][0]
    lhs = (exact_intersection_counts(p, a_mask, pair.a, t)
           - exact_intersection_counts(p, b_mask, pair.a, t))
    rhs = (-1) ** (pair.size - matrix.member_sizes[t]) * matrix.entries[pair.a][t]
    if lhs != rhs:
        raise VerificationFailure(f"census difference rule fails at T={t}: {lhs} != {rhs}")
    return True


def acts_freely(group: PermGroup) -> bool:
    """True iff no non-identity element fixes a point.  A freely acting
    group on n points has at most n elements, so the closure stops at n:
    a larger group answers False without its elements being listed."""
    n = group.g.n
    try:
        elements = close_generators(group.g, group.generators, cap=n).elements
    except BudgetExceeded:
        return False
    ident = identity_perm(n)
    return all(all(s[i] != i + 1 for i in range(n))
               for s in elements if s != ident)


def maynard_siemons_index(group: PermGroup) -> int:
    """Reconstruction index of a freely acting group: the least cardinality
    from which every set is reconstructible, computed as 1 + the largest
    size carrying a reconstruction pair (1 when there is none).  Checked
    against the free-action bound of 5."""
    if group.g.n > 12:
        raise InputError("free index computation requires n <= 12")
    if not acts_freely(group):
        raise InputError("group does not act freely (a non-identity element has a fixed point)")
    part = orbit_partition(group)
    index = 1 + max((k for k in set(part.matrix.member_sizes)
                     if reconstruction_pairs(part, k)), default=0)
    if index > 5:
        raise VerificationFailure(f"free action with reconstruction index {index} > 5")
    return index
