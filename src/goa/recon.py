"""Reconstruction machinery on strongly regular partitions: decks,
reconstruction pairs, the counting bounds that forbid them above half
the ground set (and above the log of the orbit size), the families
showing both bounds tight, and the free-action reconstruction index.
"""

from dataclasses import dataclass
from math import comb

from goa.errors import InputError, VerificationFailure
from goa.partition import CoeffMatrix, Partition, coeff_matrix, upward_count
from goa.perms import PermGroup, close_generators, identity_perm, orbit_partition
from goa.subsets import GroundSet, format_subset, mask_of, popcount


@dataclass(frozen=True)
class Deck:
    """Coefficient-matrix row of a block, restricted to strictly smaller
    member sizes, in canonical block order."""

    block: int
    smaller_blocks: tuple
    entries: tuple


@dataclass(frozen=True)
class ReconPair:
    a: int
    b: int
    size: int
    deck: Deck


def deck(p: Partition, i: int, matrix: CoeffMatrix = None) -> Deck:
    matrix = matrix or coeff_matrix(p)
    k = matrix.member_sizes[i]
    smaller = tuple(j for j in range(matrix.s) if matrix.member_sizes[j] < k)
    return Deck(i, smaller, tuple(matrix.entries[i][j] for j in smaller))


def reconstruction_pairs(p: Partition, k: int, matrix: CoeffMatrix = None):
    """Unordered block pairs at member size k with identical decks."""
    matrix = matrix or coeff_matrix(p)
    level = [i for i in range(matrix.s) if matrix.member_sizes[i] == k]
    decks = {i: deck(p, i, matrix) for i in level}
    out = []
    for xi, i in enumerate(level):
        for j in level[xi + 1:]:
            if decks[i].entries == decks[j].entries:
                out.append(ReconPair(i, j, k, decks[i]))
    return out


def kelly_check(p: Partition, i: int, j: int, matrix: CoeffMatrix = None) -> bool:
    """(|A| - size_j) * count(A, j) = sum over e in A of count(A-e, j),
    the single-element-deletion counting identity, read off matrix rows."""
    matrix = matrix or coeff_matrix(p)
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


def e_block_entry(p: Partition, i: int, j: int, r: int,
                  matrix: CoeffMatrix = None) -> int:
    """Number of members of block j meeting a member of block i in exactly
    r points, via the alternating binomial formula over all blocks;
    checked against a direct count and for block-constancy."""
    matrix = matrix or coeff_matrix(p)
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


def lovasz_check(p: Partition, matrix: CoeffMatrix = None):
    """No reconstruction pairs above half the ground set; and on any pair
    that does exist, the zero-entry contradiction mechanism evaluates to
    the stated sign.

    Returns (above_half_pairs, mechanism_checks); raises if a pair above
    n/2 is found (that would falsify the bound) or a mechanism value is
    off.
    """
    matrix = matrix or coeff_matrix(p)
    n = p.g.n
    mechanism = []
    for k in set(matrix.member_sizes):
        pairs = reconstruction_pairs(p, k, matrix)
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
            mechanism.append((pair.a, pair.b, k, diff))
        if 2 * k > n:
            # the r=0 operator vanishes above n/2: formula entries must be 0
            level = [i for i in range(matrix.s) if matrix.member_sizes[i] == k]
            for i in level:
                for j in level:
                    if e_block_entry(p, i, j, 0, matrix) != 0:
                        raise VerificationFailure(
                            f"vanishing r=0 operator has nonzero entry at ({i},{j})")
    return mechanism


def muller_check(p: Partition, pair: ReconPair, matrix: CoeffMatrix = None):
    """The order bound on any reconstruction pair: for every block j whose
    members occur as strict subsets of the pair's sets,
    2^(k - size_j - 1) <= upward count from block j into the pair's block.

    Returns a list of (block, bound, upward, within_proof_scope); raises
    when a proof-scope instance fails.  Blocks outside the scope (no
    member inside A) are reported, not asserted.
    """
    matrix = matrix or coeff_matrix(p)
    k = pair.size
    results = []
    for j in range(matrix.s):
        if matrix.member_sizes[j] >= k:
            continue
        in_scope = matrix.entries[pair.a][j] > 0
        bound = 2 ** (k - matrix.member_sizes[j] - 1)
        up = upward_count(p, j, pair.a, matrix)
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
    matrix = coeff_matrix(part)
    pairs = reconstruction_pairs(part, r, matrix)
    if not any({q.a, q.b} == {ia, ib} for q in pairs):
        raise VerificationFailure("tight pair does not have equal decks")
    return group, a_mask, b_mask


def exact_intersection_counts(p: Partition, a_mask: int, b: int, s: int,
                              matrix: CoeffMatrix = None) -> int:
    """Number of members V of block b with V intersect A in block s,
    computed by brute force and by the alternating block formula; the two
    must agree."""
    matrix = matrix or coeff_matrix(p)
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


def intersection_sum_rule(p: Partition, a_mask: int, b: int, t: int,
                          matrix: CoeffMatrix = None) -> bool:
    """sum over blocks S of count(S,T) * census(A,B,S)
    equals count(A,T) * upward(T -> B)."""
    matrix = matrix or coeff_matrix(p)
    ent, comp = matrix.entries, matrix.comp_map
    lhs = sum(ent[s][t] * exact_intersection_counts(p, a_mask, b, s, matrix)
              for s in range(matrix.s) if ent[s][t])
    rhs = ent[p.block_of[a_mask]][t] * ent[comp[t]][comp[b]]
    if lhs != rhs:
        raise VerificationFailure(f"census sum rule fails at T={t}: {lhs} != {rhs}")
    return True


def intersection_difference_rule(p: Partition, pair: ReconPair, t: int,
                                 matrix: CoeffMatrix = None) -> bool:
    """For a reconstruction pair (A's block, B's block):
    census(A, orbit(A), T) - census(B, orbit(A), T) = (-1)^(|A| - size_T) count(A,T)."""
    matrix = matrix or coeff_matrix(p)
    a_mask = p.blocks[pair.a][0]
    b_mask = p.blocks[pair.b][0]
    lhs = (exact_intersection_counts(p, a_mask, pair.a, t, matrix)
           - exact_intersection_counts(p, b_mask, pair.a, t, matrix))
    rhs = (-1) ** (pair.size - matrix.member_sizes[t]) * matrix.entries[pair.a][t]
    if lhs != rhs:
        raise VerificationFailure(f"census difference rule fails at T={t}: {lhs} != {rhs}")
    return True


def acts_freely(group: PermGroup) -> bool:
    ident = identity_perm(group.g.n)
    return all(all(s[i] != i + 1 for i in range(group.g.n))
               for s in group.elements if s != ident)


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
    matrix = coeff_matrix(part)
    worst = 0
    for k in sorted(set(matrix.member_sizes)):
        if reconstruction_pairs(part, k, matrix):
            worst = k
    index = worst + 1
    if index > 5:
        raise VerificationFailure(f"free action with reconstruction index {index} > 5")
    return index
