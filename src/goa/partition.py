"""Partitions of the powerset and their algebra: strong-regularity
axioms, coefficient matrices, upward counts, closure under the lattice
operators, structure constants, and block merging.

A partition is strongly regular when (1) each block is size-homogeneous,
(2) the complements of each block form a block, and (3) for every block
pair (i, j) the number of members of block j inside a member of block i
does not depend on the chosen member.  One subsets.downward_counts table
gives these counts; they form the coefficient matrix, the matrix of
comp . ell . comp on the block basis (cross-checked, not assumed).
A partition builds its coefficient matrix once, on first use of
Partition.matrix; every function here and in goa.recon reads it there.
Every "is this mask-indexed vector constant on each block" question
(the closure test, the coefficient-matrix cross-check and the direct
structure constants) goes through Partition.block_values.  It reads the
vector at each block's first member with one operator.itemgetter, spreads
those values back over all 2^n masks, and compares the result with the
vector.  A list or tuple is spread by a second itemgetter, over block_of.
A bytes vector (packed Poly coeffs, see goa.poly: every closure image
and cross-check image whose entries fit a byte) is spread by
bytes.translate of a kept string of block indices, one pass per group of
256 blocks, up to BYTE_SPREAD_MAX_BLOCKS blocks; past that, itemgetter.
The getters and the index string are built on first use and kept with
the partition.

goa.poly, goa.operators, goa.linalg and fractions are imported inside
the functions that use them: deciding realizability (goa.srp,
goa.perms) needs none of them, and each goa command is a short process
that would otherwise compile them at start-up.
"""

import time
import warnings
from operator import itemgetter

from goa.errors import BudgetExceeded, InputError, VerificationFailure
from goa.subsets import (GroundSet, downward_counts, format_subset, parse_header, parse_subset,
                         popcount, unpack)

# block_values spreads a bytes vector by bytes.translate, one pass per
# group of 256 blocks, up to this many blocks, and past it by the
# itemgetter over block_of that every other vector takes.  Each group
# costs about a tenth of the itemgetter (2-2.5 ns against 24 ns a mask,
# CPython 3.11 at n = 14 and 16); the two cross between 9 and 10 groups
# at n = 14 and between 10 and 12 at n = 16.
BYTE_SPREAD_MAX_BLOCKS = 9 * 256


class Partition:
    """Blocks of masks in canonical order: ascending (member size, smallest
    member); members ascending.  block_of maps every mask to its block."""

    __slots__ = ("g", "blocks", "block_of", "_matrix", "_getters", "_byte_spread")

    def __init__(self, g, blocks, block_of):
        self.g = g
        self.blocks = blocks
        self.block_of = block_of
        self._matrix = None
        self._getters = None
        self._byte_spread = None

    @property
    def matrix(self) -> "CoeffMatrix":
        """coeff_matrix(self), built on first access and kept."""
        if self._matrix is None:
            self._matrix = coeff_matrix(self)
        return self._matrix

    @classmethod
    def from_blocks(cls, g: GroundSet, blocks):
        seen = [False] * g.size
        cleaned = []
        for block in blocks:
            members = sorted(block)
            if not members:
                raise InputError("empty block")
            for k, m in enumerate(members):
                if not 0 <= m < g.size:
                    raise InputError(f"mask {m} out of range for n={g.n}")
                if seen[m]:
                    where = "twice in one block" if k and members[k - 1] == m else "in two blocks"
                    raise InputError(f"subset {format_subset(m)} appears {where}")
                seen[m] = True
            cleaned.append(tuple(members))
        missing = next((m for m in range(g.size) if not seen[m]), None)
        if missing is not None:
            raise InputError(f"partition does not cover subset {format_subset(missing)}")
        cleaned.sort(key=lambda b: (min(popcount(m) for m in b), b[0]))
        block_of = [0] * g.size
        for i, block in enumerate(cleaned):
            for m in block:
                block_of[m] = i
        return cls(g, tuple(cleaned), tuple(block_of))

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.g == other.g and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.g, self.blocks))

    def block_values(self, vec):
        """(values, bad): values[i] is vec at the first member of block i;
        bad is the first block on which vec is not constant, else None.
        vec is any sequence indexed by masks (a list, a tuple or bytes)."""
        if self._getters is None:
            # itemgetter(*firsts) returns a bare item, not a 1-tuple, when
            # there is one block; block_of has 2^n >= 2 entries
            self._getters = itemgetter(*(block[0] for block in self.blocks)), \
                itemgetter(*self.block_of)
        firsts, spread = self._getters
        values = list(firsts(vec)) if len(self.blocks) > 1 else [firsts(vec)]
        if type(vec) is bytes and len(self.blocks) <= BYTE_SPREAD_MAX_BLOCKS:
            if self._spread_bytes(values) == vec:
                return values, None
        elif spread(values) == tuple(vec):
            return values, None
        bad = next(i for i, block in enumerate(self.blocks)
                   if any(vec[m] != values[i] for m in block))
        return values, bad

    def _spread_bytes(self, values):
        """values[block_of[m]] at every mask m, as bytes, for values in
        0..255.  A kept string holds each mask's block index mod 256, and
        bytes.translate maps it through a table of one group of 256 block
        values.  Past 256 blocks each group's spread is masked to the
        masks of that group's blocks (a kept int with 0xff there), and the
        groups are or-ed together as ints."""
        if self._byte_spread is None:
            low = bytes(b & 255 for b in self.block_of)
            groups = []
            if len(self.blocks) > 256:
                groups = [bytearray(len(low)) for _ in range(len(self.blocks) + 255 >> 8)]
                for m, b in enumerate(self.block_of):
                    groups[b >> 8][m] = 255
            self._byte_spread = low, [int.from_bytes(g, "little") for g in groups]
        low, groups = self._byte_spread
        if not groups:
            return low.translate(bytes(values).ljust(256, b"\0"))
        spread = 0
        for k, group in enumerate(groups):
            table = bytes(values[k << 8:k + 1 << 8]).ljust(256, b"\0")
            spread |= int.from_bytes(low.translate(table), "little") & group
        return spread.to_bytes(len(low), "little")

    def member_size(self, i):
        """Common member cardinality of block i (None if mixed)."""
        sizes = {popcount(m) for m in self.blocks[i]}
        return sizes.pop() if len(sizes) == 1 else None

    def complement_block(self, i):
        """Index j such that the complements of block i are exactly block j, else None."""
        full = self.g.full_mask
        comps = sorted(m ^ full for m in self.blocks[i])
        j = self.block_of[comps[0]]
        return j if list(self.blocks[j]) == comps else None

    def block_poly(self, i):
        """The P-basis sum of block i's members, a goa.poly.Poly."""
        from goa.poly import Poly
        return Poly.block_sum(self.g, self.blocks[i])

    def refines(self, other) -> bool:
        """Every block of self lies inside one block of other."""
        return all(len({other.block_of[m] for m in b}) == 1 for b in self.blocks)


class SrpReport:
    """The three axioms' verdicts.  witness is the first failing axiom's
    witness; comp_map (c(i) per block) is set when axiom 2 holds, and
    counts (downward-count rows, as memoryviews) when all three hold."""

    __slots__ = ("size_homogeneous", "complement_closed", "counts_constant",
                 "witness", "comp_map", "counts")

    def __init__(self, size_homogeneous, complement_closed, counts_constant,
                 witness=None, comp_map=None, counts=None):
        self.size_homogeneous = size_homogeneous
        self.complement_closed = complement_closed
        self.counts_constant = counts_constant
        self.witness = witness
        self.comp_map = comp_map
        self.counts = counts

    @property
    def ok(self):
        return self.size_homogeneous and self.complement_closed and self.counts_constant

    def lines(self):
        out = [
            f"axiom-1 size-homogeneous: {self.size_homogeneous}",
            f"axiom-2 complement-closed: {self.complement_closed}",
            f"axiom-3 constant-counts: {self.counts_constant}",
        ]
        if self.witness:
            out.append("witness: " + " ".join(str(w) for w in self.witness))
        return out


def verify_strongly_regular(p: Partition) -> SrpReport:
    """All three axioms evaluated independently, in order; the witness is
    the first failing axiom's counterexample.  Axiom 3 reads the packed
    downward_counts table; counts are attached only when all axioms hold."""
    witness = None

    size_ok = True
    for i, block in enumerate(p.blocks):
        if p.member_size(i) is None:
            size_ok = False
            a, b = min(block, key=popcount), max(block, key=popcount)
            witness = ("axiom-1", i, format_subset(a), format_subset(b))
            break

    comp_map = []
    comp_ok = True
    for i in range(len(p.blocks)):
        j = p.complement_block(i)
        if j is None:
            comp_ok = False
            witness = witness or ("axiom-2", i)
            break
        comp_map.append(j)

    s = len(p.blocks)
    table, code = downward_counts(p.blocks, p.g.n)
    values, bad = p.block_values(table)
    if bad is not None:
        a = next(m for m in p.blocks[bad] if table[m] != values[bad])
        first, other = unpack(values[bad], code, s), unpack(table[a], code, s)
        j = next(jj for jj in range(s) if first[jj] != other[jj])
        witness = witness or ("axiom-3", bad, j, format_subset(p.blocks[bad][0]),
                              format_subset(a), first[j], other[j])

    ok = size_ok and comp_ok and bad is None
    return SrpReport(
        size_ok, comp_ok, bad is None,
        witness=witness,
        comp_map=tuple(comp_map) if comp_ok else None,
        counts=tuple(unpack(v, code, s) for v in values) if ok else None,
    )


class CoeffMatrix:
    """entries[i][j] = number of members of block j inside a member of block i.
    Row i is a read-only memoryview of block i's packed downward_counts
    word (subsets.unpack), not a tuple: index it, iterate it or list() it.
    member_sizes holds the common member cardinality of each block,
    orbit_sizes its number of members.  Immutable."""

    __slots__ = ("entries", "member_sizes", "orbit_sizes", "comp_map")

    def __init__(self, entries, member_sizes, orbit_sizes, comp_map):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "member_sizes", member_sizes)
        object.__setattr__(self, "orbit_sizes", orbit_sizes)
        object.__setattr__(self, "comp_map", comp_map)

    def __setattr__(self, *a):
        raise AttributeError("CoeffMatrix is immutable")

    @property
    def s(self):
        return len(self.entries)

    def lines(self):
        out = [f"blocks: {self.s}"]
        out.append("sizes: " + " ".join(map(str, self.member_sizes)))
        out.append("orbit-sizes: " + " ".join(map(str, self.orbit_sizes)))
        out.append("complement-map: " + " ".join(map(str, self.comp_map)))
        for row in self.entries:
            out.append(" ".join(map(str, row)))
        return out


def coeff_matrix(p: Partition) -> CoeffMatrix:
    """Downward-count matrix of a strongly regular partition, cross-checked
    against the operator comp . ell . comp expressed on the block basis.
    Callers read p.matrix, which calls this once per partition."""
    from goa.operators import complementation, ell_power
    from goa.poly import Poly
    report = verify_strongly_regular(p)
    if not report.ok:
        raise InputError("coefficient matrix requires a strongly regular partition")
    m = CoeffMatrix(
        entries=report.counts,
        member_sizes=tuple(p.member_size(i) for i in range(len(p.blocks))),
        orbit_sizes=tuple(len(b) for b in p.blocks),
        comp_map=report.comp_map,
    )
    # comp . ell . comp sends p_A to the sum of p_C over supersets C of A;
    # on the block basis its column i must read off column i of the counts.
    # zip(*rows) yields the columns in block order, one at a time, so no
    # s x s transpose is held.
    for i, (block, counts) in enumerate(zip(p.blocks, zip(*m.entries))):
        image = complementation(ell_power(1, complementation(Poly.block_sum(p.g, block))))
        column, bad = p.block_values(image.coeffs)
        if bad is not None or column != list(counts):
            raise VerificationFailure(
                f"coefficient matrix disagrees with comp.ell.comp on block {i}")
    return m


def upward_count(p: Partition, i: int, j: int) -> int:
    """Members of block j containing a member of block i; checked constant
    and equal to both closed forms (orbit-size ratio and complement form).
    Tests call it; recon.muller_check reads the complement form."""
    from fractions import Fraction
    matrix = p.matrix
    direct = None
    members_j = p.blocks[j]
    for a in p.blocks[i]:
        c = sum(1 for b in members_j if a & b == a)
        if direct is None:
            direct = c
        elif c != direct:
            raise VerificationFailure(f"upward count not constant on block pair ({i},{j})")
    ratio = Fraction(matrix.orbit_sizes[j] * matrix.entries[j][i], matrix.orbit_sizes[i])
    comp_form = matrix.entries[matrix.comp_map[i]][matrix.comp_map[j]]
    if not (direct == ratio == comp_form):
        raise VerificationFailure(
            f"upward count mismatch on ({i},{j}): direct {direct}, "
            f"ratio {ratio}, complement form {comp_form}")
    return direct


class GoaReport:
    """closed, and on failure the operation with the blocks involved
    (failure) and the image that left the span (witness_poly)."""

    __slots__ = ("closed", "failure", "witness_poly")

    def __init__(self, closed, failure=None, witness_poly=None):
        self.closed = closed
        self.failure = failure
        self.witness_poly = witness_poly

    def lines(self):
        out = [f"closed-under-derivation-complementation-multiplication: {self.closed}"]
        if self.failure:
            out.append("first failure: " + " ".join(str(x) for x in self.failure))
        if self.witness_poly is not None:
            from goa.poly import format_poly
            out.append("witness polynomial:")
            out.extend("  " + line for line in format_poly(self.witness_poly).splitlines())
        return out


def verify_goa_closure(p: Partition, deadline=None) -> GoaReport:
    """Is the span of the block indicator-sums closed under derivation,
    complementation, and pairwise multiplication?

    Membership is tested in the idempotent basis: a polynomial lies in
    the span of evaluation-constant functions iff its idempotent
    coefficients are constant on every block.  Usable on arbitrary
    partitions; strong regularity is not assumed.  Past deadline (a
    time.monotonic() reading, see errors.budget_deadline) it raises
    BudgetExceeded.
    """
    from goa.operators import complementation, derivation
    from goa.poly import EPS, Poly
    polys = [Poly.block_sum(p.g, block) for block in p.blocks]
    total = 2 * len(polys) + len(polys) * (len(polys) + 1) // 2

    def images():
        for i, q in enumerate(polys):
            yield ("derivation", i), derivation(q)
            yield ("complementation", i), complementation(q)
        for i in range(len(polys)):
            for j in range(i, len(polys)):
                yield ("multiplication", i, j), polys[i] * polys[j]

    for checked, (where, image) in enumerate(images()):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"closure test checked {checked} of {total} images")
        bad = p.block_values(image.to_basis(EPS).coeffs)[1]
        if bad is not None:
            return GoaReport(False, where + (bad,), image)
    return GoaReport(True)


def structure_constants(p: Partition, i: int, j: int):
    """Coefficients of (block i poly) * (block j poly) on the block basis,
    by Moebius inversion over the coefficient matrix, cross-checked against
    the direct product."""
    matrix = p.matrix
    s = matrix.s
    ent, sizes = matrix.entries, matrix.member_sizes
    moebius = []
    for k in range(s):
        total = 0
        for l in range(s):
            term = ent[k][l] * ent[l][i] * ent[l][j]
            if term:
                total += (-1) ** (sizes[k] - sizes[l]) * term
        moebius.append(total)
    product = p.block_poly(i) * p.block_poly(j)
    direct, bad = p.block_values(product.coeffs)
    if bad is not None:
        raise VerificationFailure(
            f"product of blocks ({i},{j}) is not constant on block {bad}")
    if direct != moebius:
        raise VerificationFailure(
            f"structure constants disagree for ({i},{j}): "
            f"moebius {moebius} vs direct {direct}")
    return tuple(moebius)


def mnukhin_check(p: Partition, m: int) -> bool:
    """Entrywise power law of the coefficient matrix: the (i,j) entry of
    M^m equals m^(size_i - size_j) times the (i,j) entry of M."""
    from fractions import Fraction
    from goa.linalg import mat_inverse, mat_pow
    if m == 0:
        raise InputError("power must be a nonzero integer")
    matrix = p.matrix
    base = [list(row) for row in matrix.entries]
    power = mat_pow(base if m > 0 else mat_inverse(base), abs(m))
    sizes = matrix.member_sizes
    for i in range(matrix.s):
        for j in range(matrix.s):
            expected = matrix.entries[i][j] * Fraction(m) ** (sizes[i] - sizes[j]) \
                if matrix.entries[i][j] else 0
            if power[i][j] != expected:
                raise VerificationFailure(
                    f"matrix power law fails at ({i},{j}) for m={m}: "
                    f"{power[i][j]} != {expected}")
    return True


def merge_blocks(p: Partition, i: int, j: int) -> Partition:
    if i == j:
        raise InputError("cannot merge a block with itself")
    if p.member_size(i) != p.member_size(j):
        warnings.warn("merging blocks of different member sizes", stacklevel=2)
    blocks = [list(b) for b in p.blocks]
    merged = blocks[i] + blocks[j]
    rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
    return Partition.from_blocks(p.g, rest + [merged])


def partition_from_polys(polys) -> Partition:
    """Classes of the relation 'every given polynomial takes equal values'."""
    from goa.poly import EPS
    if not polys:
        raise InputError("need at least one polynomial")
    g = polys[0].g
    if any(q.g != g for q in polys):
        raise InputError("polynomials live on different ground sets")
    groups = {}
    values = [q.to_basis(EPS).coeffs for q in polys]
    for mask, key in enumerate(zip(*values)):
        groups.setdefault(key, []).append(mask)
    return Partition.from_blocks(g, list(groups.values()))


# ---------------------------------------------------------------------------
# Partition file format
# ---------------------------------------------------------------------------

def parse_partition_text(text: str) -> Partition:
    """Line 1 'n <int>'; each later nonempty line one block, members
    separated by ' ; ', each in subset syntax.  '#' starts a comment."""
    g, body = parse_header(text, "partition")
    blocks = []
    for lineno, line in body:
        try:
            blocks.append([parse_subset(part, g) for part in line.split(";")])
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return Partition.from_blocks(g, blocks)


def format_partition(p: Partition) -> str:
    lines = [f"n {p.g.n}"]
    for block in p.blocks:
        lines.append(" ; ".join(format_subset(m) for m in block))
    return "\n".join(lines)
