"""Small exact linear algebra helpers over the rationals.

Matrices are lists of row lists holding ints or Fractions.  The
solvers (solve_exact, mat_inverse, solve_least_norm) share one
Gauss-Jordan routine, `_rref`, which reduces a matrix (with optional
augmented columns) to reduced row echelon form over Fractions.  rank
takes integer matrices only and stays in integers: elimination mod a
prime on rows packed into byte fields, confirmed or replaced by
fraction-free (Bareiss) elimination.  Sizes in this package stay small.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul

from goa.errors import InputError


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def identity_matrix(s):
    return [[1 if i == j else 0 for j in range(s)] for i in range(s)]


def mat_pow(a, e):
    """a^e for an integer e >= 0, by repeated squaring."""
    out = identity_matrix(len(a))
    base = a
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def _rref(a, extra):
    """Gauss-Jordan elimination of a with the rows of extra appended.

    extra holds one (possibly empty) row per row of a; those columns are
    carried along but never chosen as pivots.  Returns (rows, pivots):
    the reduced augmented rows as Fractions, and the pivot columns of a
    in order, so len(pivots) is the rank of a.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in ext]
         for row, ext in zip(a, extra)]
    pivots = []
    for col in range(cols):
        rk = len(pivots)
        if rk == rows:
            break
        piv = next((r for r in range(rk, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = 1 / m[rk][col]
        m[rk] = [x * inv for x in m[rk]]
        for r in range(rows):
            if r != rk and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rk])]
        pivots.append(col)
    return m, pivots


def solve_exact(a, b):
    """Solve the square system a x = b exactly; raises on singular input."""
    n = len(a)
    m, pivots = _rref(a, [[v] for v in b])
    if len(pivots) < n:
        raise InputError("singular system")
    return [m[r][n] for r in range(n)]


def mat_inverse(a):
    n = len(a)
    m, pivots = _rref(a, identity_matrix(n))
    if len(pivots) < n:
        raise InputError("matrix is singular")
    return [[x.numerator if x.denominator == 1 else x for x in row[n:]] for row in m]


def rank(a):
    """Rank of an integer matrix: by elimination mod the prime 127 when
    that gives full rank, else by fraction-free (Bareiss) elimination.

    Mod p: a minor of a that is nonzero mod p is nonzero over Z, so the
    rank mod p is at most the rank, and a full rank mod p, min(rows,
    cols), is the rank.  Anything less may be a drop mod p, so the exact
    Bareiss route answers; it is also the test oracle of the mod-p route.
    The level blocks of the identity suite (n <= 12) have full rank mod
    any prime p > n + 1 (Wilson, European J. Combin. 11 (1990)), but the
    answer does not rest on that: a drop only costs the exact route.
    """
    m = list(a)
    if not set(map(type, chain.from_iterable(m))) <= {int}:
        raise InputError("rank expects a matrix of ints")
    full = min(len(m), len(m[0])) if m else 0
    if _rank_mod_p(m if len(m) == full else list(zip(*m))) == full:
        return full
    return _bareiss_rank(m)


_P = 127   # every field of a packed row, and the sum of two, stays below 2p < 256


@lru_cache(maxsize=None)
def _times(s):
    """The bytes.translate table that multiplies each field by s mod p."""
    return bytes(s * x % _P for x in range(256))


def _rank_mod_p(rows):
    """Rank mod p of an integer matrix, its rows the smaller dimension.

    Each row is packed into one int of byte fields, field j = column j,
    each in 0..p-1.  A step takes any nonzero row as the pivot, its
    lowest nonzero field as the pivot column, and clears that column from
    every other row y by y + t, where t = pivot.translate(table) is the
    pivot times -y[col]/pivot[col] mod p.  Fields of y + t are below 2p
    = 254, so nothing carries, and bit 7 of a field of y + t + ONES is
    set exactly where the field is >= p: there p is subtracted.  The
    pivot row is then independent of the rest, so the rank is the number
    of steps before every row is zero.
    """
    width = len(rows[0]) if rows else 0
    ones = int.from_bytes(b"\1" * width, "little")
    high = ones << 7
    pending = [x for x in (int.from_bytes(bytes(map(_P.__rmod__, row)), "little")
                           for row in rows) if x]
    rk = 0
    while pending:
        x = pending.pop()
        shift = ((x & -x).bit_length() - 1) & ~7   # the lowest nonzero field
        piv = x.to_bytes(width, "little")
        lead = pow(x >> shift & 255, -1, _P)
        rest = []
        for y in pending:
            f = y >> shift & 255
            if f:
                y += int.from_bytes(piv.translate(_times(-f * lead % _P)), "little")
                y -= (((y + ones) & high) >> 7) * _P
                if not y:
                    continue
            rest.append(y)
        pending = rest
        rk += 1
    return rk


def _bareiss_rank(m):
    """Rank of a list of int rows by fraction-free (Bareiss) elimination.

    After each pivot step, every entry below the pivot rows is a minor of
    a (pivot rows and columns plus its own row and column), so dividing
    by the previous pivot is exact and the entries stay integers.
    """
    m = list(m)   # rows are replaced, never changed in place
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rk, prev = 0, 1
    for col in range(cols):
        if rk == rows:
            break
        piv = next((r for r in range(rk, rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        top = m[rk]
        p = top[col]
        for r in range(rk + 1, rows):
            f = m[r][col]
            m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = p
        rk += 1
    return rk


def solve_least_norm(a, b):
    """Solve a x = b for a possibly rectangular exact system.

    Returns (solution, residual_is_zero).  The solution sets free
    variables to zero; residual_is_zero reports whether b lies in the
    column span of a.
    """
    cols = len(a[0]) if a else 0
    m, pivots = _rref(a, [[v] for v in b])
    consistent = all(row[cols] == 0 for row in m[len(pivots):])
    x = [Fraction(0)] * cols
    for row, col in zip(m, pivots):
        x[col] = row[cols]
    return x, consistent
