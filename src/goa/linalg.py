"""Small exact linear algebra helpers over the rationals.

Matrices are lists of row lists holding ints or Fractions.  The
solvers share one Gauss-Jordan routine, `_rref`, which reduces a
matrix (with optional augmented columns) to reduced row echelon form;
sizes in this package stay tiny.
"""

from fractions import Fraction

from goa.errors import InputError


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


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
    return len(_rref(a, [()] * len(a))[1])


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
