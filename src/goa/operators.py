"""Linear operators on the lattice algebra: derivation, complementation,
the down-set accumulation operator and its integer powers, the idempotent
change of basis, and the intersection-stratified operator family E[k,l,r]
that spans the Terwilliger algebra of the hypercube.

All operators act on P-basis polynomials and return P-basis polynomials.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from goa.errors import InputError
from goa.linalg import solve_exact
from goa.poly import P, Poly
from goa.subsets import GroundSet, enumerate_by_size, popcount


def _require_p_basis(p: Poly):
    if p.basis != P:
        raise InputError("operator expects a P-basis polynomial; convert first")


def derivation(p: Poly) -> Poly:
    """p_A  ->  sum of p_{A minus i} over the elements i of A.  Nilpotent of order n+1."""
    _require_p_basis(p)
    out = [0] * p.g.size
    for a, c in enumerate(p.coeffs):
        if c == 0:
            continue
        m = a
        while m:
            bit = m & -m
            out[a ^ bit] += c
            m ^= bit
    return Poly(p.g, P, out)


def complementation(p: Poly) -> Poly:
    """p_A -> p_{complement of A}; an involution."""
    _require_p_basis(p)
    full = p.g.full_mask
    out = [0] * p.g.size
    for a, c in enumerate(p.coeffs):
        if c != 0:
            out[a ^ full] = c
    return Poly(p.g, P, out)


def ell_power(m: int, p: Poly) -> Poly:
    """The m-th power of the down-set operator: equals the exact series
    sum over k of (m^k / k!) * derivation^k, i.e. sends p_A to the sum
    of m^(|A|-|B|) p_B over subsets B of A.

    Implemented as the weighted superset transform, one lattice sweep
    per element; the series form is kept as a tested identity (see
    ell_power_series).  m must be a nonzero integer.
    """
    if m == 0:
        raise InputError("ell_power requires a nonzero integer power")
    _require_p_basis(p)
    c = list(p.coeffs)
    for i in range(p.g.n):
        bit = 1 << i
        for x in range(p.g.size):
            if not x & bit:
                c[x] = c[x] + m * c[x | bit]
    return Poly(p.g, P, c)


def ell_power_series(m: int, p: Poly) -> Poly:
    """Reference route for ell_power: the literal truncated exponential
    series in the derivation."""
    if m == 0:
        raise InputError("ell_power requires a nonzero integer power")
    _require_p_basis(p)
    acc = list(p.coeffs)
    cur = p
    mk = 1
    for k in range(1, p.g.n + 1):
        cur = derivation(cur)
        mk *= m
        w = Fraction(mk, factorial(k))
        if w.denominator == 1:
            w = w.numerator
        for a, c in enumerate(cur.coeffs):
            if c != 0:
                acc[a] += w * c
    acc = [c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c for c in acc]
    return Poly(p.g, P, acc)


def epsilon_map(p: Poly) -> Poly:
    """complementation . ell^{-1} . complementation: sends p_A to the
    idempotent indicator of A, expressed in the P basis."""
    return complementation(ell_power(-1, complementation(p)))


def epsilon_inverse(p: Poly) -> Poly:
    return complementation(ell_power(1, complementation(p)))


def vandermonde_coeffs(g: GroundSet):
    """The unique rationals a_1..a_{n+1} with
    derivation = sum of a_r * ell^r, obtained by solving
    sum_r a_r r^k = [k == 1] for k = 0..n exactly."""
    n = g.n
    rows = [[Fraction(r) ** k for r in range(1, n + 2)] for k in range(n + 1)]
    rhs = [Fraction(1) if k == 1 else Fraction(0) for k in range(n + 1)]
    return solve_exact(rows, rhs)


@dataclass
class LinearOperator:
    """A named linear map on P-basis polynomials."""

    g: GroundSet
    apply: object
    name: str = ""
    admissible: bool = True

    def __call__(self, p: Poly) -> Poly:
        return self.apply(p)


def e_klr(g: GroundSet, k: int, l: int, r: int) -> LinearOperator:
    """The operator sending a size-k set indicator p_A to the sum of p_B
    over size-l sets B meeting A in exactly r points; kills other levels.

    Triples violating r <= k, r <= l, k+l-r <= n are accepted and yield
    the zero operator, flagged admissible=False.
    """
    if k < 0 or l < 0 or r < 0:
        raise InputError("E[k,l,r] indices must be nonnegative")
    admissible = r <= k and r <= l and k + l - r <= g.n and k <= g.n and l <= g.n

    level_l = enumerate_by_size(g, l) if l <= g.n else []

    def apply(p: Poly, _k=k, _l=l, _r=r, _lev=level_l) -> Poly:
        _require_p_basis(p)
        out = [0] * p.g.size
        for a, c in enumerate(p.coeffs):
            if c == 0 or popcount(a) != _k:
                continue
            for b in _lev:
                if popcount(a & b) == _r:
                    out[b] += c
        return Poly(p.g, P, out)

    return LinearOperator(g, apply, name=f"E[{k},{l},{r}]", admissible=admissible)


def admissible_triples(g: GroundSet):
    """All (k,l,r) with r <= min(k,l) and k+l-r <= n, in lexicographic order."""
    out = []
    for k in range(g.n + 1):
        for l in range(g.n + 1):
            for r in range(max(0, k + l - g.n), min(k, l) + 1):
                out.append((k, l, r))
    return out
