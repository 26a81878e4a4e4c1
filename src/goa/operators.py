"""Linear operators on the lattice algebra: derivation, complementation,
the down-set accumulation operator and its integer powers, the idempotent
change of basis, and the intersection-stratified operator family E[k,l,r]
that spans the Terwilliger algebra of the hypercube.

All operators act on P-basis polynomials and return P-basis polynomials.
Each commutes with S_n permuting the points, sigma . p_A = p_{sigma A}:
op(sigma . v) = sigma . op(v).  goa.identities relies on this to check
each identity between them once per S_n orbit.
"""

from itertools import combinations
from math import factorial, lcm

from goa.errors import InputError
from goa.poly import P, Poly
from goa.subsets import GroundSet, popcount, subset_sum


def _require_p_basis(p: Poly):
    if p.basis != P:
        raise InputError("operator expects a P-basis polynomial; convert first")


def derivation(p: Poly) -> Poly:
    """p_A  ->  sum of p_{A minus i} over the elements i of A.  Nilpotent of
    order n+1, and S_n-equivariant: sigma A minus sigma i runs over the
    images of the A minus i."""
    _require_p_basis(p)
    out = [0] * p.g.size
    for a, c in p.terms():
        m = a
        while m:
            bit = m & -m
            out[a ^ bit] += c
            m ^= bit
    return Poly(p.g, P, out)


def complementation(p: Poly) -> Poly:
    """p_A -> p_{complement of A}; an involution.  The complement of a
    mask is full - mask, so this reverses p.coeffs, bytes or tuple (see
    goa.poly), into the same form.  S_n-equivariant: the complement of
    sigma A is sigma of the complement."""
    _require_p_basis(p)
    return Poly(p.g, P, p.coeffs[::-1])


def ell_power(m: int, p: Poly) -> Poly:
    """The m-th power of the down-set operator: equals the exact series
    sum over k of (m^k / k!) * derivation^k, i.e. sends p_A to the sum
    of m^(|A|-|B|) p_B over subsets B of A.

    Coefficient B of the image is a weighted sum over the supersets of
    B.  Reversing the vector (complementation) turns superset sums into
    subset sums, so this is subset_sum with w = m between two reversals;
    packed coeffs (see goa.poly) stay bytes through both when subset_sum
    holds the image in 1-byte fields.
    The series form is kept as a tested identity (see ell_power_series).
    m must be a nonzero integer.  S_n-equivariant: the subsets of sigma A
    are the images of the subsets of A, with the same sizes.
    """
    if m == 0:
        raise InputError("ell_power requires a nonzero integer power")
    _require_p_basis(p)
    return Poly(p.g, P, subset_sum(p.coeffs[::-1], p.g.n, m)[::-1])


def ell_power_series(m: int, p: Poly) -> Poly:
    """Reference route for ell_power: the literal truncated exponential
    series sum over k = 0..n of (m^k / k!) * derivation^k.

    It runs in ints.  With den the lcm of the denominators of p, the
    series of den * p is summed with every term times n!, so term k has
    the int weight m^k * n!/k!; each entry of the sum is divided by
    den * n! once at the end, and comes back an int when it is integral.
    """
    from fractions import Fraction
    if m == 0:
        raise InputError("ell_power requires a nonzero integer power")
    _require_p_basis(p)
    n = p.g.n
    den = lcm(*(c.denominator for c in p.coeffs))
    cur = Poly(p.g, P, [c.numerator * (den // c.denominator) for c in p.coeffs])
    acc = [factorial(n) * c for c in cur.coeffs]
    weight = factorial(n)
    for k in range(1, n + 1):
        cur = derivation(cur)
        weight = weight * m // k   # m^k * n!/k!, exact since k! divides n!
        for a, c in cur.terms():
            acc[a] += weight * c
    total = den * factorial(n)
    return Poly(p.g, P, [v // total if v % total == 0 else Fraction(v, total) for v in acc])


def epsilon_map(p: Poly) -> Poly:
    """complementation . ell^{-1} . complementation: sends p_A to the
    idempotent indicator of A, expressed in the P basis.  S_n-equivariant,
    as a composite of equivariant maps."""
    return complementation(ell_power(-1, complementation(p)))


def epsilon_inverse(p: Poly) -> Poly:
    """complementation . ell . complementation, the inverse of epsilon_map;
    S_n-equivariant, as a composite of equivariant maps."""
    return complementation(ell_power(1, complementation(p)))


def vandermonde_coeffs(g: GroundSet):
    """The unique rationals a_1..a_{n+1} with
    derivation = sum of a_r * ell^r, obtained by solving
    sum_r a_r r^k = [k == 1] for k = 0..n exactly."""
    from fractions import Fraction
    from goa.linalg import solve_exact
    n = g.n
    rows = [[Fraction(r) ** k for r in range(1, n + 2)] for k in range(n + 1)]
    rhs = [Fraction(1) if k == 1 else Fraction(0) for k in range(n + 1)]
    return solve_exact(rows, rhs)


class LinearOperator:
    """A linear map on P-basis polynomials."""

    __slots__ = ("g", "apply")

    def __init__(self, g: GroundSet, apply):
        self.g = g
        self.apply = apply

    def __call__(self, p: Poly) -> Poly:
        return self.apply(p)


def e_klr(g: GroundSet, k: int, l: int, r: int) -> LinearOperator:
    """The operator sending a size-k set indicator p_A to the sum of p_B
    over size-l sets B meeting A in exactly r points; kills other levels.
    S_n-equivariant: |sigma A & sigma B| = |A & B|, and sigma keeps sizes.

    The image of p_A costs its C(k, r) * C(n-k, l-r) targets, each B an
    r-subset of A joined with an (l-r)-subset of the complement of A,
    and one 2^n-entry vector.  A p with no term of size k maps to the
    operator's one zero polynomial, which costs nothing per call.
    Triples violating r <= k, r <= l, k+l-r <= n are accepted and yield
    the zero operator, since one of the two subset lists is empty.
    """
    if k < 0 or l < 0 or r < 0:
        raise InputError("E[k,l,r] indices must be nonnegative")

    zero = Poly.zero(g)

    def apply(p: Poly, _k=k, _l=l, _r=r) -> Poly:
        _require_p_basis(p)
        out = None
        for a, c in p.terms():
            if popcount(a) != _k:
                continue
            if out is None:
                out = [0] * p.g.size
            outside = _subsets_of_size(p.g.full_mask ^ a, _l - _r)
            for inside in _subsets_of_size(a, _r):
                for b in outside:
                    out[inside | b] += c
        if out is None:   # no term of p has size k
            return zero if p.g is g else Poly.zero(p.g)
        return Poly(p.g, P, out)

    return LinearOperator(g, apply)


def _subsets_of_size(mask: int, size: int):
    """The masks of the size-element subsets of mask; none if size is
    negative or above the size of mask."""
    count = popcount(mask)
    if not 0 < size < count:
        return [mask if size else 0] if size in (0, count) else []
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    if 2 * size <= count:
        return list(map(sum, combinations(bits, size)))
    # fewer elements to leave out than to choose
    return list(map(mask.__xor__, map(sum, combinations(bits, count - size))))


def admissible_triples(g: GroundSet):
    """All (k,l,r) with r <= min(k,l) and k+l-r <= n, in lexicographic order."""
    out = []
    for k in range(g.n + 1):
        for l in range(g.n + 1):
            for r in range(max(0, k + l - g.n), min(k, l) + 1):
                out.append((k, l, r))
    return out
