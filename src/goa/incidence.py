"""Incidence functions: the intersection-pattern invariants of tuples of
subsets, and the operators they index.

An order-t incidence function assigns to every J in P({1..t}) the size of
the intersection of the sets indexed by J (with mu(empty) = n, the size
of the whole ground set, by the empty-intersection convention).  A
nonnegative integer function is realizable exactly when its Moebius
transform over the index lattice is nonnegative; the transform values
are the Venn-cell cardinalities, so valid functions of order t biject
with weak compositions of n into 2^t parts.
"""

from dataclasses import dataclass
from math import comb

from goa.errors import InputError
from goa.linalg import solve_least_norm
from goa.operators import e_klr, epsilon_inverse, epsilon_map
from goa.poly import Poly
from goa.subsets import GroundSet, popcount, subset_sum


@dataclass(frozen=True)
class IncidenceFunction:
    """values[J] for J a bitmask over {1..t}; values[0] = n."""

    order: int
    values: tuple

    def mu(self, *indices):
        j = 0
        for i in indices:
            j |= 1 << (i - 1)
        return self.values[j]

    def cells(self):
        """Moebius transform over supersets: the 2^t Venn-cell
        cardinalities (subset_sum with w = -1 on the reversed vector)."""
        return tuple(subset_sum(self.values[::-1], self.order, -1)[::-1])

    def is_valid(self):
        return all(v >= 0 for v in self.cells())


def _mu_from_cells(t, cells):
    return IncidenceFunction(t, tuple(subset_sum(cells[::-1], t, 1)[::-1]))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_incidence_functions(g: GroundSet, t: int):
    """All valid order-t incidence functions with mu(empty) = n.

    Count is C(n + 2^t - 1, 2^t - 1); supported for t in {2, 3}.
    """
    if t not in (2, 3):
        raise InputError("incidence functions are implemented for orders 2 and 3")
    if t == 3 and g.n > 6:
        raise InputError("order 3 enumeration requires n <= 6")
    return [_mu_from_cells(t, cells) for cells in _compositions(g.n, 1 << t)]


def signature_of(g: GroundSet, sets):
    """The incidence function realized by a concrete tuple of masks."""
    t = len(sets)
    vals = []
    for j in range(1 << t):
        inter = g.full_mask
        for i in range(t):
            if j & (1 << i):
                inter &= sets[i]
        vals.append(popcount(inter) if j else g.n)
    return IncidenceFunction(t, tuple(vals))


def realizes(g, sets, mu: IncidenceFunction):
    return signature_of(g, sets) == mu


def e_mu(g: GroundSet, mu: IncidenceFunction, s1: int, s2: int) -> Poly:
    """Order-3 basis operator: the sum of p_A over sets A completing
    (s1, s2, A) to the intersection pattern mu.  Zero when (s1, s2)
    does not already match mu on its first two coordinates."""
    if mu.order != 3:
        raise InputError("e_mu expects an order-3 incidence function")
    if not mu.is_valid():
        raise InputError("invalid incidence function (negative Venn cell)")
    out = [0] * g.size
    if (popcount(s1), popcount(s2), popcount(s1 & s2)) == (mu.mu(1), mu.mu(2), mu.mu(1, 2)):
        for a in g.masks():
            if realizes(g, (s1, s2, a), mu):
                out[a] += 1
    return Poly(g, "P", out)


# ---------------------------------------------------------------------------
# Spanning the order-3 operators by  u . m . (v x w)  composites
# ---------------------------------------------------------------------------

def _pair_grid(g: GroundSet, full: bool):
    """Evaluation pairs (s1, s2): the whole grid, or one representative
    per intersection pattern (enough for equivariant maps)."""
    if full:
        return [(a, b) for a in g.masks() for b in g.masks()]
    reps = []
    for a1 in range(g.n + 1):
        for a2 in range(g.n + 1):
            for r in range(max(0, a1 + a2 - g.n), min(a1, a2) + 1):
                s1 = (1 << a1) - 1
                s2 = ((1 << a2) - 1) << (a1 - r)
                reps.append((s1, s2))
    return reps


def _bilinear_vector(g, fn, grid):
    vec = []
    for s1, s2 in grid:
        vec.extend(fn(s1, s2).coeffs)
    return vec


def verify_bilinear_decomposition(g: GroundSet):
    """Decompose every order-3 operator e_mu as an exact rational linear
    combination of composites  E[k,a3,r3] . h . (E[a1,k,r1] x E[a2,k,r2]),
    where h multiplies in the idempotent basis.  Returns a report dict;
    'all_ok' is True iff every residual is zero.

    h itself is eps^{-1} . m . (eps x eps), so each composite is of the
    form  u . m . (v x w)  with u, v, w in the span generated by
    derivation and complementation.
    """
    if g.n > 3:
        raise InputError("bilinear decomposition verification requires n <= 3")
    full_grid = g.n <= 2
    grid = _pair_grid(g, full=full_grid)
    mus = enumerate_incidence_functions(g, 3)

    def h(x, y):
        return epsilon_inverse(epsilon_map(x) * epsilon_map(y))

    results = []
    for a1 in range(g.n + 1):
        for a2 in range(g.n + 1):
            for a3 in range(g.n + 1):
                slice_mus = [m for m in mus
                             if (m.mu(1), m.mu(2), m.mu(3)) == (a1, a2, a3)]
                if not slice_mus:
                    continue
                columns = []
                for k in range(g.n + 1):
                    ops1 = [e_klr(g, a1, k, r1) for r1 in range(min(a1, k) + 1)]
                    ops2 = [e_klr(g, a2, k, r2) for r2 in range(min(a2, k) + 1)]
                    ops3 = [e_klr(g, k, a3, r3) for r3 in range(min(a3, k) + 1)]
                    for v in ops1:
                        for w in ops2:
                            for u in ops3:
                                def F(s1, s2, u=u, v=v, w=w):
                                    return u(h(v(Poly.term(g, s1)), w(Poly.term(g, s2))))
                                columns.append(_bilinear_vector(g, F, grid))
                matrix = [list(col) for col in zip(*columns)]
                for m in slice_mus:
                    target = _bilinear_vector(g, lambda s1, s2: e_mu(g, m, s1, s2), grid)
                    _, consistent = solve_least_norm(matrix, target)
                    results.append(((a1, a2, a3), m, consistent))
    lhs, rhs, holds = bilinear_dimension_comparison(g.n)
    return {
        "n": g.n,
        "checked": len(results),
        "failures": [(abc, m.values) for abc, m, ok in results if not ok],
        "all_ok": all(ok for _, _, ok in results),
        "grid": "full" if full_grid else "orbit representatives",
        "three_dim2_squared": lhs,
        "dim3": rhs,
        "dim_inequality_holds": holds,
    }


def bilinear_dimension_comparison(n: int):
    """Exact values of 3*C(n+7,7)^2 and C(n+15,15) and whether the first
    is smaller.  The strict inequality only sets in for very large n."""
    lhs = 3 * comb(n + 7, 7) ** 2
    rhs = comb(n + 15, 15)
    return lhs, rhs, lhs < rhs


def bilinear_dimension_crossover():
    """Least n with 3*C(n+7,7)^2 < C(n+15,15), by galloping + bisection."""
    hi = 1
    while not bilinear_dimension_comparison(hi)[2]:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bilinear_dimension_comparison(mid)[2]:
            hi = mid
        else:
            lo = mid
    return hi
