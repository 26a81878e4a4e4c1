"""The exact operator-identity suite behind the `identities` subcommand.

Every check is an exact equality of integer or rational quantities; the
suite returns (name, ok, detail) triples and is deterministic given the
seed (which only feeds the random-polynomial spot checks).

Each identity is checked once per S_n orbit, not on every basis vector.
A permutation sigma of the points acts on polynomials by p_A -> p_{sigma A},
and every operator in the suite commutes with it: derivation,
complementation, the ell powers, the idempotent map epsilon_map and its
inverse, E[k,l,r], and the P-basis product (sigma(x y) = sigma x sigma y).
If two such equivariant linear maps F, G agree on p_A, they agree on
p_{sigma A}, since F(p_{sigma A}) = sigma F(p_A) = sigma G(p_A) =
G(p_{sigma A}).  S_n is transitive on the k-subsets, so a linear identity
holds on every basis vector once it holds on one vector per size (here
the last k points, see _run); the same argument for equivariant bilinear
maps needs one pair (A, B) per orbit of pairs, i.e. per
(|A - B|, |B - A|, |A & B|): C(n+3, 3) pairs instead of 4^n.  The
constructive generation check (goa.terwilliger) runs the same way.  The
transpose check stays on the full basis because it is the one check
that does not assume equivariance: it compares two operators entry by
entry, so it catches a fault in e_klr that breaks equivariance, which
every per-orbit check can miss (tests/test_identities.py has such a
mutant).  The reduction rests on the equivariance, which
tests/test_operators.py checks under random permutations;
tests/test_identities.py keeps the full-basis suite as the oracle of
this one.  The suite accepts n <= 8 and refuses larger n before it
runs any check.
"""

import random
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul

from goa.errors import DEFAULT_SEED, InputError
from goa.operators import (complementation, derivation, e_klr, ell_power,
                           ell_power_series, epsilon_inverse, epsilon_map,
                           vandermonde_coeffs)
from goa.poly import P, Poly
from goa.subsets import GroundSet, enumerate_by_size, popcount, submasks
from goa.terwilliger import verify_terwilliger_generation


def _random_poly(g, rng):
    return Poly(g, P, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(g.size)])


def _run(start, count):
    """The mask of the count consecutive points above the first start."""
    return ((1 << count) - 1) << start


def identity_suite(g: GroundSet, seed: int = DEFAULT_SEED):
    n = g.n
    if n > 8:
        raise InputError("identities suite supports n <= 8")
    rng = random.Random(seed)
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    reps = [_run(n - k, k) for k in range(n + 1)]   # one basis vector per size
    terms = {a: Poly.term(g, a) for a in reps}
    zero = Poly.zero(g)

    # one derivation chain per size: d^k p_A is k! times the sum of p_B
    # over the (|A|-k)-subsets B of A, and d^(n+1) p_A = 0
    weights_ok = nilpotent_ok = True
    deriv = {}
    for a in reps:
        chain = [terms[a]]
        for _ in range(n + 1):
            chain.append(derivation(chain[-1]))
        deriv[a] = chain[1]
        size = popcount(a)
        for k in range(1, size + 1):
            expected = [0] * g.size
            for b in submasks(a):
                if popcount(b) == size - k:
                    expected[b] = factorial(k)
            weights_ok = weights_ok and list(chain[k].coeffs) == expected
        nilpotent_ok = nilpotent_ok and chain[n + 1].is_zero()
    add("derivation powers carry factorial weights", weights_ok)
    add("derivation nilpotent of order n+1", nilpotent_ok)

    # ell power composition and inverse, applied to one vector per size;
    # the table also holds the powers 1..n+1 for the Vandermonde check
    ms = [-2, -1, 1, 2, 3]
    needed = {r + s for r in ms for s in ms if r + s != 0} | set(ms) | set(range(1, n + 2))
    ell = {m: {a: ell_power(m, terms[a]) for a in reps} for m in sorted(needed)}
    ok = all(ell_power(r, ell[s][a]) == ell[r + s][a]
             for a in reps for r in ms for s in ms if r + s != 0)
    add("ell powers compose additively", ok)
    add("ell inverse times ell is the identity",
        all(ell_power(-1, ell[1][a]) == terms[a] for a in reps))

    # ell_power agrees with its defining series (random spot checks)
    ok = all(ell_power(m, q) == ell_power_series(m, q)
             for m in ms for q in [_random_poly(g, rng)])
    add("ell power equals the truncated exponential series", ok)

    # derivation as a rational combination of ell powers, compared in
    # integers: den * d(p_A) = sum of (den * a_r) * ell^r(p_A)
    coeffs = vandermonde_coeffs(g)
    den = lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (den // c.denominator) for c in coeffs]
    ok = all([den * x for x in deriv[a].coeffs]
             == [sum(map(mul, scaled, col))
                 for col in zip(*(ell[r][a].coeffs for r in range(1, n + 2)))]
             for a in reps)
    add("derivation equals the vandermonde combination of ell powers", ok)

    # epsilon via the operator composite vs the alternating superset sum;
    # one pair (A, B) per (|A - B|, |B - A|, |A & B|) = (i, j, c), and A
    # runs through reps, so eps holds every vector both checks read
    pairs = [(_run(n - c - i, c + i), _run(n - c, c) | _run(n - c - i - j, j))
             for c in range(n + 1) for i in range(n + 1 - c) for j in range(n + 1 - c - i)]
    eps = {a: epsilon_map(Poly.term(g, a)) for a in set().union(*pairs)}
    ok = True
    for a in reps:
        expected = [0] * g.size
        for b in g.masks():
            if b & a == a:
                expected[b] = (-1) ** (popcount(b) - popcount(a))
        ok = ok and list(eps[a].coeffs) == expected
    add("epsilon composite matches the alternating superset sum", ok)

    ok = all(epsilon_inverse(epsilon_map(q)) == q for q in [_random_poly(g, rng)])
    add("epsilon inverse round trip", ok)

    # idempotents: eps_A * eps_B = [A == B] eps_A, multiplied in the P basis
    ok = all(eps[a] * eps[b] == (eps[a] if a == b else zero) for a, b in pairs)
    add("idempotent basis multiplies orthogonally", ok)

    # stratification completeness: summing E[k,l,r] over r gives the full level map
    ok = True
    for k in range(n + 1):
        for l in range(n + 1):
            total = zero
            for r in range(min(k, l) + 1):
                total = total + e_klr(g, k, l, r)(terms[reps[k]])
            if total != Poly.block_sum(g, enumerate_by_size(g, l)):
                ok = False
    add("intersection strata sum to the full level map", ok)

    # constructive generation (with its rank checks) and the dimension count
    rep = verify_terwilliger_generation(g)
    add("generation from derivation and complementation", rep.ok,
        "" if rep.ok else str(rep.first_failure))
    add("operator-space dimension equals C(n+3,3)",
        rep.dim_reconstructed == comb(n + 3, 3),
        f"{rep.dim_reconstructed} vs {comb(n + 3, 3)}")

    # zero operator above half: direct count route
    ok = all(e_klr(g, k, k, 0)(terms[reps[k]]).is_zero()
             for k in range(n // 2 + 1, n + 1))
    add("disjointness operator vanishes above n/2", ok)

    # transpose duality: coefficient b of up(p_a) equals coefficient a of
    # down(p_b), on every mask.  Both dicts are keyed (a, b) and hold only
    # nonzero entries: an entry missing from both is 0 on both sides.
    basis = [Poly.term(g, a) for a in g.masks()]
    ok = True
    for r in range(n):
        raise_op, lower_op = e_klr(g, r, r + 1, r), e_klr(g, r + 1, r, r)
        up = {(a, b): c for a, p in enumerate(basis) for b, c in raise_op(p).terms()}
        down = {(a, b): c for b, p in enumerate(basis) for a, c in lower_op(p).terms()}
        if up != down:
            ok = False
    add("raising and lowering operators are transposes", ok)

    # complementation conjugation: comp . d . comp raises one level
    ok = True
    for a in reps:
        lhs = complementation(derivation(complementation(terms[a])))
        expected = Poly(g, P, [1 if b & a == a and popcount(b) == popcount(a) + 1 else 0
                               for b in g.masks()])
        ok = ok and lhs == expected
    add("complementation conjugates derivation into raising", ok)

    return checks
