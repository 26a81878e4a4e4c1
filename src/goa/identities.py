"""The exact operator-identity suite behind the `identities` subcommand.

Every check is an exact equality of integer or rational quantities; the
suite returns (name, ok, detail) triples and is deterministic given the
seed (which only feeds the random-polynomial spot checks).
"""

import random
from fractions import Fraction
from math import comb, factorial

from goa.operators import (complementation, derivation, e_klr, ell_power,
                           ell_power_series, epsilon_inverse, epsilon_map,
                           vandermonde_coeffs)
from goa.poly import P, Poly
from goa.subsets import GroundSet, enumerate_by_size, popcount
from goa.terwilliger import verify_terwilliger_generation

DEFAULT_SEED = 1789


def _random_poly(g, rng):
    return Poly(g, P, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(g.size)])


def identity_suite(g: GroundSet, seed: int = DEFAULT_SEED):
    n = g.n
    rng = random.Random(seed)
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # derivation powers: d^k p_A = sum over (|A|-k)-subsets B of A of k! p_B
    ok = True
    for a in g.masks():
        cur = Poly.term(g, a)
        for k in range(1, popcount(a) + 1):
            cur = derivation(cur)
            expected = [0] * g.size
            for b in g.masks():
                if b & a == b and popcount(b) == popcount(a) - k:
                    expected[b] = factorial(k)
            if list(cur.coeffs) != expected:
                ok = False
    add("derivation powers carry factorial weights", ok)

    # nilpotency: d^(n+1) = 0
    ok = True
    for a in g.masks():
        cur = Poly.term(g, a)
        for _ in range(n + 1):
            cur = derivation(cur)
        ok = ok and cur.is_zero()
    add("derivation nilpotent of order n+1", ok)

    # ell power composition and inverse, applied to every basis vector
    ms = [-2, -1, 1, 2, 3]
    needed = sorted({r + s for r in ms for s in ms if r + s != 0} | set(ms))
    terms = [Poly.term(g, a) for a in g.masks()]
    ell = {m: [ell_power(m, p) for p in terms] for m in needed}
    ok = all(ell_power(r, ell[s][a]) == ell[r + s][a]
             for a in g.masks() for r in ms for s in ms if r + s != 0)
    add("ell powers compose additively", ok)
    add("ell inverse times ell is the identity",
        all(ell_power(-1, ell[1][a]) == terms[a] for a in g.masks()))

    # ell_power agrees with its defining series (random spot checks)
    ok = all(ell_power(m, q) == ell_power_series(m, q)
             for m in ms for q in [_random_poly(g, rng)])
    add("ell power equals the truncated exponential series", ok)

    # derivation as a rational combination of ell powers
    coeffs = vandermonde_coeffs(g)
    ok = True
    for a in g.masks():
        p = Poly.term(g, a)
        combo = Poly.zero(g)
        for r, c in enumerate(coeffs, start=1):
            combo = combo + ell_power(r, p).scale(c)
        ok = ok and combo == derivation(p)
    add("derivation equals the vandermonde combination of ell powers", ok)

    # epsilon via the operator composite vs the alternating superset sum
    ok = True
    for a in g.masks():
        via_ops = epsilon_map(Poly.term(g, a))
        expected = [0] * g.size
        for b in g.masks():
            if b & a == a:
                expected[b] = (-1) ** (popcount(b) - popcount(a))
        ok = ok and list(via_ops.coeffs) == expected
    add("epsilon composite matches the alternating superset sum", ok)

    ok = all(epsilon_inverse(epsilon_map(q)) == q for q in [_random_poly(g, rng)])
    add("epsilon inverse round trip", ok)

    # idempotents: eps_A * eps_B = [A == B] eps_A, multiplied in the P basis
    eps = [epsilon_map(Poly.term(g, a)) for a in g.masks()]
    ok = True
    for a in g.masks():
        for b in g.masks():
            product = eps[a] * eps[b]
            expected = eps[a] if a == b else Poly.zero(g)
            if product != expected:
                ok = False
    add("idempotent basis multiplies orthogonally", ok)

    # stratification completeness: summing E[k,l,r] over r gives the full level map
    ok = True
    for k in range(n + 1):
        for l in range(n + 1):
            ops = [e_klr(g, k, l, r) for r in range(min(k, l) + 1)]
            for a in enumerate_by_size(g, k):
                total = Poly.zero(g)
                for op in ops:
                    total = total + op(Poly.term(g, a))
                expected = Poly.block_sum(g, enumerate_by_size(g, l))
                if total != expected:
                    ok = False
    add("intersection strata sum to the full level map", ok)

    # constructive generation, dimension count, transpose duality, ranks
    rep = verify_terwilliger_generation(g)
    add("generation from derivation and complementation", rep.ok,
        "" if rep.ok else str(rep.first_failure))
    add("operator-space dimension equals C(n+3,3)",
        rep.dim_reconstructed == comb(n + 3, 3),
        f"{rep.dim_reconstructed} vs {comb(n + 3, 3)}")

    # zero operator above half: direct count route
    ok = True
    for k in range(n // 2 + 1, n + 1):
        op = e_klr(g, k, k, 0)
        for a in enumerate_by_size(g, k):
            if not op(Poly.term(g, a)).is_zero():
                ok = False
    add("disjointness operator vanishes above n/2", ok)

    # transpose duality: coefficient b of up(p_a) equals coefficient a of down(p_b)
    ok = True
    for r in range(n):
        raise_op, lower_op = e_klr(g, r, r + 1, r), e_klr(g, r + 1, r, r)
        up = [raise_op(p).coeffs for p in terms]
        down = [lower_op(p).coeffs for p in terms]
        if not all(up[a][b] == down[b][a] for a in g.masks() for b in g.masks()):
            ok = False
    add("raising and lowering operators are transposes", ok)

    # complementation conjugation: comp . d . comp raises one level
    ok = True
    for a in g.masks():
        p = Poly.term(g, a)
        lhs = complementation(derivation(complementation(p)))
        expected = Poly(g, P, [1 if b & a == a and popcount(b) == popcount(a) + 1 else 0
                               for b in g.masks()])
        ok = ok and lhs == expected
    add("complementation conjugates derivation into raising", ok)

    return checks
