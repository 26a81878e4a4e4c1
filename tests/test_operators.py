import random
from fractions import Fraction
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa.errors import InputError
from goa.operators import (complementation, derivation, e_klr, ell_power,
                           ell_power_series, epsilon_inverse, epsilon_map,
                           vandermonde_coeffs)
from goa.perms import action_table
from goa.poly import EPS, P, Poly
from goa.subsets import GroundSet, mask_of, popcount


def x(g, *elems):
    return Poly.term(g, mask_of(elems))


def rand_poly(g, rng):
    return Poly(g, P, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(g.size)])


def test_derivation_examples(g3):
    assert derivation(x(g3, 1, 2)) == x(g3, 1) + x(g3, 2)
    assert derivation(Poly.one(g3)).is_zero()
    assert derivation(x(g3, 1, 2, 3)) == x(g3, 1, 2) + x(g3, 1, 3) + x(g3, 2, 3)


def test_derivation_rejects_eps_basis(g3):
    with pytest.raises(InputError):
        derivation(Poly.term(g3, 0, basis=EPS))


def test_derivation_power_formula_exhaustive():
    for n in (2, 3, 5):
        g = GroundSet(n)
        for a in g.masks():
            cur = Poly.term(g, a)
            for k in range(1, n + 2):
                cur = derivation(cur)
                expected = Poly(g, P, [
                    factorial(k) if b & a == b and popcount(b) == popcount(a) - k else 0
                    for b in g.masks()])
                assert cur == expected


def test_complementation_examples(g3):
    assert complementation(Poly.one(g3)) == x(g3, 1, 2, 3)
    assert complementation(x(g3, 1) + x(g3, 2)) == x(g3, 1, 3) + x(g3, 2, 3)
    rng = random.Random(7)
    p = rand_poly(g3, rng)
    assert complementation(complementation(p)) == p


def test_paper_table_of_images(g3, example_partition):
    # the full derivation/complementation table of the six block polynomials
    b = [example_partition.block_poly(i) for i in range(6)]
    assert derivation(b[0]).is_zero()
    assert derivation(b[1]) == 2 * Poly.one(g3)
    assert derivation(b[2]) == Poly.one(g3)
    assert derivation(b[3]) == b[1]
    assert derivation(b[4]) == b[1] + 2 * b[2]
    assert derivation(b[5]) == b[3] + b[4]
    assert complementation(b[0]) == b[5]
    assert complementation(b[1]) == b[4]
    assert complementation(b[2]) == b[3]


def test_ell_examples(g3):
    assert ell_power(1, x(g3, 1, 2)) == \
        Poly.one(g3) + x(g3, 1) + x(g3, 2) + x(g3, 1, 2)
    assert ell_power(2, x(g3, 1)) == x(g3, 1) + 2 * Poly.one(g3)
    rng = random.Random(11)
    p = rand_poly(g3, rng)
    assert ell_power(1, ell_power(-1, p)) == p


def test_ell_zero_power_rejected(g3):
    with pytest.raises(InputError):
        ell_power(0, Poly.one(g3))


def test_ell_matches_series_route():
    for n in (2, 4):
        g = GroundSet(n)
        rng = random.Random(n)
        for m in (-3, -1, 1, 2, 3):
            p = rand_poly(g, rng)
            assert ell_power(m, p) == ell_power_series(m, p)


def test_epsilon_examples():
    g2 = GroundSet(2)
    assert epsilon_map(Poly.term(g2, g2.full_mask)) == Poly.term(g2, g2.full_mask)
    g1 = GroundSet(1)
    assert epsilon_map(Poly.one(g1)) == Poly.one(g1) - Poly.term(g1, 1)
    rng = random.Random(3)
    p = rand_poly(GroundSet(4), rng)
    assert epsilon_inverse(epsilon_map(p)) == p


def test_epsilon_agrees_with_basis_change():
    # the operator route lands on the same P-basis vector as the basis
    # conversion of an idempotent indicator
    for n in (2, 3, 6):
        g = GroundSet(n)
        for a in g.masks():
            via_ops = epsilon_map(Poly.term(g, a))
            via_basis = Poly.term(g, a, basis=EPS).to_basis(P)
            assert via_ops == via_basis


def test_vandermonde_small_case():
    assert vandermonde_coeffs(GroundSet(1)) == [Fraction(-1), Fraction(1)]


def test_vandermonde_moment_equations():
    for n in (1, 2, 5, 8):
        coeffs = vandermonde_coeffs(GroundSet(n))
        assert sum(coeffs) == 0
        assert sum(c * (r + 1) for r, c in enumerate(coeffs)) == 1
        for k in range(2, n + 1):
            assert sum(c * (r + 1) ** k for r, c in enumerate(coeffs)) == 0


def test_vandermonde_reconstructs_derivation():
    for n in (1, 3, 5):
        g = GroundSet(n)
        coeffs = vandermonde_coeffs(g)
        for a in g.masks():
            p = Poly.term(g, a)
            combo = Poly.zero(g)
            for r, c in enumerate(coeffs, start=1):
                combo = combo + ell_power(r, p).scale(c)
            assert combo == derivation(p)


def test_e_klr_examples(g3):
    assert e_klr(g3, 1, 1, 0)(x(g3, 1)) == x(g3, 2) + x(g3, 3)
    op = e_klr(g3, 2, 2, 0)
    assert all(op(Poly.term(g3, a)).is_zero() for a in g3.masks())
    g2 = GroundSet(2)
    assert e_klr(g2, 1, 2, 1)(Poly.term(g2, 1)) == Poly.term(g2, 3)


def test_e_klr_negative_arguments(g3):
    with pytest.raises(InputError):
        e_klr(g3, -1, 0, 0)


def test_e_klr_kills_other_levels(g3):
    op = e_klr(g3, 1, 2, 1)
    assert op(x(g3, 1, 2)).is_zero()
    assert op(Poly.one(g3)).is_zero()


def test_nilpotency_at_the_dense_bound():
    g = GroundSet(8)
    for a in g.masks():
        cur = Poly.term(g, a)
        for _ in range(g.n + 1):
            cur = derivation(cur)
        assert cur.is_zero()


# -- every operator of the identity suite commutes with S_n -----------------

def rand_coeff(rng):
    """0, an int or a Fraction, each a third of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


@st.composite
def permuted_vectors(draw, count=1):
    """(g, sigma, polys): n <= 7, a random permutation sigma of 1..n and
    count random P-basis vectors of int and Fraction coefficients (drawn
    from a seeded rng: 2^n Hypothesis draws per vector are slow)."""
    g = GroundSet(draw(st.integers(min_value=1, max_value=7)))
    sigma = tuple(draw(st.permutations(range(1, g.n + 1))))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    polys = [Poly(g, P, [rand_coeff(rng) for _ in range(g.size)]) for _ in range(count)]
    return g, sigma, polys


def act(sigma, p):
    """sigma . p: the coefficient of p_A moves to p_{sigma A}."""
    table = action_table(sigma, p.g)
    out = [0] * p.g.size
    for a, c in enumerate(p.coeffs):
        out[table[a]] = c
    return Poly(p.g, p.basis, out)


@pytest.mark.parametrize("name", ["derivation", "complementation", "ell_power",
                                  "epsilon_map", "epsilon_inverse", "e_klr"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_operators_commute_with_permutations_of_the_points(name, data):
    g, sigma, (p,) = data.draw(permuted_vectors())
    if name == "ell_power":
        op = partial(ell_power, data.draw(st.sampled_from([-2, -1, 1, 2, 3])))
    elif name == "e_klr":
        op = e_klr(g, *(data.draw(st.integers(0, g.n)) for _ in range(3)))
    else:
        op = {"derivation": derivation, "complementation": complementation,
              "epsilon_map": epsilon_map, "epsilon_inverse": epsilon_inverse}[name]
    assert op(act(sigma, p)) == act(sigma, op(p))


@settings(max_examples=40, deadline=None)
@given(permuted_vectors(count=2))
def test_p_basis_product_commutes_with_permutations_of_the_points(case):
    _, sigma, (p, q) = case
    assert act(sigma, p * q) == act(sigma, p) * act(sigma, q)
