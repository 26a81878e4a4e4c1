from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa.errors import InputError
from goa.poly import EPS, P, Poly, format_poly, from_function
from goa.subsets import GroundSet, mask_of, popcount


def rational_polys(n, basis=P):
    g = GroundSet(n)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(coeff, min_size=g.size, max_size=g.size).map(
        lambda c: Poly(g, basis, c))


def test_multiply_square_by_hand(g3):
    # (x1+x2)^2 expanded with x_i^2 = x_i: x1 + x2 + 2 x1x2
    q = Poly.term(g3, mask_of([1])) + Poly.term(g3, mask_of([2]))
    assert (q * q).terms() == ((mask_of([1]), 1), (mask_of([2]), 1), (mask_of([1, 2]), 2))


def test_multiply_union_absorbs(g3):
    assert (Poly.term(g3, mask_of([1])) * Poly.term(g3, mask_of([1, 2]))).terms() \
        == ((mask_of([1, 2]), 1),)


def test_eps_multiplication_is_pointwise(g3):
    e1 = Poly.term(g3, mask_of([1]), basis=EPS)
    e2 = Poly.term(g3, mask_of([2]), basis=EPS)
    assert (e1 * e2).is_zero()
    assert e1 * e1 == e1


def test_mixed_basis_product_rejected(g3):
    with pytest.raises(InputError):
        Poly.one(g3) * Poly.term(g3, 0, basis=EPS)


def test_evaluate_examples(g3):
    assert Poly.term(g3, mask_of([1, 2])).evaluate(mask_of([1, 2, 3])) == 1
    assert Poly.term(g3, mask_of([1]), basis=EPS).evaluate(mask_of([1, 2])) == 0
    q = Poly.term(g3, mask_of([1])) + Poly.term(g3, mask_of([2]))
    assert q.evaluate(mask_of([2, 3])) == 1


def test_change_basis_examples():
    g1 = GroundSet(1)
    eps_empty = Poly.term(g1, 0, basis=EPS).to_basis(P)
    assert eps_empty == Poly.term(g1, 0) - Poly.term(g1, 1)
    g2 = GroundSet(2)
    p1 = Poly.term(g2, mask_of([1])).to_basis(EPS)
    assert p1.terms() == ((mask_of([1]), 1), (mask_of([1, 2]), 1))


@given(rational_polys(3), rational_polys(3))
@settings(max_examples=40, deadline=None)
def test_terms_is_an_immutable_tuple_equal_to_a_fresh_scan(p, q):
    scan = tuple((m, c) for m, c in enumerate(p.coeffs) if c != 0)
    t = p.terms()
    assert type(t) is tuple and t == scan
    assert all(type(pair) is tuple for pair in t)
    product = p * q                      # a product reads both factors' terms
    assert p.terms() is t and p.terms() == scan
    assert product.terms() == tuple((m, c) for m, c in enumerate(product.coeffs) if c != 0)
    with pytest.raises(AttributeError):
        p._terms = ()


@given(rational_polys(4))
@settings(max_examples=40, deadline=None)
def test_change_basis_round_trip(p):
    assert p.to_basis(EPS).to_basis(P) == p


@given(rational_polys(4), st.integers(min_value=0, max_value=15))
@settings(max_examples=40, deadline=None)
def test_evaluation_matches_after_basis_change(p, b):
    assert p.evaluate(b) == p.to_basis(EPS).evaluate(b)


def test_evaluation_is_multiplicative_exhaustive():
    # evaluate(p*q, B) = evaluate(p,B) * evaluate(q,B) over all basis pairs, n <= 5
    for n in (2, 3, 5):
        g = GroundSet(n)
        import random
        rng = random.Random(n)
        for _ in range(20):
            p = Poly(g, P, [Fraction(rng.randint(-3, 3)) for _ in range(g.size)])
            q = Poly(g, P, [Fraction(rng.randint(-3, 3)) for _ in range(g.size)])
            product = p * q
            for b in g.masks():
                assert product.evaluate(b) == p.evaluate(b) * q.evaluate(b)


def test_multiplication_routes_agree_on_basis_vectors():
    # direct union-convolution in the P basis vs pointwise in EPS, n <= 5
    for n in (2, 3, 4, 5):
        g = GroundSet(n)
        for a in g.masks():
            for b in g.masks():
                direct = Poly.term(g, a) * Poly.term(g, b)
                via_eps = (Poly.term(g, a).to_basis(EPS) * Poly.term(g, b).to_basis(EPS)).to_basis(P)
                assert direct == via_eps


def test_from_function_examples():
    g2 = GroundSet(2)
    const = from_function(g2, lambda m: 1)
    assert const.to_basis(P) == Poly.one(g2)
    ind = from_function(g2, lambda m: 1 if m == mask_of([1]) else 0)
    assert ind == Poly.term(g2, mask_of([1]), basis=EPS)
    assert from_function(g2, lambda m: 0).is_zero()


@given(rational_polys(4))
@settings(max_examples=30, deadline=None)
def test_from_function_inverts_evaluation(p):
    g = p.g
    rebuilt = from_function(g, {m: p.evaluate(m) for m in g.masks()})
    assert rebuilt.to_basis(P) == p


def test_vanishing_evaluations_mean_zero():
    # a polynomial evaluating to 0 everywhere has no nonzero coefficients
    g = GroundSet(4)
    p = from_function(g, lambda m: 0).to_basis(P)
    assert p.is_zero()


def test_format_poly(g3):
    q = Poly.term(g3, mask_of([1, 3]), Fraction(-1, 2)) + Poly.term(g3, 0, 3)
    assert format_poly(q).splitlines() == ["basis P", "3 * -", "-1/2 * 1 3"]


def test_term_order_by_size_then_mask(g3):
    q = Poly.block_sum(g3, [mask_of([1, 2]), mask_of([3]), mask_of([1])])
    lines = format_poly(q).splitlines()[1:]
    assert lines == ["1 * 1", "1 * 3", "1 * 1 2"]
    assert all(popcount(mask_of([1])) <= 3 for _ in lines)
