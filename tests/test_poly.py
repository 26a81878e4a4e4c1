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


def test_bool_values_change_basis_to_int_coefficients():
    # the change to P is a Moebius transform (w = -1), which the list loop
    # runs; the coefficient of the empty set is printed as 1, not True
    p = from_function(GroundSet(2), lambda m: m != 2).to_basis(P)
    assert format_poly(p).splitlines() == ["basis P", "1 * -", "-1 * 2", "1 * 1 2"]
    assert all(type(v) is int for v in p.coeffs)


def test_term_order_by_size_then_mask(g3):
    q = Poly.block_sum(g3, [mask_of([1, 2]), mask_of([3]), mask_of([1])])
    lines = format_poly(q).splitlines()[1:]
    assert lines == ["1 * 1", "1 * 3", "1 * 1 2"]
    assert all(popcount(mask_of([1])) <= 3 for _ in lines)


# -- packed coefficient vectors -----------------------------------------------

@st.composite
def byte_entries(draw, n=None):
    """2^n entries in 0..255: random bytes, sparse 0/1 (block sums), 0/255
    or 0..2, at n <= 7 unless given."""
    n = draw(st.integers(1, 7)) if n is None else n
    rng = draw(st.randoms(use_true_random=False))
    fill = draw(st.sampled_from([
        lambda: rng.randrange(256),
        lambda: int(rng.random() < 0.2),
        lambda: rng.choice((0, 255)),
        lambda: rng.randrange(3),
    ]))
    return n, [fill() for _ in range(1 << n)]


def packed_and_plain(n, c, basis=P):
    """The Poly of entries c built from bytes (packed) and from a tuple."""
    g = GroundSet(n)
    packed, plain = Poly(g, basis, bytes(c)), Poly(g, basis, tuple(c))
    assert type(packed.coeffs) is bytes and type(plain.coeffs) is tuple
    return packed, plain


def same_poly(a, b):
    """a == b, and every reading of the coefficients agrees."""
    return a == b and b == a and hash(a) == hash(b) and list(a.coeffs) == list(b.coeffs) \
        and a.terms() == b.terms()


@given(byte_entries(), st.sampled_from([P, EPS]))
@settings(max_examples=60, deadline=None)
def test_packed_and_tuple_polys_with_equal_entries_are_equal(nc, basis):
    n, c = nc
    packed, plain = packed_and_plain(n, c, basis)
    assert same_poly(packed, plain)
    assert same_poly(packed, Poly(packed.g, basis, [Fraction(v) for v in c]))
    assert packed.coeffs == bytes(c) and plain.coeffs == tuple(c)
    assert packed.is_zero() == plain.is_zero() == (not any(c))
    assert all(packed.evaluate(m) == plain.evaluate(m) for m in range(0, 1 << n, 7))
    other = Poly(packed.g, P if basis == EPS else EPS, bytes(c))
    assert packed != other and other != plain
    assert not hasattr(packed, "vector") and not hasattr(packed, "no_such_attribute")


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(byte_entries(n), byte_entries(n))))
@settings(max_examples=60, deadline=None)
def test_packed_product_matches_the_list_product(pair):
    (n, a), (_, b) = pair
    (pa, ta), (pb, tb) = packed_and_plain(n, a), packed_and_plain(n, b)
    product = pa * pb
    assert same_poly(product, ta * tb)
    # bytes while every coefficient fits one, else the list loop's tuple
    assert (type(product.coeffs) is bytes) == (max(product.coeffs) <= 255)
    assert same_poly(pa * tb, product) and type((pa * tb).coeffs) is tuple


def test_packed_product_past_255_restarts_in_the_list_loop():
    g = GroundSet(4)
    full = Poly(g, P, bytes([1] * 16))
    square = full * full                    # 81 at the full mask
    assert type(square.coeffs) is bytes and square.coeffs[15] == 81
    big = Poly(g, P, bytes([200] + [0] * 14 + [3]))
    assert type((big * big).coeffs) is tuple
    assert (big * big).coeffs == (40000,) + (0,) * 14 + (1209,)


@given(byte_entries(), st.sampled_from([1, -1, 2]))
@settings(max_examples=80, deadline=None)
def test_packed_transforms_match_the_tuple_route(nc, m):
    from goa.operators import complementation, ell_power
    n, c = nc
    packed, plain = packed_and_plain(n, c)
    eps = packed.to_basis(EPS)
    assert same_poly(eps, plain.to_basis(EPS))
    # the zeta transform stays packed exactly when sum(c) fits a byte
    assert (type(eps.coeffs) is bytes) == (sum(c) <= 255)
    packed_eps, plain_eps = packed_and_plain(n, c, EPS)
    assert same_poly(packed_eps.to_basis(P), plain_eps.to_basis(P))
    assert same_poly(complementation(packed), complementation(plain))
    assert type(complementation(packed).coeffs) is bytes
    image = ell_power(m, packed)
    assert same_poly(image, ell_power(m, plain))
    if m == 1:
        assert (type(image.coeffs) is bytes) == (sum(c) <= 255)
    elif m == -1:
        assert type(image.coeffs) is tuple


def test_negative_and_fraction_entries_keep_the_tuple_routes():
    from goa.operators import complementation, ell_power
    g = GroundSet(3)
    for c in ([-1, 2, 0, 3, 0, 0, 1, 5], [Fraction(1, 2), 0, 1, 0, 0, 2, 0, 7]):
        p = Poly(g, P, c)
        block = Poly.block_sum(g, [1, 2, 6])
        assert type(block.coeffs) is bytes
        for q in (p * block, block * p, p.to_basis(EPS), complementation(p),
                  ell_power(1, p), ell_power(2, p)):
            assert type(q.coeffs) is tuple
        assert p * block == Poly(g, P, block.coeffs) * p
        assert (p * block).to_basis(EPS).to_basis(P) == p * block


def test_block_sum_is_packed_until_a_count_passes_255():
    g = GroundSet(2)
    assert Poly.block_sum(g, [1, 2, 1]).coeffs == bytes([0, 2, 1, 0])
    many = Poly.block_sum(g, iter([3] * 300 + [0, 3]))
    assert type(many.coeffs) is tuple and many.coeffs == (1, 0, 0, 301)
