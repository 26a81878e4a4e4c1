from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goa.errors import InputError
from goa.subsets import (GroundSet, binom, complement_mask, enumerate_by_size,
                         format_subset, mask_of, parse_header, parse_subset, popcount,
                         submasks, subset_sum)


def test_enumerate_examples():
    g = GroundSet(3)
    assert enumerate_by_size(g, 0) == [0]
    assert enumerate_by_size(g, 2) == [mask_of([1, 2]), mask_of([1, 3]), mask_of([2, 3])]
    assert enumerate_by_size(g, 3) == [mask_of([1, 2, 3])]


def test_enumerate_counts_and_order():
    for n in range(1, 13):
        g = GroundSet(n)
        for k in range(n + 1):
            masks = enumerate_by_size(g, k)
            assert len(masks) == binom(n, k)
            assert masks == sorted(masks)
            assert all(popcount(m) == k for m in masks)


def test_enumerate_out_of_range():
    with pytest.raises(InputError):
        enumerate_by_size(GroundSet(3), 4)
    with pytest.raises(InputError):
        enumerate_by_size(GroundSet(3), -1)


def test_complement_examples():
    g = GroundSet(3)
    assert complement_mask(g, mask_of([3])) == mask_of([1, 2])
    assert complement_mask(g, 0) == mask_of([1, 2, 3])
    assert complement_mask(g, mask_of([1, 2, 3])) == 0


def test_complement_involution_exhaustive():
    for n in range(1, 13):
        g = GroundSet(n)
        for m in g.masks():
            assert complement_mask(g, complement_mask(g, m)) == m
            assert popcount(complement_mask(g, m)) == n - popcount(m)


@given(st.integers(min_value=1, max_value=12), st.data())
def test_subset_text_round_trip(n, data):
    g = GroundSet(n)
    mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    assert parse_subset(format_subset(mask), g) == mask


def test_parse_subset_errors():
    g = GroundSet(4)
    with pytest.raises(InputError):
        parse_subset("1 1", g)
    with pytest.raises(InputError):
        parse_subset("3 2", g)
    with pytest.raises(InputError):
        parse_subset("5", g)
    with pytest.raises(InputError):
        parse_subset("x", g)
    for blank in ("", "  "):       # the empty set is written '-'
        with pytest.raises(InputError, match="empty subset"):
            parse_subset(blank, g)


def test_parse_header_body_and_errors():
    g, body = parse_header("# c\n\nn 3\n  1 2 \n# skip\n3\n", "partition")
    assert g == GroundSet(3)
    assert body == [(4, "1 2"), (6, "3")]
    for text, message in [
        ("x 3\n", "line 1: expected 'n <int>' header, got 'x 3'"),
        ("\nn 0\n", "line 2: ground set size must be in 1..20, got 0"),
        ("# only a comment\n", "group file has no 'n <int>' header"),
    ]:
        with pytest.raises(InputError) as exc:
            parse_header(text, "group")
        assert str(exc.value) == message


def test_ground_set_bounds():
    with pytest.raises(InputError):
        GroundSet(0)
    with pytest.raises(InputError):
        GroundSet(21)


WEIGHTS = st.sampled_from([-2, -1, 1, 2, 3])
ENTRIES = st.one_of(st.integers(-50, 50),
                    st.fractions(min_value=-50, max_value=50, max_denominator=12))


@st.composite
def lattice_vectors(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    return n, draw(st.lists(ENTRIES, min_size=1 << n, max_size=1 << n))


@given(lattice_vectors(), WEIGHTS)
def test_subset_sum_matches_direct_submask_sum(nc, w):
    n, c = nc
    out = subset_sum(c, n, w)
    assert out == [sum(Fraction(w) ** (popcount(x) - popcount(y)) * c[y] for y in submasks(x))
                   for x in range(1 << n)]


@given(lattice_vectors())
def test_subset_sum_zeta_and_moebius_invert_each_other(nc):
    n, c = nc
    assert subset_sum(subset_sum(c, n, 1), n, -1) == c
    assert subset_sum(subset_sum(c, n, -1), n, 1) == c


@given(lattice_vectors(), WEIGHTS)
def test_subset_sum_accepts_a_tuple_and_leaves_its_input_unchanged(nc, w):
    n, c = nc
    before = list(c)
    t = tuple(c)
    assert subset_sum(t, n, w) == subset_sum(c, n, w)
    assert t == tuple(before) and c == before
