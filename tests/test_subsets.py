import random
from fractions import Fraction
from math import comb
from struct import calcsize, pack
from struct import error as struct_error

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goa import subsets
from goa.errors import InputError
from goa.subsets import (GroundSet, _list_sum, downward_counts, enumerate_by_size, format_subset,
                         mask_of, parse_header, parse_subset, popcount, submasks, subset_sum,
                         unpack)


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
            assert len(masks) == comb(n, k)
            assert masks == sorted(masks)
            assert all(popcount(m) == k for m in masks)


def test_enumerate_out_of_range():
    with pytest.raises(InputError):
        enumerate_by_size(GroundSet(3), 4)
    with pytest.raises(InputError):
        enumerate_by_size(GroundSet(3), -1)


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
    # int() reads each of these as a number; a member token is ASCII digits only
    for token in ("1_2", "+1", "\u0661", "1 +2"):
        with pytest.raises(InputError, match="bad subset token"):
            parse_subset(token, GroundSet(12))
    assert parse_subset("01 3", g) == mask_of([1, 3])    # leading zeros stay allowed
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
        ("n \uff13\n", "line 1: expected 'n <int>' header, got 'n \uff13'"),
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
    assert list(out) == [sum(Fraction(w) ** (popcount(x) - popcount(y)) * c[y]
                             for y in submasks(x)) for x in range(1 << n)]


@given(lattice_vectors())
def test_subset_sum_zeta_and_moebius_invert_each_other(nc):
    n, c = nc
    assert subset_sum(subset_sum(c, n, 1), n, -1) == c
    assert list(subset_sum(subset_sum(c, n, -1), n, 1)) == c


@given(lattice_vectors(), WEIGHTS)
def test_subset_sum_accepts_a_tuple_and_leaves_its_input_unchanged(nc, w):
    n, c = nc
    before = list(c)
    t = tuple(c)
    assert subset_sum(t, n, w) == subset_sum(c, n, w)
    assert t == tuple(before) and c == before


# -- the packed route of subset_sum ------------------------------------------

PACKED_WEIGHTS = (-3, -2, -1, 0, 1, 2, 3)
# the packed field widths, each with 2^bits
UNSIGNED_LIMITS = [("B", 1 << 8), ("H", 1 << 16), ("I", 1 << 32), ("Q", 1 << 64)]


def direct_sum(c, n, w):
    return [sum(w ** (popcount(x) - popcount(y)) * c[y] for y in submasks(x))
            for x in range(1 << n)]


def spy_routes(monkeypatch):
    """A list that gets, per subset_sum call, the packed field code or None
    for the list loop."""
    taken = []
    packed, listed = subsets._packed_sum, subsets._list_sum

    def spy_packed(data, code, n, w):
        taken.append(code)
        return packed(data, code, n, w)

    def spy_listed(c, n, w):
        taken.append(None)
        return listed(c, n, w)

    monkeypatch.setattr(subsets, "_packed_sum", spy_packed)
    monkeypatch.setattr(subsets, "_list_sum", spy_listed)
    return taken


def attaining(m, n, w):
    """A vector of entries +-m whose value at the full mask is
    m * (1+|w|)^n, the bound on every value of the transform."""
    sign = 1 if w > 0 else -1
    return [m * sign ** (n - popcount(y)) for y in range(1 << n)]


@st.composite
def int_cases(draw):
    """(n, w, c): int entries from 0 or below up to a top at or around the
    ends of the packed rule (255 is the largest entry it packs), with one
    entry set to the lowest or the top, for any weight in -3..3."""
    n = draw(st.integers(min_value=0, max_value=8))
    w = draw(st.sampled_from(PACKED_WEIGHTS))
    low = draw(st.sampled_from([0, 0, -1, -255]))
    top = draw(st.sampled_from([1, 127, 255, 256, 1 << 40]))
    c = draw(st.lists(st.integers(low, top), min_size=1 << n, max_size=1 << n))
    c[draw(st.integers(0, (1 << n) - 1))] = draw(st.sampled_from([low, top]))
    return n, w, c


@given(int_cases())
@settings(deadline=None)
def test_packed_route_matches_the_list_loop_and_a_direct_sum(nwc):
    n, w, c = nwc
    t = tuple(c)
    out = subset_sum(t, n, w)
    assert t == tuple(c)
    assert list(out) == _list_sum(c, n, w)
    assert all(type(v) is int for v in out)
    if n <= 6:
        assert list(out) == direct_sum(c, n, w)


def takes_unsigned(c, w):
    """Does subset_sum take the unsigned route: w >= 1 and every entry an
    int in 0..255?"""
    return w >= 1 and all(isinstance(v, int) and 0 <= v <= 255 for v in c)


def reference_code(c, n, w):
    """The field code subset_sum must take, from
    min(sum(c) * w^n, max(c) * (1+w)^n), or None for the list loop: a
    vector outside the packed rule, or a bound past the widest field."""
    if not takes_unsigned(c, w):
        return None
    bound = min(sum(c) * w ** n, max(c) * (1 + w) ** n)
    return next((code for code, limit in UNSIGNED_LIMITS if bound < limit), None)


def test_attaining_vectors_outside_the_packed_rule_take_the_list_loop(monkeypatch):
    # negative entries, entries above 255 and w <= 0 take the list loop;
    # entries of m >= 0 with w >= 1 are the packed rule's, and each
    # attaining vector reaches its bound m * (1+|w|)^n.  The Fractions,
    # all integral, are scaled by 1: they take the route of the equal ints,
    # and come back as a list of Fractions.
    taken = spy_routes(monkeypatch)
    for n in range(9):
        for w in PACKED_WEIGHTS:
            for m in (1, 127, 128, 255, 256, 1 << 20, 1 << 63):
                ints = attaining(m, n, w)
                for c in (ints, [-v for v in ints], [Fraction(v) for v in ints]):
                    del taken[:]
                    out = subset_sum(c, n, w)
                    scaled = type(c[0]) is Fraction
                    assert taken == [reference_code(ints if scaled else c, n, w)], (n, w, m)
                    assert type(out) is (bytes if taken == ["B"] and not scaled else list)
                    assert list(out) == _list_sum(c, n, w)
                    assert abs(out[-1]) == m * (1 + abs(w)) ** n
                    if type(c[0]) is int:
                        assert all(type(v) is int for v in out)


# the signed range of each field width, with the struct codes of a bound just
# inside it and of a bound that reaches it (None: past every width)
SIGNED_LIMITS = [(1 << 7, "b", "h"), (1 << 15, "h", "i"), (1 << 31, "i", "q"), (1 << 63, "q", None)]


@pytest.mark.parametrize("limit, inside, past", SIGNED_LIMITS)
def test_field_width_at_and_one_past_each_boundary(monkeypatch, limit, inside, past):
    # attaining vectors whose bound m * (1+|w|)^n lies just inside each
    # signed range, and m + 1 which puts it at the limit or past it: the
    # packed rule alone picks the route, and values stay exact on both sides
    taken = spy_routes(monkeypatch)
    for n in range(9):
        for w in PACKED_WEIGHTS:
            growth = (1 + abs(w)) ** n
            m = (limit - 1) // growth
            if m == 0:                  # (1+|w|)^n alone is past the limit
                continue
            for entries, code in ((m, inside), (m + 1, past)):
                bound = entries * growth
                if code is None:
                    assert bound >= 1 << 63
                else:
                    pack(code, -bound)          # the bound fits this width
                if entries == m + 1:            # and not the narrower one
                    with pytest.raises(struct_error):
                        pack(inside, bound)
                ints = attaining(entries, n, w)
                for c in (ints, [-v for v in ints]):
                    del taken[:]
                    out = subset_sum(c, n, w)
                    assert taken == [reference_code(c, n, w)], (n, w, entries)
                    assert list(out) == _list_sum(c, n, w)
                    assert all(type(v) is int for v in out)
                    assert abs(out[-1]) == bound


def spike(m, n):
    """m at the empty set and 0 elsewhere: with w >= 1, entry x of the
    transform is m * w^|x|, so the full mask attains sum(c) * w^n."""
    return [m] + [0] * ((1 << n) - 1)


# (c, n, w, code): sum(c) * w^n at 2^bits - 1, then at 2^bits, for each
# unsigned width, and at 2^64, past the widest (None: the list loop)
UNSIGNED_BOUNDARIES = [
    ([1] * 255 + [0], 8, 1, "B"), ([1] * 256, 8, 1, "H"),
    (spike(85, 1), 1, 3, "B"), (spike(128, 1), 1, 2, "H"),
    ([255] * 257 + [0] * 255, 9, 1, "H"), ([255] * 257 + [1] + [0] * 254, 9, 1, "I"),
    (spike(255, 1), 1, 257, "H"), (spike(4, 7), 7, 4, "I"),
    (spike(255, 1), 1, ((1 << 32) - 1) // 255, "I"), (spike(16, 7), 7, 16, "Q"),
    (spike(255, 1), 1, ((1 << 64) - 1) // 255, "Q"), (spike(1, 8), 8, 256, None),
]


@pytest.mark.parametrize("c, n, w, code", UNSIGNED_BOUNDARIES)
def test_unsigned_width_at_and_one_past_each_boundary(monkeypatch, c, n, w, code):
    taken = spy_routes(monkeypatch)
    out = subset_sum(c, n, w)
    assert taken == [code] and code == reference_code(c, n, w)
    assert out[-1] == sum(c) * w ** n
    # 1-byte results come back as their bytes
    assert type(out) is (bytes if code == "B" else list)
    assert list(out) == _list_sum(c, n, w)
    assert all(type(v) is int for v in out)
    if n <= 6:
        assert list(out) == direct_sum(c, n, w)


@st.composite
def unsigned_cases(draw):
    """(n, w, c): entries in 0..255, as random bytes, sparse 0/1, bools or
    0/255, with a few entries set to 0, 1, 255 or 256 (256 leaves the
    unsigned route), as a list or a tuple."""
    n = draw(st.integers(min_value=0, max_value=10))
    w = draw(st.sampled_from([1, 2, 3]))
    rng = draw(st.randoms(use_true_random=False))
    fill = draw(st.sampled_from([
        lambda: rng.randrange(256),
        lambda: int(rng.random() < 0.05),
        lambda: rng.random() < 0.5,
        lambda: rng.choice((0, 255)),
    ]))
    c = [fill() for _ in range(1 << n)]
    for _ in range(draw(st.integers(0, 3))):
        c[draw(st.integers(0, (1 << n) - 1))] = draw(st.sampled_from([0, 1, 255, 256]))
    return n, w, tuple(c) if draw(st.booleans()) else c


@given(unsigned_cases())
@settings(deadline=None)
def test_unsigned_route_matches_the_list_loop(nwc):
    n, w, c = nwc
    before = list(c)
    out = subset_sum(c, n, w)
    assert list(c) == before
    assert list(out) == _list_sum(before, n, w)
    assert all(type(v) is int for v in out)
    # a 1-byte result comes back as bytes, any other as a list
    assert type(out) is (bytes if reference_code(before, n, w) == "B" else list)
    # the same entries as bytes take the same route
    if all(0 <= v <= 255 for v in before):
        raw = subset_sum(bytes(before), n, w)
        assert type(raw) is type(out) and raw == out


def test_route_follows_the_packed_rule_at_the_byte_boundaries(monkeypatch):
    # random vectors with entries in -m..m or 0..m, for m at the ends of
    # the byte (127, 128, 255, 256), and bool vectors: only entries in
    # 0..255 with w >= 1 are packed, and every result is an int
    taken = spy_routes(monkeypatch)
    rng = random.Random(16)
    cases = []
    for n in range(11):
        size = 1 << n
        for w in PACKED_WEIGHTS:
            for m in (1, 127, 128, 255, 256):
                for low in (-m, 0):
                    c = [rng.randint(low, m) for _ in range(size)]
                    c[rng.randrange(size)] = m
                    cases.append((c, n, w))
            cases.append(([True, False] * (size // 2) or [True], n, w))
        cases.append(([True] + [256] * (size - 1), n, 1))
        cases.append(([-128] + [127] * (size - 1), n, -1))
        cases.append(([0] * (size - 1) + [256], n, 2))
    cases.append(([True, 256, True, True], 2, 1))
    for c, n, w in cases:
        del taken[:]
        out = subset_sum(c, n, w)
        assert taken == [reference_code(c, n, w)], (n, w, max(map(abs, c)))
        assert list(out) == _list_sum(c, n, w)
        assert all(type(v) is int for v in out)
        if n <= 6:
            assert list(out) == direct_sum(c, n, w)


# -- the scaled route: Fraction entries through the int routes ----------------

@st.composite
def fraction_vectors(draw):
    """(n, c): n <= 6 and 2^n entries, ints and Fractions with denominators
    up to 12, at least one of them a Fraction that is not an int."""
    n = draw(st.integers(min_value=0, max_value=6))
    c = draw(st.lists(ENTRIES, min_size=1 << n, max_size=1 << n))
    c[draw(st.integers(0, (1 << n) - 1))] = draw(
        st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(
            lambda f: f.denominator > 1))
    return n, c


@given(fraction_vectors(), WEIGHTS)
@settings(deadline=None)
def test_scaled_route_matches_the_list_loop(nc, w):
    n, c = nc
    out = subset_sum(c, n, w)
    assert out == _list_sum(c, n, w)
    assert type(out) is list and all(type(v) is Fraction for v in out)


def test_scaled_route_divides_once_per_entry(monkeypatch):
    # the n passes add ints: the list loop sees no Fraction
    seen = []
    listed = subsets._list_sum
    monkeypatch.setattr(subsets, "_list_sum",
                        lambda c, n, w: seen.append({type(v) for v in c}) or listed(c, n, w))
    c = [Fraction(1, 2), -1, Fraction(2, 3), 0, 5, Fraction(-1, 4), 0, 1]
    assert subset_sum(c, 3, -1) == listed(c, 3, -1)
    assert seen == [{int}]


def test_fraction_mixed_and_wide_vectors_take_the_list_loop(monkeypatch):
    taken = spy_routes(monkeypatch)
    cases = [
        ([Fraction(1, 2), Fraction(-3, 4), Fraction(5), Fraction(0)], 2, 1),
        ([1, Fraction(1, 3), 2, -4], 2, -1),
        ([Fraction(2), 1], 1, 3),            # scaled by 1 to [2, 1], which packs
        ([1 << 61, -1, 3, 0], 2, 1),         # bound 2^63
        ([1 << 70, 1], 1, 2),
    ]
    for c, n, w in cases:
        out = subset_sum(c, n, w)
        assert out == direct_sum(c, n, w)
    # a Fraction vector takes the route of its scaled ints
    assert taken == [None, None, "B", None, None]
    assert subset_sum([Fraction(2), 1], 1, 3) == [2, 7]
    assert type(subset_sum([Fraction(2), 1], 1, 3)[0]) is Fraction


@pytest.mark.parametrize("c, n", [([1, 2, 3], 2), ([1] * 4, 1), ([1] * 2, 3), ([], 0),
                                  ([Fraction(1)] * 3, 2), ([1 << 70] * 5, 2)])
def test_subset_sum_rejects_a_vector_of_the_wrong_length(c, n):
    with pytest.raises(InputError, match="entries"):
        subset_sum(c, n, 1)


@st.composite
def block_families(draw):
    """(n, blocks): disjoint mask lists over n <= 6 points, either a whole
    partition of the powerset or a partial family that misses some masks."""
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=1, max_value=5))
    lowest = draw(st.sampled_from([0, -1]))        # -1: the mask is in no block
    labels = draw(st.lists(st.integers(lowest, k - 1), min_size=1 << n, max_size=1 << n))
    return n, [[m for m, lab in enumerate(labels) if lab == j] for j in range(k)]


@given(block_families())
def test_downward_counts_match_a_direct_count(nb):
    n, blocks = nb
    table, code = downward_counts(blocks, n)
    assert len(table) == 1 << n
    for c in range(1 << n):
        assert list(unpack(table[c], code, len(blocks))) == \
            [sum(1 for m in block if m & c == m) for block in blocks]


@pytest.mark.parametrize("sizes", [(255, 256), (256, 255)])
def test_downward_counts_field_holds_a_full_block(sizes):
    # a count equals its block's size at the full mask: 256 needs two bytes,
    # and a one-byte field would carry into the next block's count
    first = list(range(sizes[0]))
    blocks = [first, list(range(sizes[0], sum(sizes)))]
    table, code = downward_counts(blocks, 9)
    assert code == "H"
    assert downward_counts([b for b in blocks if len(b) == 255], 9)[1] == "B"
    for c in range(1 << 9):
        assert list(unpack(table[c], code, 2)) == \
            [sum(1 for m in block if m & c == m) for block in blocks]
    assert list(unpack(table[-1], code, 2)) == list(sizes)


@given(st.sampled_from("BHI"), st.integers(min_value=1, max_value=9), st.data())
def test_unpack_field_j_is_the_word_shifted_by_j_fields(code, s, data):
    bits = 8 * calcsize(code)
    word = data.draw(st.integers(min_value=0, max_value=(1 << bits * s) - 1))
    fields = unpack(word, code, s)
    assert fields.readonly
    assert [fields[j] for j in range(s)] == \
        [(word >> bits * j) & ((1 << bits) - 1) for j in range(s)]


def test_unpack_on_a_big_endian_host_keeps_field_order(monkeypatch):
    # a one-byte field reads the same in either byte order, so the
    # big-endian branch can run here; wider fields are checked only by reading
    word = sum(v << 8 * j for j, v in enumerate([1, 0, 255, 7]))
    monkeypatch.setattr(subsets.sys, "byteorder", "big")
    fields = unpack(word, "B", 4)
    assert fields.readonly
    assert fields.tolist() == [1, 0, 255, 7]
