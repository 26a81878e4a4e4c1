from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goa.linalg as linalg
from goa.errors import InputError
from goa.linalg import (_bareiss_rank, _rank_mod_p, _rref, identity_matrix, mat_inverse,
                        mat_mul, mat_pow, rank, solve_exact, solve_least_norm)

ENTRY = st.integers(min_value=-3, max_value=3)


def matrices(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square = st.integers(min_value=1, max_value=5).flatmap(lambda n: matrices(n, n))
rectangular = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: matrices(*rc))


def transpose(a):
    return [list(col) for col in zip(*a)]


def apply(a, x):
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@settings(max_examples=200, deadline=None)
@given(square)
def test_inverse_is_two_sided_exactly_when_full_rank(a):
    n = len(a)
    if rank(a) == n:
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == identity_matrix(n)
        assert mat_mul(inv, a) == identity_matrix(n)
    else:
        with pytest.raises(InputError, match="matrix is singular"):
            mat_inverse(a)


@settings(max_examples=200, deadline=None)
@given(square, st.data())
def test_solve_exact_satisfies_the_system(a, data):
    b = data.draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
    if rank(a) == len(a):
        x = solve_exact(a, b)
        assert all(isinstance(v, Fraction) for v in x)
        assert apply(a, x) == b
    else:
        with pytest.raises(InputError, match="singular system"):
            solve_exact(a, b)


@settings(max_examples=200, deadline=None)
@given(rectangular)
def test_rank_of_transpose(a):
    r = rank(a)
    assert r == rank(transpose(a))
    assert 0 <= r <= min(len(a), len(a[0]))


@settings(max_examples=200, deadline=None)
@given(rectangular, st.data())
def test_least_norm_consistency_matches_augmented_rank(a, data):
    b = data.draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
    x, consistent = solve_least_norm(a, b)
    assert len(x) == len(a[0])
    augmented = [row + [v] for row, v in zip(a, b)]
    assert consistent == (rank(a) == rank(augmented))
    if consistent:
        assert apply(a, x) == b


@pytest.mark.parametrize("a", [
    [[0]],
    [[1, 2], [2, 4]],
    [[1, 0, 2], [0, 1, 1], [1, 1, 3]],
])
def test_singular_paths_raise(a):
    with pytest.raises(InputError, match="matrix is singular"):
        mat_inverse(a)
    with pytest.raises(InputError, match="singular system"):
        solve_exact(a, [1] * len(a))


def test_inverse_keeps_integral_entries_as_ints():
    inv = mat_inverse([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(v) is int for row in inv for v in row)
    assert mat_inverse([[2]]) == [[Fraction(1, 2)]]


@settings(max_examples=50, deadline=None)
@given(square, st.integers(min_value=0, max_value=4))
def test_mat_pow_matches_repeated_products(a, e):
    expected = identity_matrix(len(a))
    for _ in range(e):
        expected = mat_mul(expected, a)
    assert mat_pow(a, e) == expected


@st.composite
def integer_matrices(draw):
    """rows x cols ints, 0 <= rows, cols <= 6: random entries, all zeros,
    or a product of rows x k and k x cols factors (rank at most k)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "zero", "low-rank"]))
    if kind == "zero" or rows * cols == 0:
        return [[0] * cols for _ in range(rows)]
    wide = st.integers(min_value=-50, max_value=50)
    if kind == "random":
        return draw(st.lists(st.lists(wide, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    k = draw(st.integers(1, min(rows, cols)))
    return mat_mul(draw(matrices(rows, k)), draw(matrices(k, cols)))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_rank_matches_rational_elimination(a):
    assert rank(a) == len(_rref(a, [()] * len(a))[1])


def test_rank_refuses_fractions():
    with pytest.raises(InputError, match="ints"):
        rank([[Fraction(1, 2), 1]])


# -- the mod-p route of rank, with Bareiss and _rref as its oracles -----------

def test_a_rank_that_drops_mod_p_falls_back_to_the_exact_route():
    # 127 is the prime: [[127, 0], [0, 1]] has rank 1 mod p and 2 over Z
    for a in ([[127, 0], [0, 1]], [[254, 127, 0], [0, 0, -381]], [[127]]):
        assert _rank_mod_p(a) < rank(a) == _bareiss_rank(a) == len(_rref(a, [()] * len(a))[1])


def test_a_full_rank_mod_p_needs_no_exact_elimination(monkeypatch):
    monkeypatch.setattr(linalg, "_bareiss_rank", lambda m: pytest.fail("Bareiss ran"))
    assert rank(identity_matrix(5)) == 5
    assert rank([[1, 2, 3], [4, 5, 6]]) == 2
    assert rank([[1, 4], [2, 5], [3, 6]]) == 2    # the smaller dimension in the rows


MULTIPLES = st.integers(-3, 3).map(lambda k: 127 * k)


@st.composite
def matrices_mod_p(draw):
    """rows x cols ints, 0 <= rows, cols <= 7, whose entries are drawn from
    small ints, ints near the prime 127 and its multiples, so the rank
    mod p often drops below the rank."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-3, 3), st.integers(120, 400), MULTIPLES)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices_mod_p(), integer_matrices()))
def test_rank_matches_bareiss_and_rational_elimination(a):
    exact = _bareiss_rank(a)
    assert rank(a) == exact == len(_rref(a, [()] * len(a))[1])
    assert _rank_mod_p(a) <= exact
    assert _rank_mod_p(transpose(a)) == _rank_mod_p(a)
