import importlib.util
import random
import sys
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from pathlib import Path

import pytest

import goa.identities as identities
import goa.operators as operators
from goa.errors import InputError
from goa.identities import DEFAULT_SEED, _random_poly, identity_suite
from goa.operators import (LinearOperator, complementation, derivation, e_klr, ell_power,
                           ell_power_series, epsilon_inverse, epsilon_map,
                           vandermonde_coeffs)
from goa.poly import P, Poly
from goa.subsets import GroundSet, enumerate_by_size, popcount, submasks
from goa.terwilliger import MAX_N_IDENTITIES, verify_terwilliger_generation


def verdicts(g):
    return {name: ok for name, ok, _ in identity_suite(g)}


def test_composition_check_catches_a_wrong_ell_power(monkeypatch):
    def broken(m, p):
        return ell_power(3 if m == 2 else m, p)

    monkeypatch.setattr(identities, "ell_power", broken)
    got = verdicts(GroundSet(3))
    assert got["ell powers compose additively"] is False
    assert got["ell inverse times ell is the identity"] is True


def test_transpose_check_catches_one_perturbed_raising_entry(monkeypatch):
    real = identities.e_klr

    def perturbed(g, k, l, r):
        op = real(g, k, l, r)
        if (k, l, r) != (1, 2, 1):
            return op

        def apply(p):
            out = list(op(p).coeffs)
            out[0b011] += p.coeffs[0b100]   # one extra entry: p_{3} -> p_{1 2}
            return Poly(p.g, P, out)

        return LinearOperator(g, apply)

    monkeypatch.setattr(identities, "e_klr", perturbed)
    got = verdicts(GroundSet(3))
    assert got["raising and lowering operators are transposes"] is False
    assert got["ell powers compose additively"] is True


def test_vandermonde_check_catches_one_perturbed_coefficient(monkeypatch):
    real = identities.vandermonde_coeffs

    def perturbed(g):
        coeffs = list(real(g))
        coeffs[1] += Fraction(1, 7)
        return coeffs

    monkeypatch.setattr(identities, "vandermonde_coeffs", perturbed)
    got = verdicts(GroundSet(3))
    assert [name for name, ok in got.items() if not ok] == [
        "derivation equals the vandermonde combination of ell powers"]


# -- the full-basis suite, kept as the oracle of the per-orbit one ------------

def full_basis_suite(g, seed=DEFAULT_SEED):
    """identity_suite as it ran before the per-orbit reduction: every
    linear identity on all 2^n basis vectors and orthogonality on all 4^n
    pairs.  It reads the operators through this module's names, so a
    mutation patched here and in goa.identities reaches both suites."""
    n = g.n
    rng = random.Random(seed)
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    terms = [Poly.term(g, a) for a in g.masks()]
    zero = Poly.zero(g)

    weights_ok = nilpotent_ok = True
    deriv = []
    for a, p in enumerate(terms):
        chain = [p]
        for _ in range(n + 1):
            chain.append(derivation(chain[-1]))
        deriv.append(chain[1])
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

    ms = [-2, -1, 1, 2, 3]
    needed = {r + s for r in ms for s in ms if r + s != 0} | set(ms) | set(range(1, n + 2))
    ell = {m: [ell_power(m, p) for p in terms] for m in sorted(needed)}
    ok = all(ell_power(r, ell[s][a]) == ell[r + s][a]
             for a in g.masks() for r in ms for s in ms if r + s != 0)
    add("ell powers compose additively", ok)
    add("ell inverse times ell is the identity",
        all(ell_power(-1, ell[1][a]) == terms[a] for a in g.masks()))

    ok = all(ell_power(m, q) == ell_power_series(m, q)
             for m in ms for q in [_random_poly(g, rng)])
    add("ell power equals the truncated exponential series", ok)

    coeffs = vandermonde_coeffs(g)
    den = lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (den // c.denominator) for c in coeffs]
    ok = all([den * x for x in deriv[a].coeffs]
             == [sum(map(mul, scaled, col))
                 for col in zip(*(ell[r][a].coeffs for r in range(1, n + 2)))]
             for a in g.masks())
    add("derivation equals the vandermonde combination of ell powers", ok)

    eps = [epsilon_map(p) for p in terms]
    ok = True
    for a in g.masks():
        expected = [0] * g.size
        for b in g.masks():
            if b & a == a:
                expected[b] = (-1) ** (popcount(b) - popcount(a))
        ok = ok and list(eps[a].coeffs) == expected
    add("epsilon composite matches the alternating superset sum", ok)

    ok = all(epsilon_inverse(epsilon_map(q)) == q for q in [_random_poly(g, rng)])
    add("epsilon inverse round trip", ok)

    ok = all(eps[a] * eps[b] == (eps[a] if a == b else zero)
             for a in g.masks() for b in g.masks())
    add("idempotent basis multiplies orthogonally", ok)

    ok = True
    for k in range(n + 1):
        for l in range(n + 1):
            ops = [e_klr(g, k, l, r) for r in range(min(k, l) + 1)]
            level_sum = Poly.block_sum(g, enumerate_by_size(g, l))
            for a in enumerate_by_size(g, k):
                total = zero
                for op in ops:
                    total = total + op(terms[a])
                if total != level_sum:
                    ok = False
    add("intersection strata sum to the full level map", ok)

    rep = verify_terwilliger_generation(g)
    add("generation from derivation and complementation", rep.ok,
        "" if rep.ok else str(rep.first_failure))
    add("operator-space dimension equals C(n+3,3)",
        rep.dim_reconstructed == comb(n + 3, 3),
        f"{rep.dim_reconstructed} vs {comb(n + 3, 3)}")

    ok = True
    for k in range(n // 2 + 1, n + 1):
        op = e_klr(g, k, k, 0)
        for a in enumerate_by_size(g, k):
            if not op(terms[a]).is_zero():
                ok = False
    add("disjointness operator vanishes above n/2", ok)

    ok = True
    for r in range(n):
        raise_op, lower_op = e_klr(g, r, r + 1, r), e_klr(g, r + 1, r, r)
        up = [raise_op(p).coeffs for p in terms]
        down = [lower_op(p).coeffs for p in terms]
        if not all(up[a][b] == down[b][a] for a in g.masks() for b in g.masks()):
            ok = False
    add("raising and lowering operators are transposes", ok)

    ok = True
    for a, p in enumerate(terms):
        lhs = complementation(derivation(complementation(p)))
        expected = Poly(g, P, [1 if b & a == a and popcount(b) == popcount(a) + 1 else 0
                               for b in g.masks()])
        ok = ok and lhs == expected
    add("complementation conjugates derivation into raising", ok)

    return checks


def wrong_ell_power(m, p):
    return operators.ell_power(3 if m == 2 else m, p)


def perturbed_e_klr(g, k, l, r):
    """E[1,2,1] with one extra entry, p_{3} -> p_{1 2}: not S_n-equivariant."""
    op = operators.e_klr(g, k, l, r)
    if (k, l, r) != (1, 2, 1):
        return op

    def apply(p):
        out = list(op(p).coeffs)
        out[0b011] += p.coeffs[0b100]
        return Poly(p.g, P, out)

    return LinearOperator(g, apply)


def perturbed_vandermonde_coeffs(g):
    coeffs = list(operators.vandermonde_coeffs(g))
    coeffs[1] += Fraction(1, 7)
    return coeffs


@pytest.mark.parametrize("n", range(1, 8))
def test_per_orbit_suite_matches_the_full_basis_oracle(n):
    g = GroundSet(n)
    assert identity_suite(g) == full_basis_suite(g)


@pytest.mark.parametrize("name, mutant", [
    ("ell_power", wrong_ell_power),
    ("e_klr", perturbed_e_klr),
    ("vandermonde_coeffs", perturbed_vandermonde_coeffs),
], ids=["ell_power", "e_klr", "vandermonde_coeffs"])
def test_per_orbit_suite_matches_the_oracle_under_each_mutation(monkeypatch, name, mutant):
    # The e_klr mutant is not equivariant, so the per-orbit reduction does
    # not cover it: the transpose check (full basis) is what must catch
    # it, and the strata check sees it here only because the size-1
    # representative at n = 3 is {3}, the one set whose image it changes.
    for module in (identities, sys.modules[__name__]):
        monkeypatch.setattr(module, name, mutant)
    g = GroundSet(3)
    got = identity_suite(g)
    assert got == full_basis_suite(g)
    assert not all(ok for _, ok, _ in got)


def test_suite_refuses_n_past_the_cap_before_any_check(monkeypatch):
    monkeypatch.setattr(identities, "derivation", lambda p: pytest.fail("a check ran"))
    with pytest.raises(InputError, match=f"n <= {MAX_N_IDENTITIES}"):
        identity_suite(GroundSet(MAX_N_IDENTITIES + 1))


def load_identity_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "identity_sweep.py"
    spec = importlib.util.spec_from_file_location("identity_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_sweep_exits_1_when_an_identity_fails(monkeypatch, capsys):
    sweep = load_identity_sweep()
    monkeypatch.setattr(sweep, "identity_suite",
                        lambda g, seed: [("one identity", g.n <= 3, "")])
    assert sweep.main(["--min-n", "2", "--max-n", "3"]) == 0
    assert sweep.main(["--min-n", "2", "--max-n", "4"]) == 1
    assert "n=4: 1 identities, FAILED: ['one identity']" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--max-n", str(MAX_N_IDENTITIES + 1)], ["--min-n", "0"]])
def test_identity_sweep_refuses_n_outside_1_to_the_cap(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        load_identity_sweep().main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_identity_sweep_refuses_an_empty_range(monkeypatch, capsys):
    sweep = load_identity_sweep()
    monkeypatch.setattr(sweep, "identity_suite", lambda g, seed: pytest.fail("a suite ran"))
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--min-n", "6", "--max-n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--min-n 6 is larger than --max-n 3" in captured.err
