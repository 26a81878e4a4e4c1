from fractions import Fraction

import goa.identities as identities
from goa.identities import identity_suite
from goa.operators import LinearOperator, ell_power
from goa.poly import P, Poly
from goa.subsets import GroundSet


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

        return LinearOperator(g, apply, name=op.name, admissible=op.admissible)

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
