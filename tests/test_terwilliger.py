from math import comb

import pytest

import goa.terwilliger as terwilliger
from goa.errors import InputError
from goa.operators import admissible_triples, derivation
from goa.poly import P, Poly
from goa.subsets import GroundSet
from goa.terwilliger import verify_terwilliger_generation


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generation_reconstructs_everything(n):
    rep = verify_terwilliger_generation(GroundSet(n))
    assert rep.ok, rep.first_failure
    assert rep.dim_reconstructed == comb(n + 3, 3)


def test_dimension_formula_matches_triple_count():
    for n in range(1, 9):
        assert len(admissible_triples(GroundSet(n))) == comb(n + 3, 3)


def test_small_case_has_ten_operators():
    rep = verify_terwilliger_generation(GroundSet(2))
    assert rep.dim_reconstructed == 10 == comb(5, 3)


def test_zero_operator_confirmed_at_n5():
    rep = verify_terwilliger_generation(GroundSet(5))
    names = [name for name, ok, _ in rep.checks if ok]
    assert "E[3,3,0] = 0 (k > n/2)" in names


def test_scalar_note_present():
    rep = verify_terwilliger_generation(GroundSet(3))
    assert any("scalar factors" in note for note in rep.notes)


def test_rejects_large_ground_set():
    with pytest.raises(InputError):
        verify_terwilliger_generation(GroundSet(9))


def test_generation_check_catches_one_wrong_derivation_entry(monkeypatch):
    def perturbed(p):
        out = list(derivation(p).coeffs)
        out[0b0001] += p.coeffs[0b0011]   # one extra entry: p_{1 2} -> p_{1}
        return Poly(p.g, P, out)

    monkeypatch.setattr(terwilliger, "derivation", perturbed)
    assert not verify_terwilliger_generation(GroundSet(4)).ok
