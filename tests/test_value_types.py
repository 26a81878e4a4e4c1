"""Value semantics of the plain classes: equality and hashing where code
compares or hashes instances, and immutability of the frozen ones."""

from fractions import Fraction

import pytest

from goa.incidence import IncidenceFunction
from goa.perms import PermGroup, close_generators, parse_permutation
from goa.poly import P, Poly
from goa.recon import reconstruction_pairs
from goa.subsets import GroundSet


def test_equal_ground_sets_compare_and_hash_equal():
    assert GroundSet(5) == GroundSet(5)
    assert hash(GroundSet(5)) == hash(GroundSet(5))
    assert GroundSet(5) != GroundSet(6)
    assert GroundSet(5) != 5
    assert len({GroundSet(4), GroundSet(4), GroundSet(7)}) == 2


def test_groups_differing_only_in_their_elements_compare_and_hash_equal():
    g = GroundSet(4)
    gens = (parse_permutation("(1,2)", g), parse_permutation("(3,4)", g))
    closed = close_generators(g, gens)
    lazy = PermGroup(g, gens)
    assert closed._elements is not None and lazy._elements is None
    assert closed == lazy and hash(closed) == hash(lazy)
    assert lazy != PermGroup(g, gens[:1])
    assert lazy != PermGroup(GroundSet(5), gens)


def test_assigning_to_a_frozen_instance_raises(example_partition):
    g = example_partition.g
    pair = reconstruction_pairs(example_partition, 1)[0]
    for value in (g, PermGroup(g, ()), example_partition.matrix, pair,
                  IncidenceFunction(2, (3, 1, 1, 0))):
        for name in type(value).__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.no_such_field = 1


def test_int_and_fraction_coefficients_give_equal_polys_with_equal_hashes():
    g = GroundSet(2)
    ints = Poly(g, P, (1, 0, -3, 2))
    fractions = Poly(g, P, (Fraction(1), Fraction(0), Fraction(-6, 2), Fraction(2)))
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert len({ints, fractions}) == 1
    assert Poly(g, P, (Fraction(1, 2), 0, 0, 0)) != Poly(g, P, (0, 0, 0, 0))
