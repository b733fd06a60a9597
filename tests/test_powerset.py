import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powmon import FinSet, InvalidInputError, size_bound_check


rationals = st.builds(F, st.integers(0, 40), st.integers(1, 8))
finsets = st.lists(rationals, min_size=1, max_size=8).map(FinSet)


def test_invariants():
    s = FinSet([F(1, 2), F(1, 2), F(0), F(3)])
    assert s.elems == (0, F(1, 2), 3)  # sorted, deduplicated
    assert len(s) == 3
    assert s.min == 0
    assert s.contains_zero
    with pytest.raises(InvalidInputError):
        FinSet([])
    with pytest.raises(InvalidInputError):
        FinSet([F(-1, 2)])


def test_minkowski_examples():
    assert FinSet([0, 1]) + FinSet([0, 2]) == FinSet([0, 1, 2, 3])
    assert FinSet([0]) + FinSet([0, 7, 9]) == FinSet([0, 7, 9])
    assert FinSet([0, 3]) + FinSet([0, 1, 5]) == FinSet([0, 1, 3, 4, 5, 8])


def test_nfold():
    assert FinSet([0, 1]) * 3 == FinSet([0, 1, 2, 3])
    assert FinSet([0, 1]) * 0 == FinSet([0])
    assert 2 * FinSet([0, F(1, 2)]) == FinSet([0, F(1, 2), 1])


def test_size_bound_examples():
    assert size_bound_check(FinSet([5]), FinSet([0, 1, 2]))
    assert len(FinSet([5]) + FinSet([0, 1, 2])) == 3
    assert size_bound_check(FinSet([0, 1]), FinSet([0, 2]))
    b, c = FinSet([0, 1, 7]), FinSet([0, 1, 2, 3])
    assert b + c == FinSet([0, 1, 2, 3, 4, 7, 8, 9, 10])
    assert size_bound_check(b, c)


@settings(max_examples=200)
@given(finsets, finsets)
def test_size_bound_property(b, c):
    assert size_bound_check(b, c)
    assert len(b + c) <= len(b) * len(c)


@settings(max_examples=150)
@given(finsets, finsets)
def test_commutativity(s, t):
    assert s + t == t + s


@settings(max_examples=100)
@given(finsets, finsets, finsets)
def test_associativity(s, t, u):
    assert (s + t) + u == s + (t + u)


def _from_zero(s):
    return FinSet(e - s.min for e in s.elems)


@settings(max_examples=150)
@given(finsets, finsets)
def test_translation_equivariance(s, t):
    assert _from_zero(s) + _from_zero(t) == _from_zero(s + t)


def test_size_bound_over_random_monoid_members():
    # the dichotomy again, with elements drawn from random rational monoids
    from powmon import PuiseuxMonoid

    rng = random.Random(12)
    for _ in range(12):
        gens = {F(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(3)}
        monoid = PuiseuxMonoid(gens)
        members = monoid.members_upto(8)
        if len(members) < 8:
            continue
        for _ in range(60):
            b = FinSet(rng.sample(members, rng.randint(1, 8)))
            c = FinSet(rng.sample(members, rng.randint(1, 8)))
            assert size_bound_check(b, c)
            assert (b + c).is_within(monoid)


def test_identity_element():
    rng = random.Random(3)
    identity = FinSet([0])
    for _ in range(50):
        s = FinSet(F(rng.randrange(0, 30), rng.randrange(1, 6)) for _ in range(rng.randrange(1, 7)))
        assert s + identity == s


def test_parse_and_str():
    s = FinSet.parse("{0, 1/2, 3/4}")
    assert s == FinSet([0, F(1, 2), F(3, 4)])
    assert str(s) == "{0, 1/2, 3/4}"
    assert FinSet.parse("{ 6/4 }") == FinSet([F(3, 2)])
    assert s.to_json() == ["0", "1/2", "3/4"]
    with pytest.raises(InvalidInputError):
        FinSet.parse("0, 1")
    with pytest.raises(InvalidInputError):
        FinSet.parse("{}")


def test_ordering_is_lexicographic_on_elements():
    assert FinSet([0, 1]) < FinSet([0, 1, 2]) < FinSet([0, 2])
