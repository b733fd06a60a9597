import random
import tracemalloc
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


def _fraction_sorted(elements) -> tuple:
    """The Fraction-arithmetic reference: hash to dedupe, compare to sort."""
    return tuple(sorted({F(e) for e in elements}))


def test_the_integer_keyed_set_matches_the_fraction_sort():
    """FinSet dedupes and orders on integer keys over the common
    denominator; it keeps exactly the elements and the order that hashing
    and comparing Fractions gives, on mixed ints, strings and Fractions,
    equal values written apart ("2/4" beside "1/2") and denominators of
    hundreds of digits.  A negative element is refused with the same
    message, and so is an empty input."""
    rng = random.Random(83)
    big = [2**127 - 1, 3**200, 10**90 + 7]
    fixed = [
        [3, 1, 2, 1, 0],
        ["2/4", "1/2", F(1, 2), 0, "3"],
        [F(1, 3), F(2, 6), F(1, 2), F(2, 3), 1],
        [F(n, d) for d in big for n in (1, d - 1, d, 2 * d + 1)],
        [F(1, big[0]), F(1, big[1]), F(1, big[2]), F(1, 7)],
        ["7/3", 2, F(14, 6), F(5, 2), 0],
    ]
    for _ in range(300):
        fixed.append([rng.choice([
            rng.randrange(0, 30),
            f"{rng.randrange(0, 40)}/{rng.randrange(1, 13)}",
            F(rng.randrange(0, 10**40), rng.choice(big + [rng.randrange(1, 10**6)])),
        ]) for _ in range(rng.randrange(1, 12))])
    for elements in fixed:
        want = _fraction_sorted(elements)
        got = FinSet(elements).elems
        assert got == want and all(type(e) is F for e in got), elements
    for elements in ([0, F(-1, 2), 3], ["1/3", "-5/7", "-1/7"], [F(-1, 10**90 + 7), 0]):
        least = min(map(F, elements))
        with pytest.raises(InvalidInputError, match=f"^negative element {least} is outside"):
            FinSet(elements)
    with pytest.raises(InvalidInputError, match="^a power-monoid element is a nonempty set$"):
        FinSet(iter(()))


def test_unrelated_denominators_keep_the_set_small():
    """Keys over the common denominator are used only when the largest
    denominator is a multiple of every other: over 3,000 elements 1/p, p
    prime, a key over the lcm of all the primes would be about 40,000 bits
    wide, and the keys alone about 15 MB.  The set is built in well under
    that, in the order the Fraction sort gives."""
    sieve = bytearray([1]) * 30000
    sieve[:2] = b"\0\0"
    for p in range(2, 174):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, 30000, p)))
    elements = [F(1, p) for p in range(30000) if sieve[p]] + [0, 1]
    assert len(elements) > 3000
    tracemalloc.start()
    try:
        got = FinSet(reversed(elements)).elems
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert got == _fraction_sorted(elements)
