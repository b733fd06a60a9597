"""The prime-sequence family: construction determinism, exact inequalities,
valuation-certified atoms, and the membership witnesses for 4/5 and 6/7."""

import time
from fractions import Fraction as F

import pytest

from powmon import (
    InvalidInputError,
    PuiseuxMonoid,
    UnsupportedAmbientError,
    example33,
    verify_atoms_by_valuation,
)
from powmon import puiseux, rational
from powmon.puiseux import Example33Family
from powmon.rational import _MR_LIMIT, is_prime
from oracles import trial_is_prime


def test_level0_construction():
    monoid = example33(0)
    fam = monoid.family
    assert fam.primes == (17, 127, 131)
    assert fam.a(0) == F(1, 17)
    # b_0 = (4/5 - 1/17)/127 = (63/85)/127, c_0 = (95/119)/131
    assert fam.b(0) == F(63, 85 * 127)
    assert fam.c(0) == F(95, 119 * 131)
    assert set(monoid.generators) == {fam.a(0), fam.b(0), fam.c(0)}


def test_prime_choices_are_smallest_valid():
    fam = example33(1).family
    for i, p in enumerate(fam.primes):
        assert trial_is_prime(p)
        assert p > 15 * 2**i
    # p1 must clear 15*2^3 = 120 and both numerators (63 and 95)
    assert fam.primes[1] == 127
    assert fam.primes[2] == 131  # next prime up
    assert fam.primes[3] == 137


def test_chain_inequality_exact():
    fam = example33(2).family
    for n in range(3):
        s_n = fam.partial_sum(n)
        u, v = F(4, 5) - s_n, F(6, 7) - s_n
        p1 = fam.prime(3 * n + 1)
        assert p1 > fam.prime(3 * n)
        assert p1 > 15 * 2 ** (3 * n + 3)
        assert p1 > u.numerator and p1 > v.numerator
        assert fam.prime(3 * n + 2) > p1


def test_partial_sums_stay_below_two_fifteenths():
    for level in range(3):
        fam = example33(level).family
        assert fam.partial_sum(level) < F(2, 15)
        assert F(2, 15) < F(1, 7)


def test_level4_is_refused_at_once():
    """Level 4 needs primes past the Miller-Rabin range, which nothing here
    can prove prime: the construction refuses at once, naming the bound."""
    start = time.perf_counter()
    with pytest.raises(UnsupportedAmbientError, match=str(_MR_LIMIT)):
        example33(4)
    assert time.perf_counter() - start < 1


def test_construction_is_deterministic_and_prefix_stable():
    p1 = example33(1).family.primes
    p2 = example33(2).family.primes
    assert p2[: len(p1)] == p1


def test_membership_witnesses():
    monoid = example33(1)
    fam = monoid.family
    # 4/5 = p1*b0 + a0 and 6/7 = p2*c0 + a0, exactly
    assert fam.prime(1) * fam.b(0) + fam.a(0) == F(4, 5)
    assert fam.prime(2) * fam.c(0) + fam.a(0) == F(6, 7)
    assert monoid.contains(F(4, 5))
    assert monoid.contains(F(6, 7))
    # and the same witness pattern at every later index
    for n in range(fam.level + 1):
        assert fam.prime(3 * n + 1) * fam.b(n) + fam.partial_sum(n) == F(4, 5)
        assert fam.prime(3 * n + 2) * fam.c(n) + fam.partial_sum(n) == F(6, 7)


def test_atom_verification_by_valuation():
    for level in (0, 2):
        monoid = example33(level)
        report = verify_atoms_by_valuation(monoid)
        assert report.passed
        assert report.atoms_match_generators
        assert len(report.rows) == 3 * (level + 1)
        for row in report.rows:
            assert row.valuation < 0 and row.unique_negative


def test_atom_verification_requires_family():
    with pytest.raises(InvalidInputError):
        verify_atoms_by_valuation(PuiseuxMonoid([F(1, 2)]))


def test_a_composite_prime_refuses_the_valuation_report():
    """With c_0's prime squared every generator keeps its private
    denominator and is still an atom, but the prime is no prime: the
    report must refuse it, not certify c_0 through it."""
    primes = list(example33(1).family.primes)
    primes[2] = primes[2] ** 2
    family = Example33Family(1, tuple(primes))
    monoid = PuiseuxMonoid([value for _, value in family.labeled_generators()], family=family)
    with pytest.raises(InvalidInputError, match=f"{primes[2]} is not prime"):
        verify_atoms_by_valuation(monoid)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_the_valuation_report_proves_each_prime_once(monkeypatch, level):
    """One `rational.valuation` per row, and with it one primality proof
    per prime of the family: the other generators are read off their
    denominators, with no valuation of their own."""
    monoid = example33(level)
    monoid.atoms()  # the solver's part, outside the count
    valuations, proved = [], []

    def counting_valuation(q, p):
        valuations.append(p)
        return rational.valuation(q, p)

    def recording_is_prime(n):
        proved.append(n)
        return is_prime(n)

    monkeypatch.setattr(puiseux, "valuation", counting_valuation)
    monkeypatch.setattr(rational, "is_prime", recording_is_prime)
    assert verify_atoms_by_valuation(monoid).passed
    assert len(valuations) == 3 * (level + 1)
    assert sorted(proved) == sorted(monoid.family.primes)


def test_factorizations_of_four_fifths():
    """At level L there are exactly L+1 factorizations of 4/5, one per
    b-index: p(3k+1) copies of b_k plus a_0..a_k."""
    for level in (0, 1, 2, 3):
        monoid = example33(level)
        fam = monoid.family
        enum = monoid.factorizations(F(4, 5))
        assert enum.exhaustive
        assert len(enum.items) == level + 1
        lengths = {fam.prime(3 * k + 1) + (k + 1) for k in range(level + 1)}
        assert enum.lengths() == lengths


def test_mcd_is_full_partial_sum():
    for level in (0, 1, 2, 3):
        monoid = example33(level)
        assert monoid.mcd([F(4, 5), F(6, 7)]) == (monoid.family.partial_sum(level),)


def test_level_validation():
    with pytest.raises(InvalidInputError):
        example33(-1)
    with pytest.raises(InvalidInputError):
        example33("2")


def test_backend_selection_across_levels():
    # level 0 still reduces to a (large) numerical monoid; from level 1 on
    # the cleared denominators are astronomical and the solver takes over
    assert example33(0).numerical is not None
    monoid = example33(1)
    assert monoid.numerical is None
    assert isinstance(monoid.family, Example33Family)
