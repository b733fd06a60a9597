import hashlib
import math
import random
from fractions import Fraction

import pytest

from powmon import (
    InvalidInputError,
    NotAMemberError,
    NotCofiniteError,
    NumericalMonoid,
    PuiseuxMonoid,
    example33,
    geometric,
)
from oracles import (
    brute_apery,
    brute_divisors,
    brute_frobenius,
    naive_factorizations,
    reachable_upto,
)


def test_construction_basics():
    n35 = NumericalMonoid([3, 5])
    assert n35.frobenius == 7 == brute_frobenius([3, 5])
    assert n35.atoms == (3, 5)

    full = NumericalMonoid([1])
    assert full.frobenius == -1
    assert full.atoms == (1,)
    assert full.contains(0) and full.contains(10**9)

    n23 = NumericalMonoid([2, 3])
    assert n23.atoms == (2, 3)


def test_construction_errors():
    with pytest.raises(NotCofiniteError):
        NumericalMonoid([4, 6])
    with pytest.raises(InvalidInputError):
        NumericalMonoid([])
    with pytest.raises(InvalidInputError):
        NumericalMonoid([0, 3])
    with pytest.raises(InvalidInputError):
        NumericalMonoid([-2, 3])


def test_membership_examples():
    n35 = NumericalMonoid([3, 5])
    assert not n35.contains(7)  # the largest gap
    assert n35.contains(8)
    assert n35.contains(0)
    assert not n35.contains(-3)


def test_apery_consistency():
    n35 = NumericalMonoid([3, 5])
    assert set(n35.apery_set()) == {0, 5, 10} == brute_apery([3, 5], 3)
    # each Apery element is a member whose multiplicity-predecessor is not
    for w in n35.apery_set():
        assert n35.contains(w)
        assert w - 3 < 0 or not n35.contains(w - 3)


# Generator sets for the exact-table checks: the trivial monoid, generators
# that are multiples of the multiplicity, several generators sharing a
# factor with it, and small geometric truncations.
APERY_CORPUS = [
    [1],
    [2, 3],
    [3, 6, 7],
    [4, 9, 12, 20],
    [6, 10, 15],
    [12, 18, 20, 27, 30],
    [30, 42, 70, 105],
    *(
        list(geometric(Fraction(*ratio), level).scaled_generators)
        for ratio, level in (((2, 3), 4), ((2, 3), 6), ((3, 5), 3), ((3, 5), 4),
                             ((2, 5), 3), ((2, 5), 5))
    ),
]


def _assert_exact_table(gens):
    m = gens[0]
    table = NumericalMonoid._compute_apery(gens)
    assert len(table) == m
    assert all(w % m == r for r, w in enumerate(table)), gens
    assert set(table) == brute_apery(gens, m), gens


def test_apery_table_matches_brute_force():
    for gens in APERY_CORPUS:
        _assert_exact_table(gens)
        assert NumericalMonoid(gens).frobenius == brute_frobenius(gens), gens


def test_apery_random_sets_with_shared_factors():
    rng = random.Random(29)
    checked = 0
    while checked < 150:
        factor = rng.choice([2, 3, 4, 6, 10])
        gens = sorted({rng.randrange(1, 25) * rng.choice([1, factor])
                       for _ in range(rng.randrange(1, 5))})
        if math.gcd(*gens) != 1:
            continue
        checked += 1
        _assert_exact_table(gens)


def test_example33_table_against_enumeration():
    """example33(0) scales to a multiplicity brute_apery cannot reach (its
    scan would run to about 7e10), so its table is checked against the
    smallest sum a*60325 + b*582295 in each residue class instead: every
    Apery element with respect to m is a sum of the other generators."""
    gens = list(example33(0).scaled_generators)
    assert gens == [57771, 60325, 582295]
    m, g1, g2 = gens
    table = NumericalMonoid._compute_apery(gens)
    bound = max(table)
    smallest: dict[int, int] = {}
    for b in range(bound // g2 + 1):
        for x in range(b * g2, bound + 1, g1):
            r = x % m
            if x < smallest.get(r, bound + 1):
                smallest[r] = x
    assert [smallest.get(r) for r in range(m)] == list(table)
    assert NumericalMonoid(gens).frobenius == bound - m == 91302219


def test_geometric_table_identical_at_scale():
    """The 2/3 truncation at level 17 (multiplicity 2**17) gives the table,
    byte for byte, that a heap-based shortest-path build gave."""
    numerical = geometric(Fraction(2, 3), 17).numerical
    digest = hashlib.sha256(repr(tuple(numerical._apery)).encode()).hexdigest()
    assert digest == "4c73b47e53b8b68e363c653c8295b0f1c09875fc1acab36de33536e671fcc789"
    assert numerical.frobenius == 386896201


def test_cofiniteness_past_frobenius():
    for gens in ([3, 5], [2, 3], [6, 9, 20], [5, 7, 11]):
        monoid = NumericalMonoid(gens)
        for k in range(50):
            assert monoid.contains(monoid.frobenius + 1 + k)


def _scaled_factorizations(monoid, x):
    """The factorizations of x, each as the ascending tuple of its scaled atoms."""
    return {tuple(monoid.to_scaled(a) for a in z.expand()) for z in monoid.factorizations(x)}


def test_factorizations_examples():
    """A numerical monoid's factorizations are asked of PuiseuxMonoid(gens)."""
    n23 = PuiseuxMonoid([2, 3])
    assert _scaled_factorizations(n23, 6) == {(2, 2, 2), (3, 3)} == naive_factorizations([2, 3], 6)
    assert [z.counts for z in n23.factorizations(2).items] == [((2, 1),)]
    n35 = PuiseuxMonoid([3, 5])
    assert _scaled_factorizations(n35, 8) == {(3, 5)} == naive_factorizations([3, 5], 8)


def test_factorizations_map_back():
    n = PuiseuxMonoid([3, 5, 7])
    for x in [0, 3, 10, 12, 15, 24, 37]:
        for z in n.factorizations(x):
            total = sum(a * m for a, m in z.counts)
            assert total == x
        assert _scaled_factorizations(n, x) == naive_factorizations([3, 5, 7], x), x


def test_factorizations_reject_nonmembers():
    with pytest.raises(NotAMemberError):
        PuiseuxMonoid([3, 5]).factorizations(7)
    with pytest.raises(NotAMemberError):
        NumericalMonoid([3, 5]).divisors(4)


def test_length_sets():
    for gens, q, lengths in (([2, 3], 6, {2, 3}), ([2, 3], 3, {1}), ([3, 5, 7], 10, {2})):
        assert PuiseuxMonoid(gens).lengths(q) == (lengths, True)
        assert {len(z) for z in naive_factorizations(gens, q)} == lengths
    assert PuiseuxMonoid([2, 3]).lengths(6, max_length=2) == ({2}, False)


def test_divisors_examples():
    n23 = NumericalMonoid([2, 3])
    assert n23.divisors(4) == [0, 2, 4] == brute_divisors([2, 3], 4)
    assert n23.divisors(6) == [0, 2, 3, 4, 6] == brute_divisors([2, 3], 6)
    assert n23.divisors(0) == [0]


def _scanned_divisors(monoid, x):
    return [d for d in range(x + 1) if monoid.contains(d) and monoid.contains(x - d)]


def test_divisors_by_residue_class_match_the_scan():
    """The per-class progressions list exactly what a scan of 0..x finds,
    below, around and past the conductor."""
    rng = random.Random(17)
    for _ in range(120):
        k = rng.randrange(1, 5)
        while True:
            gens = rng.sample(range(1, 40), k)
            if math.gcd(*gens) == 1:
                break
        monoid = NumericalMonoid(gens)
        top = monoid.frobenius + 2 * monoid.multiplicity + 2
        members = [x for x in range(top) if monoid.contains(x)]
        for x in rng.sample(members, min(8, len(members))):
            assert monoid.divisors(x) == _scanned_divisors(monoid, x), (gens, x)
    numerical = geometric(Fraction(2, 3), 9).numerical
    x = 2 * 3**9
    assert numerical.divisors(x) == _scanned_divisors(numerical, x)


def test_random_monoids_against_oracles():
    """Membership, divisors and factorizations against plain reachability
    and unpruned recursion, on random generator sets."""
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(2, 5)
        while True:
            gens = sorted(rng.sample(range(2, 21), k))
            if math.gcd(*gens) == 1:
                break
        monoid = NumericalMonoid(gens)
        members = reachable_upto(gens, 200)
        for x in range(0, 201, 7):
            assert monoid.contains(x) == (x in members), (gens, x)
        assert monoid.frobenius == brute_frobenius(gens)
        puiseux = PuiseuxMonoid(gens)
        assert [puiseux.to_scaled(a) for a in puiseux.atoms()] == list(monoid.atoms)
        xs = sorted(members)[:6] + [max(members)]
        for x in xs:
            got = _scaled_factorizations(puiseux, x)
            assert got == naive_factorizations(monoid.atoms, x), (gens, x)
            assert monoid.divisors(x) == brute_divisors(gens, x), (gens, x)


def test_minimal_generators_drop_redundant():
    assert NumericalMonoid([2, 3, 4, 5, 6]).atoms == (2, 3)
    assert NumericalMonoid([3, 5, 8]).atoms == (3, 5)


def test_text_and_json_forms():
    n35 = NumericalMonoid([5, 3])
    assert str(n35) == "<3,5>"
    assert n35.to_json() == {"generators": [3, 5], "frobenius": 7}


def test_capped_enumeration_flags_partial():
    n23 = PuiseuxMonoid([2, 3])
    capped = n23.factorizations(12, max_length=2)
    assert not capped.exhaustive and not capped.items  # 3 + 3 + 3 + 3 is the shortest
    full = n23.factorizations(12)
    assert full.exhaustive
    assert _scaled_factorizations(n23, 12) == naive_factorizations([2, 3], 12)
    capped = n23.factorizations(12, max_length=5)
    assert not capped.exhaustive
    assert {tuple(n23.to_scaled(a) for a in z.expand()) for z in capped} == {
        z for z in naive_factorizations([2, 3], 12) if len(z) <= 5
    }
