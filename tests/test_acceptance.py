"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (rational arithmetic); the only numeric
budgets are the stated wall-clock limits.
"""

import json
import random
import time
from fractions import Fraction as F

from powmon import (
    FinSet,
    NumericalMonoid,
    PuiseuxMonoid,
    example33,
    geometric_chain,
    set_factorizations,
    size_bound_check,
    verify_atoms_by_valuation,
)
from powmon import laboratory as lab
from powmon.cli import main
from powmon.factorization import Factorization
from oracles import (
    brute_apery,
    brute_frobenius,
    brute_mcds,
    chain_value,
    mask_to_set,
    oracle_restricted_factorizations,
    reachable_upto,
)

N0 = PuiseuxMonoid([1])
M23 = PuiseuxMonoid([2, 3])


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def fs(*xs) -> FinSet:
    return FinSet(xs)


def test_criterion_1_example_4_2_golden(capsys):
    """{0,1,2,3}: exactly two factorizations with lengths {2,3};
    {0,...,5}: contains the two distinct length-3 factorizations; < 1 s."""
    t0 = time.perf_counter()

    code = main(["factorize-set", "--monoid", "1", "--restricted", "--json", "{0,1,2,3}"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["factorizations"] == [
        [["0", "1"], ["0", "2"]],
        [["0", "1"], ["0", "1"], ["0", "1"]],
    ]
    assert payload["lengths"] == [2, 3]  # two lengths for one element: no HFM

    enum = set_factorizations(fs(0, 1, 2, 3), N0, restricted=True)
    expected = {
        Factorization([(fs(0, 1), 3)]),
        Factorization([(fs(0, 1), 1), (fs(0, 2), 1)]),
    }
    assert set(enum.items) == expected
    assert enum.lengths() == frozenset({2, 3})

    enum6 = set_factorizations(fs(0, 1, 2, 3, 4, 5), N0, restricted=True)
    z1 = Factorization([(fs(0, 1), 1), (fs(0, 2), 2)])
    z2 = Factorization([(fs(0, 1), 2), (fs(0, 3), 1)])
    assert z1 in set(enum6.items) and z2 in set(enum6.items)
    assert z1 != z2 and z1.length == z2.length == 3  # same length twice: no LFM

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _ok(1, f"both golden factorization sets reproduced in {elapsed:.3f}s")


def test_criterion_2_size_bound_property():
    """10,000 random (B, C) pairs over N0 and over <2,3>: the cardinality
    dichotomy holds every time."""
    rng = random.Random(20240801)
    members23 = [F(x) for x in reachable_upto([2, 3], 40)]
    members10 = [F(x) for x in range(41)]
    checked = 0
    for pool in (members10, members23):
        for _ in range(5000):
            b = FinSet(rng.sample(pool, rng.randint(1, 8)))
            c = FinSet(rng.sample(pool, rng.randint(1, 8)))
            assert size_bound_check(b, c), (b, c)
            checked += 1
    assert checked == 10_000
    _ok(2, "cardinality dichotomy held on 10,000 random pairs (two ambients)")


def test_criterion_3_oracle_equivalence_full_corpus():
    """Every 0-containing B inside [0,12]: production factorizations equal
    the naive multiset enumeration; < 5 min."""
    t0 = time.perf_counter()
    mismatches = 0
    for rest in range(1 << 12):
        bmask = (rest << 1) | 1
        b = FinSet(mask_to_set(bmask))
        got = {
            tuple(sorted(sum(1 << int(e) for e in part) for part in z.expand()))
            for z in set_factorizations(b, N0, restricted=True)
        }
        expected = oracle_restricted_factorizations(bmask, 12)
        if got != expected:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _ok(3, f"4096-set corpus matches the brute-force oracle in {elapsed:.1f}s")


def test_criterion_4_restricted_enumeration_always_exhaustive():
    """Same corpus: every enumeration terminates exhaustively, certifying
    finite factorization behavior of the restricted power monoid."""
    cap_hits = 0
    for rest in range(1 << 12):
        b = FinSet(mask_to_set((rest << 1) | 1))
        enum = set_factorizations(b, N0, restricted=True)
        if not enum.exhaustive:
            cap_hits += 1
        assert len(enum.items) >= 1  # atomic: everything factors
    assert cap_hits == 0
    _ok(4, "all 4096 enumerations exhaustive, none hit a cap")


def test_criterion_5_geometric_chain_depth_10():
    """r = 2/3, depth 10: x_n = 2^n/3^(n-1) exactly, steps are (3-2)*(2/3)^n,
    members of the truncation, and consecutive values differ."""
    report = geometric_chain(F(2, 3), 10)
    assert report.verified
    assert len(report.entries) == 10
    for e in report.entries:
        assert e.value == chain_value(2, 3, e.index)  # independent recomputation
        assert e.value == F(2**e.index, 3 ** (e.index - 1))
        next_value = chain_value(2, 3, e.index + 1)
        assert e.step == e.value - next_value == (3 - 2) * F(2, 3) ** e.index
        assert report.monoid.contains(e.step)
        assert next_value != e.value
    assert "denominator - numerator" in report.sign_note
    _ok(5, "chain verified to depth 10 with exact equality and the sign note")


def test_criterion_6_example33_construction():
    """Level 2: p0 = 17, growth bounds for i <= 8, the chain inequality at
    n = 0,1,2, the partial-sum bound, atom verification, membership; < 30 s."""
    t0 = time.perf_counter()
    monoid = example33(2)
    fam = monoid.family
    assert fam.prime(0) == 17
    assert len(fam.primes) == 9
    for i, p in enumerate(fam.primes):
        assert p > 15 * 2**i
    for n in range(3):
        s_n = fam.partial_sum(n)
        u, v = F(4, 5) - s_n, F(6, 7) - s_n
        assert fam.prime(3 * n + 1) > max(
            fam.prime(3 * n), 15 * 2 ** (3 * n + 3), u.numerator, v.numerator
        )
    assert fam.partial_sum(2) < F(2, 15)

    report = verify_atoms_by_valuation(monoid)
    assert report.passed and len(report.rows) == 9
    assert report.atoms_match_generators

    assert fam.prime(1) * fam.b(0) + fam.a(0) == F(4, 5)
    assert fam.prime(2) * fam.c(0) + fam.a(0) == F(6, 7)
    assert monoid.contains(F(4, 5)) and monoid.contains(F(6, 7))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _ok(6, f"level-2 construction fully certified in {elapsed:.2f}s")


def test_criterion_7_non_2mcd_witness_chain():
    """Levels [0,1,2]: a strictly increasing chain of >= 3 common divisors
    of {4/5, 6/7}, every link verified by exact membership of both residuals."""
    report = lab.non_2mcd_witness([0, 1, 2])
    assert report.passed and report.strictly_increasing
    assert len(report.links) >= 3
    divisors = [link.divisor for link in report.links]
    assert all(a < b for a, b in zip(divisors, divisors[1:]))
    for link in report.links:
        monoid = example33(link.level)
        assert monoid.contains(F(4, 5) - link.divisor)
        assert monoid.contains(F(6, 7) - link.divisor)
    _ok(7, f"chain {' < '.join(str(d) for d in divisors)} verified across levels")


def test_criterion_8_mcd_oracle_equivalence():
    """All member pairs up to 30 in <2,3> and <3,5>: mcd set equals the
    brute-force maximal-element scan of the intersected divisor lattices."""
    checked = 0
    for gens in ([2, 3], [3, 5]):
        monoid = PuiseuxMonoid(gens)
        members = [x for x in reachable_upto(gens, 30)]
        for x in members:
            for y in members:
                got = [int(d) for d in monoid.mcd([F(x), F(y)])]
                assert got == brute_mcds(gens, [x, y]), (gens, x, y)
                checked += 1
    _ok(8, f"mcd agreed with the divisor-lattice oracle on {checked} pairs")


def test_criterion_9_atomicity_sweep():
    """Every B over <2,3> with |B| <= 4, max(B) <= 12 factors; < 10 min."""
    t0 = time.perf_counter()
    report = lab.atomicity_sweep(M23, 4, F(12))
    elapsed = time.perf_counter() - t0
    assert report.passed and not report.failures
    assert report.checked == sum(report.by_cardinality.values())
    assert elapsed < 600, f"took {elapsed:.1f}s"
    _ok(9, f"{report.checked} sets all factored in {elapsed:.1f}s")


def test_criterion_10_numerical_basics():
    """Frobenius(<3,5>) = 7 and Apery(<3,5>, 3) = {0,5,10}, both against
    brute-force membership scans."""
    n35 = NumericalMonoid([3, 5])
    assert n35.frobenius == 7
    assert brute_frobenius([3, 5]) == 7
    assert set(n35.apery_set()) == {0, 5, 10}
    assert brute_apery([3, 5], 3) == {0, 5, 10}
    _ok(10, "Frobenius 7 and Apery {0,5,10} match the brute-force scans")
