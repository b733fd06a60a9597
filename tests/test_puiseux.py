import itertools
import random
import time
from fractions import Fraction as F

import pytest

from powmon import (
    FamilyPreconditionError,
    InvalidInputError,
    NotAMemberError,
    PuiseuxMonoid,
    UnsupportedAmbientError,
    geometric,
    geometric_chain,
    parse_monoid,
)
from powmon import puiseux, rational
from powmon.factorization import Factorization
from powmon.puiseux import FAMILY_HANDLES, ReprSolver, example33, parse_family
from powmon.rational import int_valuation
from oracles import brute_mcds, chain_value, naive_factorizations, reachable_upto


def test_scale_isomorphism_examples():
    m = PuiseuxMonoid([F(1, 2), F(1, 3)])
    assert m.scale == 6
    assert m.scaled_generators == (2, 3)  # 1/3 -> 2, 1/2 -> 3
    assert m.numerical.atoms == (2, 3)

    single = PuiseuxMonoid([F(2)])
    assert single.scale == F(1, 2)
    assert single.numerical.atoms == (1,)

    m2 = PuiseuxMonoid([F(4, 5), F(6, 7)])
    assert m2.scale == F(35, 2)
    assert m2.scaled_generators == (14, 15)


def test_construction_errors():
    with pytest.raises(InvalidInputError):
        PuiseuxMonoid([])
    with pytest.raises(InvalidInputError):
        PuiseuxMonoid([F(0), F(1, 2)])
    with pytest.raises(InvalidInputError):
        PuiseuxMonoid([F(-1, 2)])


def test_membership():
    m = PuiseuxMonoid([F(1, 2), F(1, 3)])
    assert m.contains(F(5, 6))
    assert not m.contains(F(1, 6))
    assert m.contains(0)
    assert not m.contains(F(-1))
    # scale-integrality alone is not enough: 1/6 scales to 1 which is a gap
    assert m.to_scaled(F(1, 6)) == 1


def test_to_scaled_matches_the_fraction_product():
    """The integer divmod gives what the Fraction product q * scale gave,
    integral or not, over scales that are integers and that are not."""
    for monoid in (PuiseuxMonoid([1]), PuiseuxMonoid([F(1, 2), F(1, 3)]), geometric(F(2, 3), 3),
                   PuiseuxMonoid([F(2)]), PuiseuxMonoid([F(4, 5), F(6, 7)])):
        nonintegral = 0
        for den in range(1, 30):
            for num in range(0, 90):
                q = F(num, den)
                t = q * monoid.scale
                want = t.numerator if t.denominator == 1 else None
                assert monoid.to_scaled(q) == want, (monoid, q)
                nonintegral += want is None
        assert nonintegral


def test_atoms():
    assert PuiseuxMonoid([F(1, 2), F(1, 3), F(5, 6)]).atoms() == (F(1, 3), F(1, 2))
    assert PuiseuxMonoid([F(2)]).atoms() == (F(2),)


def test_divisors_and_factorizations_pull_back():
    m = PuiseuxMonoid([F(1, 2), F(1, 3)])
    assert m.divisors(F(5, 6)) == [0, F(1, 3), F(1, 2), F(5, 6)]
    assert m.divisors(F(0)) == [0]
    m23 = PuiseuxMonoid([2, 3])
    assert m23.divisors(F(4)) == [0, 2, 4]

    zs = m.factorizations(F(1))
    rendered = {tuple(z.expand()) for z in zs}
    assert rendered == {(F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))}
    for z in zs:
        assert sum(a * c for a, c in z.counts) == 1

    atom_zs = m.factorizations(F(1, 2))
    assert len(atom_zs.items) == 1 and atom_zs.items[0].length == 1

    with pytest.raises(NotAMemberError):
        m.factorizations(F(1, 6))


def test_mcd_examples_and_oracle():
    m23 = PuiseuxMonoid([2, 3])
    assert m23.mcd([F(4), F(6)]) == (4,)
    assert m23.mcd([F(7)]) == (7,)
    assert m23.mcd([F(2), F(3)]) == (0,)
    with pytest.raises(NotAMemberError):
        m23.mcd([F(1), F(2)])
    with pytest.raises(InvalidInputError):
        m23.mcd([])
    # against the brute divisor-lattice scan
    for x in range(0, 15):
        for y in range(x, 15):
            members = reachable_upto([2, 3], 20)
            if x in members and y in members:
                got = [int(d) for d in m23.mcd([F(x), F(y)])]
                assert got == brute_mcds([2, 3], [x, y]), (x, y)


def test_membership_scale_soundness_random():
    rng = random.Random(23)
    for _ in range(25):
        dens = rng.sample([2, 3, 4, 5, 6, 7], 3)
        gens = [F(rng.randrange(1, 9), d) for d in dens]
        monoid = PuiseuxMonoid(gens)
        scaled_members = reachable_upto(monoid.scaled_generators, 400)
        for _ in range(40):
            q = F(rng.randrange(0, 60), rng.randrange(1, 12))
            t = q * monoid.scale
            expected = t.denominator == 1 and t.numerator in scaled_members and t <= 400
            if t.denominator == 1 and t.numerator > 400:
                continue
            assert monoid.contains(q) == expected, (gens, q)


def test_solver_agrees_with_apery_backend():
    """The valuation-guided solver answers membership and atoms as the Apery
    table does on monoids small enough to run both, and its factorizations
    (the monoid's own, and a fresh solver's over the atoms) are the
    unpruned recursion's over the scaled atoms (prime-power denominators
    included, so residue strides mod p**e with e > 1 get exercised)."""
    rng = random.Random(31)
    for _ in range(30):
        dens = rng.sample([2, 3, 4, 5, 7, 8, 9, 25, 27], 3)
        gens = sorted({F(rng.randrange(1, 8), d) for d in dens})
        monoid = PuiseuxMonoid(gens)
        solver = ReprSolver(monoid.generators)
        atoms = monoid.atoms()
        assert tuple(g for g in monoid.generators if solver.is_atom_generator(g)) == atoms
        atom_solver = ReprSolver(atoms)
        for _ in range(25):
            q = F(rng.randrange(0, 40), rng.randrange(1, 10))
            assert solver.is_member(q) == monoid.contains(q), (gens, q)
        scaled_atoms = [monoid.to_scaled(a) for a in atoms]
        for _ in range(5):
            q = sum(rng.choice(atoms) for _ in range(rng.randrange(0, 5)))
            expected = naive_factorizations(scaled_atoms, monoid.to_scaled(F(q)))
            vectors, exhaustive = atom_solver.search(F(q))
            assert exhaustive
            got = {
                tuple(sorted(monoid.to_scaled(a) for a, c in zip(atom_solver.gens, vec)
                             for _ in range(c)))
                for vec in vectors
            }
            assert got == expected, (gens, q)
            got = {tuple(map(monoid.to_scaled, z.expand())) for z in monoid.factorizations(F(q))}
            assert got == expected, (gens, q)


def test_solver_combined_residue_constraints():
    """A composite denominator makes one generator the unique negative
    carrier at two primes at once; the solver must combine both residue
    constraints and still agree with the Apery backend."""
    gens = [F(5, 6), F(4)]
    monoid = PuiseuxMonoid(gens)
    solver = ReprSolver(gens)
    for num in range(0, 121):
        for den in (1, 2, 3, 6):
            q = F(num, den)
            assert solver.is_member(q) == monoid.contains(q), q
    vectors, exhaustive = solver.search(F(25, 6) + 8)
    assert exhaustive
    totals = {sum(c * g for g, c in zip(solver.gens, vec)) for vec in vectors}
    assert totals == {F(25, 6) + 8}


def _fraction_search(solver, target, limit=None, max_total=None):
    """`ReprSolver.search` as it ran on Fractions before it ran on t * lcm:
    the reference the integer search must match call for call.  It reads
    only the solver's generators and known primes."""
    gens = solver.gens
    n = len(gens)
    neg, max_neg_idx = [], {}
    for i, g in enumerate(gens):
        neg.append({})
        for p in solver._primes:
            e = int_valuation(g.denominator, p) - int_valuation(g.numerator, p)
            if e > 0:
                neg[i][p] = e
                max_neg_idx[p] = i
    fully_factored = True
    for g in gens:
        rest = g.denominator
        for p in solver._primes:
            while rest % p == 0:
                rest //= p
        fully_factored = fully_factored and rest == 1

    def coefficient_constraint(t, g, p, e):
        ratio = t / g
        if int_valuation(ratio.numerator, p) - int_valuation(ratio.denominator, p) < 0:
            return None
        m = p**e
        return ((ratio.numerator * pow(ratio.denominator, -1, m)) % m, m)

    if target < 0:
        return [], True
    solutions = []
    state = {"pruned": False}
    counts = [0] * n

    class Stop(Exception):
        pass

    def record():
        solutions.append(tuple(counts))
        if limit is not None and len(solutions) >= limit:
            raise Stop

    def rec(i, t, total):
        if t == 0:
            for j in range(i, n):
                counts[j] = 0
            record()
            return
        if i == n or t < gens[i]:
            return
        rest = t.denominator
        for p in solver._primes:
            if max_neg_idx[p] >= i:
                while rest % p == 0:
                    rest //= p
        if fully_factored:
            if rest > 1:
                return
        else:
            for p in solver._primes:
                if max_neg_idx[p] < i and t.denominator % p == 0:
                    return
        g = gens[i]
        if i == n - 1:
            q = t / g
            if q.denominator == 1:
                c = q.numerator
                if max_total is not None and total + c > max_total:
                    state["pruned"] = True
                    return
                counts[i] = c
                record()
                counts[i] = 0
            return
        offset, modulus = 0, 1
        for p, e in neg[i].items():
            if max_neg_idx[p] == i:
                constraint = coefficient_constraint(t, g, p, e)
                if constraint is None:
                    return
                a, m = constraint  # combined with the class so far by the CRT
                k = ((a - offset) * pow(modulus, -1, m)) % m
                offset, modulus = (offset + modulus * k) % (modulus * m), modulus * m
        max_c = t // g
        cap_c = max_c if max_total is None else min(max_c, max_total - total)
        c = offset
        while c <= cap_c:
            counts[i] = c
            rec(i + 1, t - c * g, total + c)
            c += modulus
        if c <= max_c:
            state["pruned"] = True
        counts[i] = 0

    try:
        rec(0, F(target), 0)
    except Stop:
        return solutions, False
    return solutions, not state["pruned"]


# 100003 * 100019: past the trial-division limit and composite, so with
# Pollard's rho given no steps these solvers keep an unknown cofactor and
# prune on their known primes only
_UNFACTORED = 100003 * 100019


def _agreement_solvers():
    solvers = []
    for level in range(4):
        m = example33(level)
        solvers.append(ReprSolver(m.generators, m.family.primes))
    solvers += [
        ReprSolver([F(1, 4), F(3, 8), F(5, 9), F(7, 27)]),  # prime powers
        ReprSolver([F(5, 6), F(4)]),  # one generator carries 2 and 3
        ReprSolver([F(7, 12), F(5, 18), F(11, 10)]),  # composite denominators
        ReprSolver([F(1, 3), F(1, 2), F(_UNFACTORED + 1, _UNFACTORED)]),
        ReprSolver([F(2, 5), F(_UNFACTORED + 2, 3 * _UNFACTORED), F(_UNFACTORED + 1, _UNFACTORED)]),
    ]
    return solvers


def test_integer_search_matches_the_fraction_search(monkeypatch):
    monkeypatch.setattr(rational, "_RHO_STEPS", 0)
    rng = random.Random(47)
    calls = 0
    for solver in _agreement_solvers():
        gens = solver.gens
        targets = [F(4, 5), F(6, 7), F(4, 5) + F(6, 7)] if len(gens) > 3 else []
        targets += [sum(rng.choices(gens, k=rng.randrange(0, 5)), F(0)) for _ in range(12)]
        for target in targets:
            for limit in (None, 1, 2):
                for max_total in (None, 1, 2, 3):
                    want, want_exhaustive = _fraction_search(solver, target, limit, max_total)
                    got, exhaustive = solver.search(target, limit, max_total)
                    assert got == want, (gens, target)
                    # the flag is never looser than the reference's, and is
                    # tighter only where no factorization is longer than the cap
                    assert exhaustive >= want_exhaustive, (gens, target)
                    if exhaustive > want_exhaustive:
                        full, _ = solver.search(target)
                        assert all(sum(v) <= max_total for v in full), (gens, target)
                    calls += 1
    unfactored = [s for s in _agreement_solvers() if s.gens[-1].denominator == _UNFACTORED]
    assert unfactored and all(100003 not in s._primes for s in unfactored)
    assert calls > 1000


def test_a_limited_search_is_a_prefix_of_the_full_one(monkeypatch):
    """`limit=k` returns the first k vectors of the search without a limit,
    in its order, and reads non-exhaustive once it stops, even when exactly
    k vectors exist; alone and under a cap.  `limit=0` stops after the
    first vector, as `limit=1` does."""
    monkeypatch.setattr(rational, "_RHO_STEPS", 0)
    rng = random.Random(53)
    stopped_at_the_last = 0
    for solver in _agreement_solvers():
        gens = solver.gens
        targets = [sum(rng.choices(gens, k=rng.randrange(0, 6)), F(0)) for _ in range(8)]
        for target in targets:
            for max_total in (None, 1, 2, 3, 4):
                full, full_exhaustive = solver.search(target, max_total=max_total)
                for limit in range(len(full) + 2):
                    stop = max(limit, 1)
                    want = (full[:stop], False) if len(full) >= stop else (full, full_exhaustive)
                    assert solver.search(target, limit, max_total) == want, (gens, target)
                    stopped_at_the_last += limit == len(full) > 0
    assert stopped_at_the_last > 100


def test_target_outside_the_lattice_is_exhaustive_under_a_cap():
    """The one intended difference from the Fraction search: a target with
    t * lcm not integral has no representation, and the integer search says
    so at once, exhaustive, where the Fraction search reported the capped
    candidates it never tried.  `factorizations`, the only caller with a
    cap, refuses such a target as a non-member first."""
    solver = ReprSolver([F(1, 2), F(1, 3)])
    assert _fraction_search(solver, F(5, 4), max_total=1) == ([], False)
    assert solver.search(F(5, 4), max_total=1) == ([], True)
    assert solver.search(F(5, 4)) == _fraction_search(solver, F(5, 4)) == ([], True)
    with pytest.raises(NotAMemberError):
        PuiseuxMonoid([F(1, 2), F(1, 3)]).factorizations(F(5, 4), max_length=1)


@pytest.mark.parametrize("level", [2, 3])
def test_prime_discovery_ignores_generator_order(level):
    """Without hints, a cofactor that is a product of two large primes is
    split once another generator gives one of them, whatever the order."""
    m = example33(level)
    bare, hinted = ReprSolver(m.generators), ReprSolver(m.generators, m.family.primes)
    assert bare._primes == hinted._primes
    assert set(m.family.primes) <= set(bare._primes)
    if level == 3:
        target = bare.gens[0] + bare.gens[1] + bare.gens[5]
        assert bare.search(target) == ([(1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)], True)


def test_prime_discovery_retests_a_cofactor_after_a_later_split(monkeypatch):
    """100003 * 100019 is tested before the prime c, and splits only after
    c has split 100019 * c: a second pass over the cofactors finds 100003
    (with Pollard's rho given no steps, so that the pass alone must)."""
    monkeypatch.setattr(rational, "_RHO_STEPS", 0)
    a, b, c = 100003, 100019, 100000000003
    gens = [F(1, a * b), F(1, c), F(1, b * c)]
    for order in itertools.permutations(gens):
        assert ReprSolver(order)._primes == (a, b, c)


def test_a_prime_square_cofactor_splits_by_its_root():
    """100003**2 is past the trial limit and no other generator yields
    100003, so the search once had no residue class for it and this
    non-member query crawled for seconds; the square root splits it."""
    p, q = 100003, 300007
    gens = [F(1, p * p), F(1, q)]
    query = F(p * p * q - p * p - q, p * p * q)
    start = time.perf_counter()
    answer = PuiseuxMonoid(gens).contains(query)
    assert time.perf_counter() - start < 0.5
    assert ReprSolver(gens)._primes == (p, q)
    hinted = ReprSolver(gens, [p])
    assert answer == hinted.is_member(query) is False
    m = PuiseuxMonoid(gens)
    for target in (F(1, p), F(3, p * p) + F(5, q), query + F(1, p * p), query + F(1, q)):
        assert m.contains(target) == hinted.is_member(target), target


def test_a_semiprime_cofactor_splits_by_rho():
    """p9 * p10 of example33(3) lies past the Miller-Rabin range and no
    other generator yields either prime: Pollard's rho splits it.  So does
    the 100003 * 100019 of the agreement solvers."""
    fam = example33(3).family
    p9, p10, p11 = fam.prime(9), fam.prime(10), fam.prime(11)
    gens = [F(1, p9 * p10), F(1, p11)]
    bare = ReprSolver(gens)
    assert bare._primes == (p9, p10, p11)
    hinted = ReprSolver(gens, [p9, p10])
    for target in (F(2, p11), F(1, p9 * p10) + F(3, p11), F(1, p9), F(1, p9 * p11)):
        assert bare.search(target) == hinted.search(target), target
    assert PuiseuxMonoid(gens).contains(F(2, p11))
    solver = ReprSolver([F(1, 3), F(1, 2), F(_UNFACTORED + 1, _UNFACTORED)])
    assert solver._primes == (2, 3, 100003, 100019)


def test_a_cofactor_with_a_prime_past_the_mr_range_builds_quickly():
    """100003 * (2**89 - 1) fails the base-2 round, so it is split; rho
    finds 100003, and the prime 2**89 - 1 that is left passes that round and
    stays unknown instead of being proved by trial division."""
    big = 100003 * (2**89 - 1)
    start = time.perf_counter()
    solver = ReprSolver([F(1, big), F(1, 7)])
    assert time.perf_counter() - start < 0.5
    assert solver._primes == (7, 100003)
    m = PuiseuxMonoid([F(1, big)])
    assert m.contains(F(5, big)) and not m.contains(F(1, 2 * big))


def test_a_cofactor_rho_cannot_split_is_walked_once(monkeypatch):
    """The pass that finds 7 and 300007 leads to a second pass, which must
    not walk rho again over the product of two primes near 10**12."""
    monkeypatch.setattr(rational, "_RHO_STEPS", 1 << 8)
    walks = []
    rho = rational._rho

    def counting(n, c):
        walks.append(n)
        return rho(n, c)

    monkeypatch.setattr(rational, "_rho", counting)
    big = 1000000000039 * 1000000000061
    assert ReprSolver([F(1, big), F(1, 7), F(1, 300007)])._primes == (7, 300007)
    assert walks == [big]


def test_a_probable_prime_cofactor_stays_an_unknown_prime():
    """2**89 - 1 is a whole denominator past the Miller-Rabin range: its
    primality is refused, so the solver keeps it as an unknown prime and
    still answers exactly, at once."""
    mersenne = 2**89 - 1
    start = time.perf_counter()
    m = PuiseuxMonoid([F(1, mersenne), F(1, 300007)])
    assert m.contains(F(2, 300007)) is True
    assert m.contains(F(1, 300007) + F(3, mersenne)) is True
    assert m.contains(F(1, 2 * 300007)) is False
    assert time.perf_counter() - start < 1
    assert ReprSolver(m.generators)._primes == (300007,)


def test_every_solver_query_goes_through_the_class_method(monkeypatch):
    """A wrapper bound over `ReprSolver.search` after the handle and its
    solver exist sees every query, so a tracer that rebinds the class
    attribute counts every search.  The handle is a fresh copy of the
    shared one, whose atoms may be filled already."""
    shared = example33(1)
    m = PuiseuxMonoid(shared.generators, family=shared.family)
    assert m.numerical is None
    m._solver
    calls = []
    search = ReprSolver.search

    def counting(self, *args, **kwargs):
        calls.append(kwargs)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(ReprSolver, "search", counting)
    atoms = m.atoms()
    assert calls
    for query in (lambda: m.contains(F(4, 5)),
                  lambda: m.factorizations(atoms[0] + atoms[1]),
                  lambda: m.mcd([F(4, 5), F(6, 7)])):
        calls.clear()
        query()
        assert calls
    calls.clear()
    m.factorizations(F(4, 5), max_length=2)
    assert {"max_total": 2} in calls


_P, _Q = 300007, 300017


@pytest.mark.parametrize("build", [lambda: example33(1),
                                   lambda: PuiseuxMonoid([F(2, _P), F(3, _P), F(5, _Q)])],
                         ids=["example33", "two-primes"])
def test_capped_factorizations_without_an_apery_table(build):
    m = build()
    assert m.numerical is None
    atoms = m.atoms()
    targets = [F(4, 5), F(6, 7)] if m.family else [F(6, _P), F(12, _P), F(6, _P) + F(10, _Q)]
    targets += [atoms[0], atoms[0] + atoms[1], atoms[0] + atoms[1] + atoms[-1]]
    seen = set()
    for q in targets:
        full = m.factorizations(q).items
        for k in (1, 2, 3):
            capped = m.factorizations(q, max_length=k)
            assert capped.items == tuple(z for z in full if z.length <= k), (q, k)
            if capped.exhaustive:
                assert all(z.length <= k for z in full), (q, k)
            seen.add((capped.exhaustive, bool(capped.items)))
    assert seen >= {(True, True), (False, False)}


def test_parse_monoid_forms():
    assert parse_monoid("2,3").generators == (2, 3)
    assert parse_monoid("<1/2, 1/3>").generators == (F(1, 3), F(1, 2))
    assert parse_monoid("1").numerical.frobenius == -1
    with pytest.raises(InvalidInputError):
        parse_monoid("")


@pytest.mark.parametrize("build", [lambda: geometric(F(2, 3), 3), lambda: example33(1)],
                         ids=["geometric", "example33"])
def test_parse_family_reads_back_the_label(build):
    m = build()
    again = parse_family(m.family.label())
    assert again.generators == m.generators
    assert again.to_json() == m.to_json()


def test_str_and_json():
    m = PuiseuxMonoid([F(1, 2), F(1, 3)])
    assert str(m) == "<1/3, 1/2>"
    data = m.to_json()
    assert data["scale"] == "6"
    assert data["numerical_generators"] == ["2", "3"]


# ---------------------------------------------------------------------------
# geometric family


def test_geometric_atoms():
    assert set(geometric(F(2, 3), 3).atoms()) == {F(1), F(2, 3), F(4, 9), F(8, 27)}
    assert set(geometric(F(3, 4), 2).atoms()) == {F(1), F(3, 4), F(9, 16)}
    assert geometric(F(2, 3), 0).atoms() == (F(1),)


def test_geometric_preconditions():
    with pytest.raises(FamilyPreconditionError):
        geometric(F(3, 2), 2)  # not below 1
    with pytest.raises(FamilyPreconditionError):
        geometric(F(1, 2), 2)  # numerator 1
    with pytest.raises(FamilyPreconditionError):
        geometric(F(2, 3), -1)


@pytest.mark.parametrize("build", [
    lambda: geometric(F(2, 3), 10**9),
    lambda: parse_family("geometric:2/3:1000000000"),
])
def test_a_huge_geometric_level_is_refused_before_its_power(build):
    """The numerator is at least 2, so a level at or past the bit length of
    APERY_LIMIT is refused without computing 2**level."""
    start = time.perf_counter()
    with pytest.raises(FamilyPreconditionError,
                       match=r"scales to multiplicity 2\*\*1000000000 > 250000: beyond"):
        build()
    assert time.perf_counter() - start < 0.5


def test_geometric_chain_values():
    report = geometric_chain(F(2, 3), 3)
    assert report.verified
    assert [e.value for e in report.entries] == [
        chain_value(2, 3, 1), chain_value(2, 3, 2), chain_value(2, 3, 3)
    ] == [F(2), F(4, 3), F(8, 9)]
    assert report.entries[0].step == F(2, 3)
    assert report.entries[1].step == F(4, 9)
    assert "denominator - numerator" in report.sign_note


def test_geometric_chain_steps_live_in_monoid():
    for ratio, depth in [(F(2, 3), 6), (F(3, 5), 4), (F(5, 7), 3)]:
        report = geometric_chain(ratio, depth)
        assert report.verified
        for e in report.entries:
            assert e.value == ratio.numerator * ratio ** (e.index - 1)
            assert e.step == (ratio.denominator - ratio.numerator) * ratio**e.index
            assert report.monoid.contains(e.step)


def test_geometric_factorizations_of_two():
    monoid = geometric(F(2, 3), 2)
    zs = {tuple(z.expand()) for z in monoid.factorizations(F(2))}
    assert (F(1), F(1)) in zs
    assert (F(2, 3), F(2, 3), F(2, 3)) in zs
    for z in monoid.factorizations(F(2)):
        assert sum(a * c for a, c in z.counts) == 2


def test_geometric_chain_first_value_is_numerator():
    for ratio in (F(2, 3), F(3, 4), F(4, 7)):
        assert geometric_chain(ratio, 1).entries[0].value == ratio.numerator


def test_members_upto_unavailable_without_apery():
    solver_only = PuiseuxMonoid([F(1, 600007), F(1, 700001)])
    assert solver_only.numerical is None
    with pytest.raises(UnsupportedAmbientError):
        solver_only.members_upto(1)


# <1/250007, 1/250013>: two primes past APERY_LIMIT, so no table and every
# answer below comes from the generator solver
P, Q = 250007, 250013


def test_divisors_without_a_table_are_sub_sums():
    solver_only = PuiseuxMonoid([F(1, P), F(1, Q)])
    assert solver_only.numerical is None
    assert solver_only.divisors(F(2, P) + F(1, Q)) == sorted(
        F(i, P) + F(j, Q) for i in range(3) for j in range(2))
    # one factorization, but 501 * 501 sub-sums: past the enumeration limit
    start = time.perf_counter()
    with pytest.raises(UnsupportedAmbientError, match="too large to enumerate"):
        solver_only.divisors(F(500, P) + F(500, Q))
    assert time.perf_counter() - start < 0.5


def test_divisors_without_a_table_match_the_table(monkeypatch):
    """The sub-sums of the solver's vectors are the table's divisors, on
    random monoids rebuilt with APERY_LIMIT at 0 so that they have no table."""
    rng = random.Random(59)
    pairs = []
    for _ in range(40):
        gens = sorted({F(rng.randrange(1, 13), rng.choice([1, 2, 3, 5, 9])) for _ in range(3)})
        with_table = PuiseuxMonoid(gens)
        for _ in range(4):
            q = sum((g * rng.randrange(0, 4) for g in gens), F(0))
            pairs.append((gens, q, with_table.divisors(q)))
    monkeypatch.setattr(puiseux, "APERY_LIMIT", 0)
    for gens, q, want in pairs:
        without = PuiseuxMonoid(gens)
        assert without.numerical is None
        assert without.divisors(q) == want, (gens, q)


def test_length_set_is_the_lengths_of_the_factorizations():
    rng = random.Random(61)
    monoids = [example33(1), PuiseuxMonoid([F(1, P), F(2, P), F(1, Q)])]
    for _ in range(20):
        gens = {F(rng.randrange(1, 13), rng.choice([1, 2, 3, 5])) for _ in range(3)}
        monoids.append(PuiseuxMonoid(gens))
    for m in monoids:
        targets = [sum((a * rng.randrange(0, 4) for a in m.atoms()), F(0)) for _ in range(3)]
        for q in targets + ([F(4, 5), F(6, 7)] if m.family else []):
            assert m.length_set(q) == m.factorizations(q).lengths(), (m, q)


def test_example33_divisors_read_the_solver_vectors_quickly():
    """example33(1) has no table, so the 51,852 divisors of 4/5 are the
    integer sub-sums of the solver's vectors: about 0.04 s on a 2-vCPU VM,
    where summing Fractions over Factorization objects took 0.46 s."""
    m = example33(1)
    start = time.perf_counter()
    divisors = m.divisors(F(4, 5))
    assert time.perf_counter() - start < 0.25
    assert len(divisors) == 51_852
    assert divisors[0] == 0 and divisors[-1] == F(4, 5)


def test_factorizations_over_atoms_need_a_second_solver():
    """With the non-atom generator 2/P the atoms differ from the
    generators, so factorizations run on a solver over the atoms."""
    monoid = PuiseuxMonoid([F(1, P), F(2, P), F(1, Q)])
    assert monoid.numerical is None
    assert monoid.atoms() == (F(1, Q), F(1, P))
    x = F(3, P) + F(1, Q)
    assert monoid.factorizations(x).items == (Factorization([(F(1, Q), 1), (F(1, P), 3)]),)
    assert monoid._atom_solver is not monoid._solver
    assert monoid.length_set(x) == frozenset({4})


def test_family_constructors_return_one_shared_handle():
    assert example33(1) is example33(1)
    assert parse_family("example33:1") is example33(1)
    assert geometric(F(2, 3), 3) is geometric(F(4, 6), 3) is parse_family("geometric:2/3:3")
    assert geometric(F(2, 3), 3) is not geometric(F(2, 3), 4)


def test_family_handle_memos_hold_their_bound():
    """Each constructor keeps the last FAMILY_HANDLES handles and evicts the
    least recently used one first."""
    assert puiseux._example33.cache_info().maxsize == FAMILY_HANDLES
    assert puiseux._geometric.cache_info().maxsize == FAMILY_HANDLES
    puiseux._geometric.cache_clear()
    handles = [geometric(F(2, 3), level) for level in range(FAMILY_HANDLES + 1)]
    assert puiseux._geometric.cache_info().currsize == FAMILY_HANDLES
    assert geometric(F(2, 3), FAMILY_HANDLES) is handles[-1]
    assert geometric(F(2, 3), 1) is handles[1]
    rebuilt = geometric(F(2, 3), 0)  # the oldest handle was evicted
    assert rebuilt is not handles[0] and rebuilt == handles[0]
    assert puiseux._geometric.cache_info().currsize == FAMILY_HANDLES


def _counting_searches(monkeypatch) -> list:
    calls = []
    search = ReprSolver.search

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return search(self, *args, **kwargs)

    monkeypatch.setattr(ReprSolver, "search", counting)
    return calls


def _counting_apery_builds(monkeypatch) -> list:
    from powmon.numerical import NumericalMonoid

    builds = []
    build = NumericalMonoid.__dict__["_compute_apery"].__func__

    def counting(gens):
        builds.append(len(gens))
        return build(gens)

    monkeypatch.setattr(NumericalMonoid, "_compute_apery", staticmethod(counting))
    return builds


def test_a_table_is_built_on_first_use(monkeypatch):
    """An ordinary monoid builds its Apery table on the first query that
    reads it, and only once."""
    builds = _counting_apery_builds(monkeypatch)
    m = PuiseuxMonoid([2, 3])
    assert builds == []
    assert m.contains(5)
    assert builds == [2]
    assert not m.contains(1) and m.atoms() == (2, 3)
    assert builds == [2]


def test_example33_membership_stays_on_the_solver(monkeypatch):
    """example33(0) scales to a tableable multiplicity, but membership and
    atoms go to the solver: no table is built until a member enumeration
    asks for one, and the answers agree with that table before and after it
    exists."""
    builds = _counting_apery_builds(monkeypatch)
    shared = example33(0)
    m = PuiseuxMonoid(shared.generators, family=shared.family)
    rng = random.Random(33)
    queries = []
    for _ in range(60):
        q = sum((rng.randrange(3) * g for g in m.generators), F(0))
        queries.append(q)
        queries.append(q + rng.choice(m.generators) - rng.choice(m.generators))
    before = [m.contains(q) for q in queries]
    assert m.atoms() == m.generators
    assert m.mcd([F(4, 5), F(6, 7)]) == (F(1, 17),)
    assert builds == [] and set(before) == {True, False}
    searches = _counting_searches(monkeypatch)
    table = m.numerical
    assert builds == [3] and m.numerical is table  # built once, on demand
    want = [n is not None and table.contains(n) for n in map(m.to_scaled, queries)]
    assert before == want
    searches.clear()
    assert [m.contains(q) for q in queries] == want
    assert len(searches) == sum(q > 0 for q in queries)  # still the solver


def test_example33_factorizations_build_no_table(monkeypatch):
    """Factorizations run on the solver, so example33(0) enumerates those
    of 4/5 without its 57,771-residue table."""
    builds = _counting_apery_builds(monkeypatch)
    shared = example33(0)
    m = PuiseuxMonoid(shared.generators, family=shared.family)
    family = shared.family
    enum = m.factorizations(F(4, 5))  # 4/5 = a_0 + p(1) * b_0
    assert enum.exhaustive
    assert enum.items == (Factorization([(family.a(0), 1), (family.b(0), family.prime(1))]),)
    assert m.length_set(F(4, 5)) == enum.lengths()
    assert builds == [] and "numerical" not in vars(m)


def test_a_length_cap_is_flagged_only_when_it_cuts_a_feasible_count():
    """Over <5/7, 3> the coefficient of 5/7 is forced to 2 mod 7 at 31/7,
    so a cap of 3 cuts nothing: the only factorization is found and the
    enumeration is exhaustive."""
    m = PuiseuxMonoid([F(5, 7), F(3)])
    enum = m.factorizations(F(31, 7), max_length=3)
    assert enum.exhaustive
    assert enum.items == (Factorization([(F(5, 7), 2), (F(3), 1)]),)
    assert not m.factorizations(F(31, 7), max_length=2).exhaustive
    # over <3, 10> the counts of 3 that the cap cuts leave remainders 10 does
    # not divide: 4 and 1 from 10 under a cap of 1; 11, 8, 5 and 2 from 20
    # under a cap of 2
    m = PuiseuxMonoid([3, 10])
    for q, cap in ((10, 1), (20, 2)):
        enum = m.factorizations(q, max_length=cap)
        assert enum.exhaustive and enum.items == (Factorization([(F(10), cap)]),)


def test_a_call_costs_the_same_whatever_ran_before(monkeypatch):
    """The shared handles keep their atoms and solvers, but no answers: once
    the atoms are known, a probe asks the solver the same queries on its
    first call, after the witness it embeds has run, and on a repeat."""
    from powmon import laboratory as lab

    puiseux._example33.cache_clear()
    for level in range(3):
        example33(level).atoms()
    pair = (F(4, 5), F(6, 7))
    calls = _counting_searches(monkeypatch)
    lab.mcd_probe(example33(2), pair)
    first = list(calls)
    lab.non_2mcd_witness([0, 1, 2])
    for _ in range(2):
        calls.clear()
        lab.mcd_probe(example33(2), pair)
        assert calls == first


def test_apery_factorizations_build_each_factorization_once(monkeypatch):
    """On a monoid with an Apery table each factorization is built once,
    straight from the solver's count vector, with the items the unpruned
    recursion finds over the scaled atoms, in canonical order."""
    m = PuiseuxMonoid([F(1, 2), F(1, 3), F(5, 4)])
    q = F(29, 4)
    scaled_atoms = [m.to_scaled(a) for a in m.atoms()]
    want = tuple(sorted(
        Factorization.from_parts(map(m.from_scaled, z))
        for z in naive_factorizations(scaled_atoms, m.to_scaled(q))
    ))
    built = []
    canonical = Factorization._canonical.__func__

    def counting(cls, counts):
        built.append(counts)
        return canonical(cls, counts)

    monkeypatch.setattr(Factorization, "_canonical", classmethod(counting))
    monkeypatch.setattr(Factorization, "__init__", None)
    got = m.factorizations(q)
    assert got.items == want and [z.counts for z in got.items] == [z.counts for z in want]
    assert len(built) == len(want) > 1
