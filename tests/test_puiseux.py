import math
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
from powmon import puiseux
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
    integral or not, and `from_scaled` what Fraction(n) / scale gave, over
    scales that are integers and that are not, the families' included."""
    monoids = (PuiseuxMonoid([1]), PuiseuxMonoid([F(1, 2), F(1, 3)]), geometric(F(2, 3), 3),
               PuiseuxMonoid([F(2)]), PuiseuxMonoid([F(4, 5), F(6, 7)]),
               *map(example33, range(4)), geometric(F(2, 3), 17))
    for monoid in monoids:
        scaled = [*range(90), *monoid.scaled_generators, 7 * monoid.scaled_generators[-1] + 1]
        for n in scaled:
            assert monoid.from_scaled(n) == F(n) / monoid.scale, (monoid, n)
        assert tuple(map(monoid.from_scaled, monoid.scaled_generators)) == monoid.generators
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


def _table_contains(monoid, q) -> bool:
    n = monoid.to_scaled(F(q))
    return n is not None and monoid.numerical.contains(n)


# <1, 100, 101>: 100 copies of 1 are the least multiple in <100, 101>, past
# _TRADE_CAP, so the solver scans every count of 1; its other depth is bounded
PAST_THE_CAP = [F(1), F(100), F(101)]


class _Over:
    """A `ReprSolver` over the scaled generators of `PuiseuxMonoid(gens)`,
    asked in rationals as the monoid asks it: each query goes through the
    monoid's `to_scaled`, and one off its lattice has no representation,
    exhaustive under any cap.  `gens` are the rationals, in the solver's
    order; `solver` is the integer solver itself."""

    def __init__(self, gens):
        self.monoid = PuiseuxMonoid(gens)
        self.gens = self.monoid.generators
        self.solver = ReprSolver(self.monoid.scaled_generators)

    def is_member(self, q):
        n = self.monoid.to_scaled(F(q))
        return n is not None and self.solver.is_member(n)

    def search(self, q, limit=None, max_total=None):
        n = self.monoid.to_scaled(F(q))
        return ([], True) if n is None else self.solver.search(n, limit, max_total)

    def is_atom_generator(self, g):
        return self.solver.is_atom_generator(self.monoid.to_scaled(F(g)))


def test_solver_agrees_with_apery_backend():
    """The generator solver answers membership and atoms as the Apery
    table does on monoids small enough to run both, and its factorizations
    (the monoid's own, and a fresh solver's over the atoms) are the
    unpruned recursion's over the scaled atoms (prime-power denominators
    included, so residue strides that are prime powers get exercised).
    Geometric powers bound every depth's trades at 1; PAST_THE_CAP leaves
    one depth unbounded."""
    rng = random.Random(31)
    powers = [[r**k for k in range(level + 1)] for r, level in ((F(2, 3), 6), (F(3, 5), 4))]
    assert all(k == 1 for gens in powers for *_, k in _Over(gens).solver._residues)
    assert _Over(PAST_THE_CAP).solver._residues[0][3] is None

    def generator_lists():
        for _ in range(30):
            dens = rng.sample([2, 3, 4, 5, 7, 8, 9, 25, 27], 3)
            yield sorted({F(rng.randrange(1, 8), d) for d in dens})
        yield from powers
        yield PAST_THE_CAP

    for gens in generator_lists():
        monoid = PuiseuxMonoid(gens)
        solver = _Over(monoid.generators)
        atoms = monoid.atoms()
        assert atoms == tuple(map(monoid.from_scaled, monoid.numerical.atoms))
        assert tuple(g for g in monoid.generators if solver.is_atom_generator(g)) == atoms
        atom_solver = _Over(atoms)
        for _ in range(25):
            q = F(rng.randrange(0, 40), rng.randrange(1, 10))
            assert solver.is_member(q) == monoid.contains(q) == _table_contains(monoid, q), (
                gens, q)
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


def _random_tabled_monoids(rng, count):
    for _ in range(count):
        dens = rng.sample([1, 2, 3, 4, 5, 7, 8, 9, 25, 27], rng.randrange(1, 5))
        yield sorted({F(rng.randrange(1, 12), d) for d in dens})
    yield PAST_THE_CAP


def test_the_remembered_walk_agrees_with_the_table(monkeypatch):
    """With the solver forced (no table answers membership below
    _SMALL_TABLE = 0), `contains` and the solver's `is_member`, asked a
    rational through `to_scaled` or a scaled int, agree with the table on
    random monoids that have one: from a fresh solver and from one whose
    memo every earlier query filled, asked in either order.  A solver
    remembers answers only past its last depth without a trade bound, and
    a bounded one with more than one generator remembers some."""
    monkeypatch.setattr(puiseux, "_SMALL_TABLE", 0)
    rng = random.Random(67)
    for gens in _random_tabled_monoids(rng, 60):
        tabled, forced = PuiseuxMonoid(gens), PuiseuxMonoid(gens)
        solver = _Over(tabled.generators)
        queries = [F(rng.randrange(0, 80), rng.randrange(1, 12)) for _ in range(40)]
        want = [_table_contains(tabled, q) for q in queries]
        assert [forced.contains(q) for q in queries] == want, gens
        assert forced._membership_table() is None or not forced._solver.bounded
        assert [solver.is_member(q) for q in queries] == want, gens
        assert [solver.is_member(q) for q in reversed(queries)] == want[::-1], gens
        assert [_Over(gens).is_member(q) for q in queries] == want, gens
        ints = solver.solver
        scaled = range(-2, 3 * tabled.scaled_generators[-1])
        assert [ints.is_member(n) for n in scaled] == [
            tabled.numerical.contains(n) for n in scaled], gens
        assert all(i >= ints._memo_depth for i, _ in ints._sums), gens
        if ints.bounded:
            assert bool(ints._sums) == (len(ints.gens) > 1), gens


def test_a_filled_memo_answers_as_a_fresh_solver():
    """On example33(1), past any table, a solver whose memo an mcd walk and
    earlier queries filled answers each query as a solver built for it
    alone does."""
    m = example33(1)
    gens = m.generators
    rng = random.Random(71)
    m.mcd([F(4, 5), F(6, 7)])
    solver = m._solver
    assert solver.bounded and solver._sums
    queries = [F(4, 5) - sum(rng.sample(gens, rng.randrange(0, 4)), F(0)) for _ in range(20)]
    queries += [sum(rng.sample(gens, rng.randrange(1, 4)), F(0)) + F(1, rng.choice([2, 3, 17]))
                for _ in range(20)]
    for q in queries:
        n = m.to_scaled(q)
        assert (n is not None and solver.is_member(n)) == _Over(gens).is_member(q), q


def test_a_free_monoid_walks_one_count_per_depth():
    """Every trade bound of a geometric truncation is 1, so a membership
    walk tries one count at each depth but the last: a query remembers at
    most n - 1 remainders, where a walk over whole classes would remember
    hundreds."""
    gens = geometric(F(2, 3), 17).generators
    over = _Over(gens)
    solver = over.solver
    assert all(k == 1 for *_, k in solver._residues)
    rng = random.Random(79)
    answers = []
    for _ in range(300):
        before = len(solver._sums)
        answers.append(over.is_member(F(rng.randrange(10**7, 10**9), 3**17)))
        assert len(solver._sums) - before <= len(gens) - 1
    assert 0 < sum(answers) < len(answers)


def test_a_deep_geometric_truncation_is_free_and_fast():
    """<(2/3)^0, ..., (2/3)^150>, built directly since `geometric` refuses
    levels past 17: every generator is an atom, and 2 has one factorization
    of each length from 2 to 152 (2 = 2*1 = 3*(2/3) = 2/3 + 3*(2/3)^2 = ...).
    Every trade bound is 1, so the search enters only counts that complete
    and leaves each node at its first miss: atoms, factorizations and
    lengths take well under the deadline, where a search that visits
    subtrees without a solution takes seconds."""
    start = time.perf_counter()
    gens = [F(2, 3) ** k for k in range(151)]
    m = PuiseuxMonoid(gens)
    assert m.atoms() == tuple(sorted(gens))
    assert len(m.factorizations(2)) == 151
    assert m.lengths(2) == (frozenset(range(2, 153)), True)
    assert time.perf_counter() - start < 1


def test_the_memo_starts_over_at_its_limit(monkeypatch):
    """A bounded solver keeps at most _MEMO_LIMIT answers, and answers the
    same once it has dropped them."""
    m = example33(1)
    fresh = [_Over(m.generators).is_member(q) for q in (F(4, 5), F(6, 7), F(1, 2))]
    monkeypatch.setattr(puiseux, "_MEMO_LIMIT", 8)
    solver = _Over(m.generators)
    for _ in range(2):
        assert [solver.is_member(q) for q in (F(4, 5), F(6, 7), F(1, 2))] == fresh
        assert 0 < len(solver.solver._sums) <= 8


def test_integer_mcd_matches_the_brute_force_lattice(monkeypatch):
    """The integer mcd walk, on the solver (no table answers membership
    below _SMALL_TABLE = 0) and on the table, gives the maximal elements
    of the brute-force common-divisor lattice of random members, two or
    three at a time."""
    rng = random.Random(73)
    cases = []
    for gens in _random_tabled_monoids(rng, 40):
        m = PuiseuxMonoid(gens)
        members = sorted(reachable_upto(m.scaled_generators, 60))
        for _ in range(3):
            elems = rng.sample(members, min(len(members), rng.choice([2, 3])))
            cases.append((gens, elems, brute_mcds(m.scaled_generators, elems)))
    for small_table in (puiseux._SMALL_TABLE, 0):
        monkeypatch.setattr(puiseux, "_SMALL_TABLE", small_table)
        for gens, elems, want in cases:
            m = PuiseuxMonoid(gens)
            got = m.mcd([m.from_scaled(x) for x in elems])
            assert list(map(m.to_scaled, got)) == want, (gens, elems, small_table)
            assert all(type(d) is F for d in got)


def test_solver_combined_residue_constraints():
    """A composite denominator makes one generator the unique negative
    carrier at two primes at once; the solver must combine both residue
    constraints and still agree with the Apery backend."""
    gens = [F(5, 6), F(4)]
    monoid = PuiseuxMonoid(gens)
    solver = _Over(gens)
    for num in range(0, 121):
        for den in (1, 2, 3, 6):
            q = F(num, den)
            assert solver.is_member(q) == _table_contains(monoid, q), q
    vectors, exhaustive = solver.search(F(25, 6) + 8)
    assert exhaustive
    totals = {sum(c * g for g, c in zip(solver.gens, vec)) for vec in vectors}
    assert totals == {F(25, 6) + 8}


def _fraction_search(solver, target, primes, limit=None, max_total=None):
    """`ReprSolver.search` as it ran on Fractions, pruned by the p-adic
    valuations of `primes`: the reference the integer search must match
    call for call.  It reads only the solver's generators and `primes`,
    primes of their denominators; a denominator that `primes` does not
    factor fully only weakens its pruning."""
    gens = solver.gens
    n = len(gens)
    neg, max_neg_idx = [], {}
    for i, g in enumerate(gens):
        neg.append({})
        for p in primes:
            e = int_valuation(g.denominator, p) - int_valuation(g.numerator, p)
            if e > 0:
                neg[i][p] = e
                max_neg_idx[p] = i
    fully_factored = True
    for g in gens:
        rest = g.denominator
        for p in primes:
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
        for p in primes:
            if max_neg_idx[p] >= i:
                while rest % p == 0:
                    rest //= p
        if fully_factored:
            if rest > 1:
                return
        else:
            for p in primes:
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


# Trial division for the reference primes stops here, so a cofactor such as
# 100003 * 100019 stays unfactored and the reference prunes on the rest only
_TRIAL = 100_000
_UNFACTORED = 100003 * 100019


def _reference_primes(gens, known=()):
    """The primes of the denominators of `gens` that the reference search
    prunes by: those in `known` (a family's), and those trial division up to
    _TRIAL finds once `known` is divided out."""
    primes = set(known)
    for g in gens:
        rest = g.denominator
        for p in known:
            while rest % p == 0:
                rest //= p
        d = 2
        while d <= _TRIAL and d * d <= rest:
            if rest % d == 0:
                primes.add(d)
                while rest % d == 0:
                    rest //= d
            d += 1 if d == 2 else 2
        if rest > 1 and d * d > rest:  # no factor up to its root: a prime
            primes.add(rest)
    return tuple(sorted(primes))


def _agreement_solvers():
    """Solvers, each with the primes the reference search prunes it by."""
    pairs = []
    for level in range(4):
        m = example33(level)
        pairs.append((_Over(m.generators), _reference_primes(m.generators, m.family.primes)))
    for gens in (
        [F(1, 4), F(3, 8), F(5, 9), F(7, 27)],  # prime powers
        [F(5, 6), F(4)],  # one generator carries 2 and 3
        [F(7, 12), F(5, 18), F(11, 10)],  # composite denominators
        [F(1, 3), F(1, 2), F(_UNFACTORED + 1, _UNFACTORED)],
        [F(2, 5), F(_UNFACTORED + 2, 3 * _UNFACTORED), F(_UNFACTORED + 1, _UNFACTORED)],
        [F(2, 3) ** k for k in range(6)],  # every trade bound is 1
        PAST_THE_CAP,
    ):
        pairs.append((_Over(gens), _reference_primes(gens)))
    return pairs


def test_integer_search_matches_the_fraction_search():
    rng = random.Random(47)
    calls = 0
    for solver, primes in _agreement_solvers():
        gens = solver.gens
        targets = [F(4, 5), F(6, 7), F(4, 5) + F(6, 7)] if len(gens) > 3 else []
        targets += [sum(rng.choices(gens, k=rng.randrange(0, 5)), F(0)) for _ in range(12)]
        for target in targets:
            for limit in (None, 1, 2):
                for max_total in (None, 1, 2, 3):
                    want, want_exhaustive = _fraction_search(solver, target, primes, limit,
                                                             max_total)
                    got, exhaustive = solver.search(target, limit, max_total)
                    assert got == want, (gens, target)
                    # the flag is never looser than the reference's, and is
                    # tighter only where no factorization is longer than the cap
                    assert exhaustive >= want_exhaustive, (gens, target)
                    if exhaustive > want_exhaustive:
                        full, _ = solver.search(target)
                        assert all(sum(v) <= max_total for v in full), (gens, target)
                    calls += 1
    # the reference leaves 100003 * 100019 unfactored, the solver needs no primes
    unfactored = [primes for solver, primes in _agreement_solvers()
                  if solver.gens[-1].denominator == _UNFACTORED]
    assert unfactored and all(100003 not in primes for primes in unfactored)
    assert calls > 1000


def test_the_cap_flag_is_exact_on_a_bounded_solver():
    """A capped search reads exhaustive exactly when no representation is
    longer than the cap, on every solver whose depths all have a trade
    bound: the agreement solvers and random tabled monoids.  Where a depth
    has none, exhaustive still means that the cap cut nothing."""
    rng = random.Random(59)
    over = [solver for solver, _ in _agreement_solvers()]
    over += [_Over(gens) for gens in _random_tabled_monoids(rng, 60)]
    seen = {(bounded, truth): 0 for bounded in (True, False) for truth in (True, False)}
    for solver in over:
        gens, bounded = solver.gens, solver.solver.bounded
        for _ in range(10):
            target = sum(rng.choices(gens, k=rng.randrange(0, 7)), F(0))
            full, exhaustive = solver.search(target)
            assert exhaustive
            for cap in range(6):
                truth = all(sum(v) <= cap for v in full)
                flag = solver.search(target, max_total=cap)[1]
                assert flag == truth if bounded else flag <= truth, (gens, target, cap)
                seen[bounded, truth] += 1
    assert min(seen.values()) > 20, seen


def _memoless(gens) -> ReprSolver:
    """A solver that remembers no answer at any depth."""
    solver = ReprSolver(gens)
    solver._memo_depth = len(solver.gens)
    solver._sums.clear()
    return solver


# unbounded at depth 0 only: 128 copies of 6 are the least multiple in the rest
MEMO_PAST_THE_UNBOUNDED = [6, 462, 636, 654, 1512, 2298]


def test_an_unbounded_solver_remembers_its_bounded_depths():
    """<6, 462, 636, 654, 1512, 2298> has no trade bound at depth 0 only.
    Its answers at depths 1 and up are remembered, and the trade-bound
    pass's are kept: a capped search with a limit returns what the walk
    without any memo returns, and asked again it walks none of those
    subtrees a second time."""
    solver = ReprSolver(MEMO_PAST_THE_UNBOUNDED)
    assert (solver.bounded, solver._memo_depth) == (False, 1)
    assert solver._sums and all(i >= 1 for i, _ in solver._sums)
    walks = []

    def counted(owner):
        is_sum = owner._is_sum

        def wrapper(i, t):
            walks.append(owner)
            return is_sum(i, t)
        owner._is_sum = wrapper
        return owner

    plain = counted(_memoless(MEMO_PAST_THE_UNBOUNDED))
    counted(solver)
    for _ in range(2):
        assert solver.search(7548, limit=2, max_total=1) == plain.search(7548, 2, 1) == ([], False)
    assert all(i >= 1 for i, _ in solver._sums)
    remembered, forgotten = walks.count(solver), walks.count(plain)
    assert remembered < forgotten * 0.6, (remembered, forgotten)


def _unbounded_solvers(rng, count):
    """Random solvers with a depth that has no trade bound: alternately
    `_random_unbounded_gens` and samples of [1, 3000), unbounded mostly
    at a later depth."""
    found = 0
    while found < count:
        if found % 2:
            gens = rng.sample(range(1, 3000), rng.randrange(2, 7))
        else:
            gens = _random_unbounded_gens(rng)
        solver = ReprSolver(gens)
        if not solver.bounded:
            found += 1
            yield gens, solver


def test_the_remembered_walk_of_an_unbounded_solver_changes_no_search():
    """On random unbounded solvers, the vectors, their order and the flag
    of every search, with and without a limit and a cap, are those of the
    walk that remembers nothing; so is membership."""
    rng = random.Random(97)
    remembering = 0
    for gens, solver in _unbounded_solvers(rng, 80):
        plain = _memoless(gens)
        top = 3 * solver.gens[-1]
        targets = [rng.randrange(0, top) for _ in range(6)] + [sum(rng.sample(solver.gens, 2))]
        for target in targets:
            for limit in (None, 1, 2):
                for cap in (None, 1, 2, 3, 5):
                    assert solver.search(target, limit, cap) == plain.search(target, limit, cap), (
                        gens, target, limit, cap)
            assert solver.is_member(target) == plain.is_member(target), (gens, target)
        assert all(i >= solver._memo_depth for i, _ in solver._sums), gens
        remembering += bool(solver._sums)
    assert remembering > 20


def test_a_limited_search_is_a_prefix_of_the_full_one():
    """`limit=k` returns the first k vectors of the search without a limit,
    in its order, and reads non-exhaustive once it stops, even when exactly
    k vectors exist; alone and under a cap.  `limit=0` stops after the
    first vector, as `limit=1` does."""
    rng = random.Random(53)
    stopped_at_the_last = 0
    for solver, _ in _agreement_solvers():
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
    """The one intended difference from the Fraction search: a target off
    the lattice has no representation, and the integer side says so at
    once, exhaustive, where the Fraction search reported the capped
    candidates it never tried.  For a rational target `to_scaled` says so
    before any solver runs; the integer solver says so for a target outside
    the multiples of its generators' gcd, or below 0.  `factorizations`,
    the only caller with a cap, refuses such a target as a non-member
    first."""
    solver = _Over([F(1, 2), F(1, 3)])
    assert _fraction_search(solver, F(5, 4), (2, 3), max_total=1) == ([], False)
    assert solver.monoid.to_scaled(F(5, 4)) is None
    assert solver.search(F(5, 4), max_total=1) == ([], True)
    assert ReprSolver([4, 6]).search(5, max_total=1) == ([], True)
    assert ReprSolver([4, 6]).search(-4, max_total=1) == ([], True)
    assert solver.search(F(5, 4)) == _fraction_search(solver, F(5, 4), (2, 3)) == ([], True)
    with pytest.raises(NotAMemberError):
        PuiseuxMonoid([F(1, 2), F(1, 3)]).factorizations(F(5, 4), max_length=1)


@pytest.mark.parametrize("level", [2, 3])
def test_prime_discovery_ignores_generator_order(level):
    """example33's denominators are products of primes past the
    Miller-Rabin range, which the solver never looks for: its suffix gcds
    prune as the family's primes do, whatever order the generators come
    in."""
    m = example33(level)
    solver = _Over(m.generators)
    target = solver.gens[0] + solver.gens[1] + solver.gens[5]
    primes = _reference_primes(m.generators, m.family.primes)
    reversed_solver = ReprSolver(m.scaled_generators[::-1])
    assert reversed_solver.search(m.to_scaled(target)) == solver.search(target) == (
        _fraction_search(solver, target, primes))
    if level == 3:
        assert solver.search(target) == ([(1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)], True)


def test_an_atom_is_not_scanned_for_a_second_representation():
    """Over these generators the counts of 19/N, N = 100003 * 100019, that a
    search for 28/25 walks run to about 6*10**8.  Once it has found 28/25
    itself, a scan for a second representation would walk them all; the
    search enters only remainders that are sums of the later generators,
    and a run of k_i counts that leave none ends a node."""
    gens = [F(19, _UNFACTORED), F(25, _UNFACTORED), F(2, 100019), F(1, 7), F(28, 25)]
    start = time.perf_counter()
    m = PuiseuxMonoid(gens)
    atoms = m.atoms()
    assert time.perf_counter() - start < 0.5
    assert atoms == tuple(map(m.from_scaled, m.numerical.atoms)) and F(28, 25) in atoms


def test_a_depth_without_a_trade_bound_leaves_membership_to_the_table():
    """Over <1000, 10**12, 10**12 + 1> no multiple of 1000 below 10**12 is a
    sum of the later generators, so the solver's first depth has no trade
    bound, and its search for 10**12 - 1 would walk 10**9 counts of 1000.
    That monoid has a table, past _SMALL_TABLE, which answers membership
    and atoms instead."""
    m = PuiseuxMonoid([1000, 10**12, 10**12 + 1])
    assert min(m.scaled_generators) > puiseux._SMALL_TABLE
    start = time.perf_counter()
    assert not m.contains(10**12 - 1) and not m.contains(F(1, 2))
    assert m.contains(10**12 - 1000) and m.contains(2 * 10**12 + 1)
    assert m.atoms() == (1000, 10**12 + 1)  # 10**12 is 10**9 copies of 1000
    assert time.perf_counter() - start < 0.5
    assert not m._solver.bounded and m._membership_table() is m.numerical
    assert not _Over(PAST_THE_CAP).solver.bounded and _Over([F(1, 2), F(1, 3)]).solver.bounded


def test_membership_past_an_unbounded_depth_still_needs_the_table():
    """The solver's walk for t over <1000, 10**12, 10**12 + 1> still steps
    through the counts of 1000 at its unbounded first depth, so its time
    grows linearly with t - 10**12: 2 * 10**12 - 1 would take 10**4 times
    as long as 10**12 + 10**8 - 1.  The table answers that query at once,
    so membership there must stay with the table."""
    m = PuiseuxMonoid([1000, 10**12, 10**12 + 1])
    assert m._membership_table() is m.numerical
    assert not m.contains(2 * 10**12 - 1)


def test_no_trade_bound_is_sought_over_an_unbounded_rest():
    """Over <10**9 - 1, 10**9, 10**21, 10**21 + 10**9> the solver over the
    last three generators has no trade bound at its first depth, so looking
    for k_0 with it would walk up to 10**9 counts of 10**9 per k.  The
    solver skips k_0 there and builds at once; no table exists (the
    multiplicity is past APERY_LIMIT), so membership runs on it.  A walk
    over a depth without a bound remembers nothing, so its memo stays
    empty however many counts it tries."""
    gens = [10**9 - 1, 10**9, 10**21, 10**21 + 10**9]
    start = time.perf_counter()
    m = PuiseuxMonoid(gens)
    assert not m.contains(1) and m.contains(2 * 10**9 - 1) and not m.contains(10**9 + 1)
    assert m._solver.search(2 * 10**9 - 1) == ([(1, 1, 0, 0)], True)
    assert time.perf_counter() - start < 0.5
    assert m.numerical is None and not m._solver.bounded
    start = time.perf_counter()
    assert not m.contains(1) and m.contains(3 * 10**9 - 1) and not m.contains(3 * 10**9 - 4)
    assert time.perf_counter() - start < 0.5
    assert m._solver._sums == {}


_UNBOUNDED_REST = [10**9 - 1, 10**9, 10**21, 10**21 + 10**9]


def test_each_trade_bound_is_the_least_multiple_in_the_suffix_monoid():
    """On random monoids with a table, each k_i that the solver's backward
    pass finds is its definition: the least k <= _TRADE_CAP with k*h_i*G_i
    in <G_{i+1}, ..., G_{n-1}>, read off that suffix monoid's own table, or
    None past the cap; and None wherever a later depth has none, since the
    pass stops there.  The solver is bounded when every k_i is found."""
    rng = random.Random(83)
    checked = unbounded = 0
    for gens in _random_tabled_monoids(rng, 300):
        m = PuiseuxMonoid(gens)
        scaled, ks = m.scaled_generators, [k for *_, k in m._solver._residues]
        assert len(ks) == len(scaled) - 1
        later_bounded = True
        for i in reversed(range(len(ks))):
            h = math.gcd(*scaled[i + 1:]) // math.gcd(*scaled[i:])
            suffix = PuiseuxMonoid(m.generators[i + 1:])
            multiples = range(1, puiseux._TRADE_CAP + 1) if later_bounded else ()
            want = next((k for k in multiples
                         if _table_contains(suffix, k * h * m.generators[i])), None)
            assert ks[i] == want, (gens, i)
            later_bounded = want is not None
            checked += 1
        assert m._solver.bounded == (None not in ks)
        unbounded += not m._solver.bounded
    assert checked > 300 and unbounded


def test_the_trade_bounds_of_the_families():
    """Every geometric truncation is free in the solver's order, so each
    k_i is 1; every example33 depth has k_i <= 7 up to level 3.  PAST_THE_CAP
    has none at its first depth, and over _UNBOUNDED_REST the second depth
    has none either (10**12 copies of 10**9 are the least multiple in
    <10**21, 10**21 + 10**9>), so the first is not sought."""
    for ratio, top in ((F(2, 3), 17), (F(3, 5), 11)):
        for level in range(top + 1):
            assert [k for *_, k in geometric(ratio, level)._solver._residues] == [1] * level
    for level in range(4):
        ks = [k for *_, k in example33(level)._solver._residues]
        assert len(ks) == 3 * level + 2 and all(k is not None and k <= 7 for k in ks), ks
    assert [k for *_, k in PuiseuxMonoid(PAST_THE_CAP)._solver._residues] == [None, 1]
    assert [k for *_, k in PuiseuxMonoid(_UNBOUNDED_REST)._solver._residues] == [None, None, 1]


def test_membership_past_depths_without_a_trade_bound_is_answered_at_once():
    """Over _UNBOUNDED_REST (no table) the first two depths have no trade
    bound.  The walk for 10**21 - 1 or 2*10**21 + 7 once tried up to 10**12
    counts of 10**9 at the second, past 10 s.  10**9 divides every
    remainder there, so it answers at once; the first depth takes only
    counts that leave 0 or at least 10**9.  Every integer past the
    Frobenius number of <10**9 - 1, 10**9> is a member; that number is not."""
    a = 10**9 - 1
    frobenius = a * (a + 1) - a - (a + 1)
    m = PuiseuxMonoid(_UNBOUNDED_REST)
    start = time.perf_counter()
    assert m.contains(10**21 - 1) and m.contains(2 * 10**21 + 7)
    assert not m.contains(frobenius) and m.contains(frobenius + 1)
    assert not m.contains(10**9 + 1) and m.contains(10**21 + 10**9 - 1)
    assert time.perf_counter() - start < 0.5
    assert m.numerical is None and m._solver._sums == {}


def test_the_walk_over_unbounded_depths_agrees_with_the_table():
    """On random <a, b, b + c> with a small, where k*a is rarely a sum of b
    and b + c for k <= 64, the solver's walk (which skips the counts that
    leave a nonzero remainder below the next generator at a depth without a
    trade bound) answers membership of every integer below 2*(b + c) as the
    table does."""
    rng = random.Random(89)
    unbounded = 0
    for _ in range(40):
        a, b = rng.randrange(2, 60), rng.randrange(100, 1000)
        m = PuiseuxMonoid([a, b, b + rng.randrange(1, 60)])
        solver, table = m._solver, m.numerical
        unbounded += not solver.bounded
        top = 2 * m.scaled_generators[-1]
        assert [solver.is_member(n) for n in range(top)] == [
            table.contains(n) for n in range(top)], m
    assert unbounded > 20


def test_atoms_and_factorizations_past_unbounded_depths_are_answered_at_once():
    """Over _UNBOUNDED_REST (no table) the search for a second
    representation of 10**21 once walked 10**12 counts of 10**9 at the
    second depth, which has no trade bound, past 5 s.  A count that leaves
    a nonzero remainder below the next generator is skipped there, so the
    search jumps to the count that leaves 0.  Only 10**9 - 1 and 10**9 are
    atoms, so a factorization of q is a pair (x, y) with
    x*(10**9 - 1) + y*10**9 = q, that is x = -q mod 10**9."""
    a, b = 10**9 - 1, 10**9
    start = time.perf_counter()
    m = PuiseuxMonoid(_UNBOUNDED_REST)
    assert m.atoms() == (a, b) and m.numerical is None
    assert time.perf_counter() - start < 0.5
    q = 10**21 + 10**9
    start = time.perf_counter()
    enum = m.factorizations(q)
    assert time.perf_counter() - start < 0.5
    assert enum.exhaustive
    xs = range(-q % b, q // a + 1, b)
    assert len(xs) == 1001 and set(enum.items) == {
        Factorization(zip(m.atoms(), (x, (q - x * a) // b))) for x in xs}


def _random_unbounded_gens(rng):
    """<a, b_1, ..., b_k> with a small and every b_j much larger, so that
    k*a is rarely a sum of the b_j for k <= _TRADE_CAP."""
    a = rng.randrange(2, 30)
    return [a] + [rng.randrange(20 * a, 200 * a) for _ in range(rng.randrange(1, 4))]


def test_the_search_over_unbounded_depths_matches_the_plain_search():
    """On random solvers with a depth that has no trade bound, the search
    returns the vectors of the plain scan over every count (the Fraction
    search without primes), in its order, alone, under a limit and under a
    length cap; its flag is never looser, and tighter only where no
    factorization is longer than the cap."""
    rng = random.Random(97)
    unbounded = calls = 0
    for _ in range(30):
        gens = _random_unbounded_gens(rng)
        solver = _Over(gens)
        if solver.solver.bounded:
            continue
        unbounded += 1
        gens = solver.gens
        targets = [sum(rng.choices(gens, k=rng.randrange(0, 5)), F(0)) for _ in range(4)]
        targets += [F(rng.randrange(0, 3 * int(gens[-1]))) for _ in range(4)]
        for target in targets:
            for limit in (None, 1, 2):
                for max_total in (None, 1, 5, 30):
                    want, want_exhaustive = _fraction_search(solver, target, (), limit, max_total)
                    got, exhaustive = solver.search(target, limit, max_total)
                    assert got == want, (gens, target, limit, max_total)
                    assert exhaustive >= want_exhaustive, (gens, target, limit, max_total)
                    if exhaustive > want_exhaustive:
                        full, _ = solver.search(target)
                        assert all(sum(v) <= max_total for v in full), (gens, target)
                    calls += 1
    assert unbounded > 10 and calls > 1000


def test_a_prime_square_cofactor_splits_by_its_root():
    """Without a residue class for 100003**2, which trial division up to
    100,000 does not split, this non-member query once crawled for seconds;
    the suffix gcds force the count of 1/p**2 at once."""
    p, q = 100003, 300007
    gens = [F(1, p * p), F(1, q)]
    query = F(p * p * q - p * p - q, p * p * q)
    start = time.perf_counter()
    answer = PuiseuxMonoid(gens).contains(query)
    assert time.perf_counter() - start < 0.5
    assert answer is False
    m = PuiseuxMonoid(gens)
    # query scales to the Frobenius number of <q, p**2>: past it, all members
    for target in (F(1, p), F(3, p * p) + F(5, q), query + F(1, p * p), query + F(1, q)):
        assert m.contains(target), target


def test_a_semiprime_cofactor_splits_by_rho():
    """p9 * p10 of example33(3) lies past the Miller-Rabin range and no
    other generator yields either prime: the solver, which factors nothing,
    finds what the reference search pruned by all three primes finds."""
    fam = example33(3).family
    p9, p10, p11 = fam.prime(9), fam.prime(10), fam.prime(11)
    gens = [F(1, p9 * p10), F(1, p11)]
    solver = _Over(gens)
    for target in (F(2, p11), F(1, p9 * p10) + F(3, p11), F(1, p9), F(1, p9 * p11)):
        assert solver.search(target) == _fraction_search(solver, target, (p9, p10, p11)), target
    assert PuiseuxMonoid(gens).contains(F(2, p11))


def test_a_cofactor_with_a_prime_past_the_mr_range_builds_quickly():
    """100003 * (2**89 - 1), whose large prime nothing here can prove, costs
    the solver nothing to build."""
    big = 100003 * (2**89 - 1)
    start = time.perf_counter()
    _Over([F(1, big), F(1, 7)])
    assert time.perf_counter() - start < 0.5
    m = PuiseuxMonoid([F(1, big)])
    assert m.contains(F(5, big)) and not m.contains(F(1, 2 * big))


def test_a_cofactor_rho_cannot_split_is_walked_once():
    """A product of two primes near 10**12, past what Pollard's rho split
    within its budget, is never factored: the solver over it builds at once,
    and one walk finds the three representations of 1."""
    big = 1000000000039 * 1000000000061
    start = time.perf_counter()
    solver = _Over([F(1, big), F(1, 7), F(1, 300007)])
    vectors, exhaustive = solver.search(F(1))
    assert time.perf_counter() - start < 0.5
    assert exhaustive and sorted(vectors) == [(0, 0, 7), (0, 300007, 0), (big, 0, 0)]


def test_a_probable_prime_cofactor_stays_an_unknown_prime():
    """2**89 - 1 is a whole denominator past the Miller-Rabin range, whose
    primality is refused; the solver never asks, and answers exactly, at
    once."""
    mersenne = 2**89 - 1
    start = time.perf_counter()
    m = PuiseuxMonoid([F(1, mersenne), F(1, 300007)])
    assert m.contains(F(2, 300007)) is True
    assert m.contains(F(1, 300007) + F(3, mersenne)) is True
    assert m.contains(F(1, 2 * 300007)) is False
    assert time.perf_counter() - start < 1


# a = 300007 puts the multiplicity past APERY_LIMIT; 2**89 - 1 is a prime
# past the Miller-Rabin range, and p * q a product of two primes near 10**12
_A, _MERSENNE = 300007, 2**89 - 1
_SEMIPRIME = 1000000000039 * 1000000000061


@pytest.mark.parametrize("gens", [[F(1, _MERSENNE), F(1, _A)], [F(1, _SEMIPRIME), F(1, 7)]],
                         ids=["mersenne", "semiprime"])
def test_large_prime_denominators_are_answered_at_once(gens):
    """With these primes unknown, pruning by prime powers left the count of
    the smallest generator unconstrained, and each query below walked about
    one count per unit of the other denominator.  The suffix gcds answer in
    microseconds."""
    start = time.perf_counter()
    m = PuiseuxMonoid(gens)
    a, b = gens[1].denominator, gens[0].denominator
    assert m.factorizations(1).items == (
        Factorization([(gens[1], a)]), Factorization([(gens[0], b)]))
    if a == _A:
        # the Frobenius number of <a, b>, scaled by 1/(a*b): not a member
        assert m.contains(F(a * b - a - b, a * b)) is False
        with pytest.raises(UnsupportedAmbientError, match="too large to enumerate"):
            m.divisors(1)
    assert time.perf_counter() - start < 0.5


def test_every_solver_query_goes_through_the_class_method(monkeypatch):
    """Wrappers bound over `ReprSolver.search` and `ReprSolver.is_member`
    after the handle and its solver exist see every query, so a tracer
    that rebinds the class attributes counts every one: membership and
    `mcd` go through `is_member`, atoms and factorizations through
    `search`.  The handle is a fresh copy of the shared one, whose atoms
    may be filled already."""
    shared = example33(1)
    m = PuiseuxMonoid(shared.generators, family=shared.family)
    assert m.numerical is None
    m._solver
    calls = []
    search, is_member = ReprSolver.search, ReprSolver.is_member

    def counting_search(self, *args, **kwargs):
        calls.append(("search", kwargs))
        return search(self, *args, **kwargs)

    def counting_member(self, *args):
        calls.append(("is_member", {}))
        return is_member(self, *args)

    monkeypatch.setattr(ReprSolver, "search", counting_search)
    monkeypatch.setattr(ReprSolver, "is_member", counting_member)
    atoms = m.atoms()
    assert {k for k, _ in calls} == {"search"}
    for kind, query in (("is_member", lambda: m.contains(F(4, 5))),
                        ("search", lambda: m.factorizations(atoms[0] + atoms[1])),
                        ("is_member", lambda: m.mcd([F(4, 5), F(6, 7)]))):
        calls.clear()
        query()
        assert kind in {k for k, _ in calls}
    calls.clear()
    m.factorizations(F(4, 5), max_length=2)
    assert ("search", {"max_total": 2}) in calls


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


def test_divisors_without_a_table_stop_the_search_at_the_budget(monkeypatch):
    """Every vector of a positive member costs at least 2 sub-sums, so the
    search stops once it holds more vectors than half the budget: the
    10**6 + 1 factorizations of 300007 * 300011 * 10**6 over <300007, 300011>
    are never all listed, and the refusal reads as before."""
    m = PuiseuxMonoid([300007, 300011])
    assert m.numerical is None and len(m.atoms()) == 2
    calls = []
    search = ReprSolver.search

    def counting(self, *args, **kwargs):
        calls.append(kwargs)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(ReprSolver, "search", counting)
    q = 300007 * 300011 * 10**6
    start = time.perf_counter()
    with pytest.raises(UnsupportedAmbientError) as refused:
        m.divisors(q)
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == f"divisor set of {q} is too large to enumerate"
    assert calls == [{"limit": puiseux._DIVISOR_ENUM_LIMIT // 2 + 1}]


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
    """`lengths` gives the lengths and the exhaustive flag of
    `factorizations` under the same cap, from the count vectors alone."""
    rng = random.Random(61)
    monoids = [example33(1), PuiseuxMonoid([F(1, P), F(2, P), F(1, Q)])]
    for _ in range(20):
        gens = {F(rng.randrange(1, 13), rng.choice([1, 2, 3, 5])) for _ in range(3)}
        monoids.append(PuiseuxMonoid(gens))
    for m in monoids:
        targets = [sum((a * rng.randrange(0, 4) for a in m.atoms()), F(0)) for _ in range(3)]
        for q in targets + ([F(4, 5), F(6, 7)] if m.family else []):
            top = max(m.factorizations(q).lengths())
            for cap in (None, 0, 1, top // 2, max(top - 1, 0), top):
                enum = m.factorizations(q, max_length=cap)
                got = m.lengths(q, max_length=cap)
                assert got == (enum.lengths(), enum.exhaustive), (m, q, cap)


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
    assert monoid.lengths(x) == (frozenset({4}), True)


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
    """Past _SMALL_TABLE, membership and atoms build no Apery table; the
    first member enumeration or divisor set builds it, and only once.  A
    divisor set builds the table before its membership test, and once the
    table is built it answers membership and atoms without a solver.  Up to
    _SMALL_TABLE the table, cheaper to build than a solver, answers them
    from the first query."""
    builds = _counting_apery_builds(monkeypatch)
    searches = _counting_searches(monkeypatch)
    a = puiseux._SMALL_TABLE + 1
    members = [0, a, a + 1, 2 * a, 2 * a + 1]
    m = PuiseuxMonoid([a, a + 1])
    assert m.contains(2 * a + 1) and not m.contains(a - 1) and m.atoms() == (a, a + 1)
    assert builds == [] and searches
    assert m.members_upto(2 * a + 1) == members
    assert builds == [2]
    assert m.divisors(2 * a + 1) == [0, a, a + 1, 2 * a + 1]
    assert builds == [2]
    for x in (a, puiseux._SMALL_TABLE, 2):
        m = PuiseuxMonoid([x, x + 1])
        searches.clear()
        builds.clear()
        divisors = [0, x, x + 1, 2 * x + 1]
        if x == a:  # the table first, then its membership test and the rest
            assert m.divisors(2 * x + 1) == divisors
        assert m.contains(2 * x + 1) and not m.contains(1) and m.atoms() == (x, x + 1)
        assert m.divisors(2 * x + 1) == divisors
        assert builds == [2] and searches == [], x


def test_example33_membership_stays_on_the_solver(monkeypatch):
    """example33(0) and the ordinary monoid of (2/3)**0, ..., (2/3)**10 scale
    to tableable multiplicities past _SMALL_TABLE, but membership and atoms
    go to the solver: no table is built until a member enumeration asks for
    one, and the answers agree with that table.  Once the table exists it
    answers membership, with no search."""
    builds = _counting_apery_builds(monkeypatch)
    searches = _counting_searches(monkeypatch)
    shared = example33(0)
    for m in (PuiseuxMonoid(shared.generators, family=shared.family),
              PuiseuxMonoid([F(2, 3)**k for k in range(11)])):
        assert min(m.scaled_generators) > puiseux._SMALL_TABLE
        rng = random.Random(33)
        queries = []
        for _ in range(60):
            q = sum((rng.randrange(3) * g for g in m.generators), F(0))
            queries.append(q)
            queries.append(q + rng.choice(m.generators) - rng.choice(m.generators))
        before = [m.contains(q) for q in queries]
        atoms = m.atoms()
        if m.family:
            assert atoms == m.generators
            assert m.mcd([F(4, 5), F(6, 7)]) == (F(1, 17),)
        assert builds == [] and set(before) == {True, False}
        table = m.numerical
        assert builds == [len(m.generators)] and m.numerical is table  # once, on demand
        want = [n is not None and table.contains(n) for n in map(m.to_scaled, queries)]
        assert before == want and atoms == tuple(map(m.from_scaled, table.atoms))
        searches.clear()
        assert [m.contains(q) for q in queries] == want
        assert searches == []  # the table, now that it is built
        builds.clear()


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
    assert m.lengths(F(4, 5)) == (enum.lengths(), True)
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
        Factorization((m.from_scaled(a), 1) for a in z)
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


def test_factorizations_share_one_pair_per_atom_and_count():
    """Within one result, equal (atom, count) pairs are one object."""
    for m, q in [(PuiseuxMonoid([5, 7, 9, 11, 13]), 60),
                 (PuiseuxMonoid([F(1, 2), F(1, 3), F(5, 4)]), F(29, 4))]:
        pairs = [pair for z in m.factorizations(q).items for pair in z.counts]
        assert len(pairs) > len(set(pairs)) == len({id(pair) for pair in pairs})


def test_a_warm_call_neither_hashes_nor_orders_an_atom(monkeypatch):
    """Once <1/2, 1/3, 5/4> is warm, `factorizations` sorts on integer
    codes: with Fraction.__lt__, Fraction.__hash__ and Factorization.__lt__
    raising, every answer is the one given before."""
    m = PuiseuxMonoid([F(1, 2), F(1, 3), F(5, 4)])
    q = F(29, 4)
    want = [m.factorizations(q), m.factorizations(q, 13)]
    assert len(want[0]) > len(want[1]) > 1 and not want[1].exhaustive

    def refuse(*_):
        raise AssertionError("an atom or a factorization was hashed or compared")

    monkeypatch.setattr(F, "__lt__", refuse)
    monkeypatch.setattr(F, "__hash__", refuse)
    monkeypatch.setattr(Factorization, "__lt__", refuse)
    got = [m.factorizations(q), m.factorizations(q, 13)]
    monkeypatch.undo()
    assert got == want


def test_factorizations_match_the_sort_of_public_objects():
    """On random monoids of 2 to 5 generators, integer and rational, with
    and without a length cap, `factorizations` returns the solver's vectors
    built by the public constructor and sorted by Factorization.__lt__,
    with the solver's flag."""
    rng = random.Random(83)
    capped = 0
    for trial in range(60):
        k = rng.randrange(2, 6)
        if trial % 2:
            gens = [F(rng.randrange(1, 20), rng.randrange(1, 7)) for _ in range(k)]
        else:
            gens = [rng.randrange(2, 30) for _ in range(k)]
        m = PuiseuxMonoid(gens)
        q = sum(rng.randrange(4) * g for g in gens)
        for cap in (None, rng.randrange(1, 6)):
            vectors, exhaustive = m._atom_solver.search(m.to_scaled(F(q)), max_total=cap)
            want = tuple(sorted(Factorization(zip(m.atoms(), v)) for v in vectors))
            got = m.factorizations(q, cap)
            assert (got.items, got.exhaustive) == (want, exhaustive), (gens, q, cap)
            capped += not exhaustive and len(want) > 1
    assert capped
