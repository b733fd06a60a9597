"""Finitely generated Puiseux monoids (additive submonoids of Q>=0).

A monoid given by rational generators is handled through two exact
structures:

* generator solver: a bounded-knapsack search over the scaled generators
  (below), so every remainder it meets is an integer, pruned by suffix gcds
  and bounded by trades.  A remainder must be divisible by the gcd of the
  generators still to come, which forces each coefficient into a single
  residue class without factoring anything; and the search enters only
  remainders that are sums of the later generators, leaving a class after
  the first few counts in a row that leave none, since a surplus trades
  for later generators.  This is what makes the huge-denominator families
  below tractable.  It answers membership (the walk that makes that test,
  remembered per remainder) and atoms, unless a table exists and is built
  already, is small, or one of the solver's depths has no trade bound.
  Its count vectors over the atoms give the length sets (their sums), the
  divisors without a table (their integer sub-sums) and the
  factorizations, the only result built as `Factorization` objects.
* scale isomorphism: multiplying by lambda = lcm(denominators)/gcd(scaled
  numerators) (`to_scaled`, and `from_scaled` back: the only conversions)
  maps the monoid onto a numerical monoid, whose Apery table enumerates
  members: it serves divisor sets, member lists and the
  set-level engine when the multiplicity is small enough to table, and
  membership and atoms in the three cases above.
  Each backend is built on first use.  The tests cross-check the solver's
  membership and atoms against the table.

The module also hosts the named families: `geometric(r, level)` (truncations
of the monoid generated by the powers of a ratio r in (0,1)) and
`example33(level)` (truncations of an atomic monoid built on a fast-growing
prime sequence, in which {4/5, 6/7} acquire ever-larger common divisors as
the level grows).  Each family tag writes its own label and JSON, and
`parse_family` reads the labels back.  Both constructors return one shared
handle per validated argument tuple, from a memo of at most
`FAMILY_HANDLES` handles each (least recently used first out), so repeated
calls share the handle's Apery table, atoms and solvers.  The only answers
a handle keeps across calls are its solver's membership walks: a call costs
less after another by the backends built already (membership reads a built
table) and by the remainders the solver has decided.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Iterable
from fractions import Fraction

from .errors import (
    FamilyPreconditionError,
    InvalidInputError,
    MonoidError,
    NotAMemberError,
    UnsupportedAmbientError,
)
from .factorization import Enumeration, from_codes
from .numerical import NumericalMonoid
from .rational import (
    Record,
    field,
    format_rational,
    next_prime_above,
    parse_rational,
    valuation,
)

# Largest multiplicity for which the Apery table is built.  Member
# enumeration reads it (members_upto, the set-level engine, divisors and the
# Frobenius number in the JSON), and so do membership and atoms where it is
# built already, small or needed (PuiseuxMonoid._membership_table);
# elsewhere they run on the solver.
APERY_LIMIT = 250_000

# Largest trade bound k a solver looks for at each depth (see ReprSolver).
_TRADE_CAP = 64

# Most (depth, remainder) answers a solver remembers; past it the memo
# starts over.  Full, it holds about 10 MB at example33(3)'s 259-bit
# remainders.
_MEMO_LIMIT = 1 << 16

# Largest multiplicity whose Apery table answers membership and atoms on a
# fresh handle: about where building it costs what building a solver does,
# on random monoids of 2-6 generators.
_SMALL_TABLE = 768

_DIVISOR_ENUM_LIMIT = 200_000

# Handles kept per family constructor.
FAMILY_HANDLES = 8


# ---------------------------------------------------------------------------
# family tags


class GeometricFamily(Record):
    """Truncation of <r**n : n >= 0> at a given level."""

    ratio: Fraction
    level: int

    def label(self) -> str:
        return f"geometric:{format_rational(self.ratio)}:{self.level}"

    def to_json(self) -> dict:
        return {"kind": "geometric", "ratio": format_rational(self.ratio), "level": self.level}


class Example33Family(Record):
    """Truncation of the prime-sequence monoid; carries the constructed primes.

    The generators come in triples indexed by n <= level:
      a_n = 1/p(3n),
      b_n = (4/5 - sum_{i<=n} 1/p(3i)) / p(3n+1),
      c_n = (6/7 - sum_{i<=n} 1/p(3i)) / p(3n+2).
    """

    level: int
    primes: tuple[int, ...]

    def prime(self, i: int) -> int:
        return self.primes[i]

    def partial_sum(self, n: int) -> Fraction:
        return sum(Fraction(1, self.primes[3 * i]) for i in range(n + 1))

    def a(self, n: int) -> Fraction:
        return Fraction(1, self.primes[3 * n])

    def b(self, n: int) -> Fraction:
        return (Fraction(4, 5) - self.partial_sum(n)) / self.primes[3 * n + 1]

    def c(self, n: int) -> Fraction:
        return (Fraction(6, 7) - self.partial_sum(n)) / self.primes[3 * n + 2]

    def labeled_generators(self) -> list[tuple[str, Fraction]]:
        out = []
        for n in range(self.level + 1):
            out.append((f"a_{n}", self.a(n)))
            out.append((f"b_{n}", self.b(n)))
            out.append((f"c_{n}", self.c(n)))
        return out

    def label(self) -> str:
        return f"example33:{self.level}"

    def to_json(self) -> dict:
        return {"kind": "example33", "level": self.level,
                "primes": [str(p) for p in self.primes]}


# ---------------------------------------------------------------------------
# generator solver


class ReprSolver:
    """Enumerates representations of an integer as N0-combinations of integers.

    Exhaustive within the stated caps.  It runs on a monoid's scaled
    generators G_i = lambda*g_i and targets T = lambda*t, as `to_scaled`
    gives them, so every remainder the search meets is an integer.  It
    prunes by suffix gcds, as the round-robin residue tables do (Boecker &
    Liptak 2007): a remainder at depth i is a sum of G_i, ..., G_{n-1}, so
    it is divisible by their gcd d_i, and the count c of G_i must leave a
    remainder divisible by d_{i+1}, which forces c into one residue class
    mod d_{i+1} / d_i.  Both are necessary conditions, so pruning never
    loses a solution and needs no factoring.  The target is tested against
    d_0 once; every count is then taken from its class, so each remainder
    is divisible by the next d_i without a test, and the last count is exact.

    Trades bound the counts a node tries.  With h_i = d_{i+1} / d_i, let k_i
    be the least k <= _TRADE_CAP with k*h_i*G_i in <G_{i+1}, ..., G_{n-1}>,
    or None past the cap.  A representation whose count of G_i is
    c + j*h_i, c the least count of its class and j >= k_i, can trade k_i*h_i
    copies of G_i for later generators, each at least G_i and so no more of
    them: it keeps a representation with count c + (j - k_i)*h_i and no
    greater length.  So in each residue mod k_i the j whose count leaves a
    sum of the later generators form an initial segment: a node enters a
    child only on such a remainder, and k_i counts in a row that leave none
    end it.  The first count past `max_total` ends it too, and flags the
    search only if it or one of the next k_i - 1 leaves a sum, so the flag is
    exact when every k_i is bounded.  When every k_i = 1 the monoid is free
    for this order (telescopic: Kirfel and Pellikaan, IEEE Trans. Inf.
    Theory 41, 1995), as every geometric truncation is (Chapman, Gotti and
    Gotti, Comm. Algebra 48, 2020), and a membership query is one walk of n
    steps.  A depth with k_i None scans, untested, every count of its class
    that leaves 0 or at least G_{i+1}, since a smaller nonzero remainder is
    no sum of later generators, and the first past `max_total` flags the
    search; as that can still be a whole class, the one backward pass that
    finds the k_i stops at the first None.

    Membership (`is_member`, that pass and a node's test of a remainder) is
    the same walk without the vectors, stopped at its first sum: whether a
    remainder t at depth i is a sum of G_i, ..., G_{n-1} depends on (i, t)
    alone, so the solver remembers each answer, up to _MEMO_LIMIT of them,
    and a later query that meets the same remainder reads it.  It remembers
    none at a depth without a bound or before one, since a walk there can
    meet a whole class of remainders, and a node at a depth without a bound
    tests nothing; the bounded depths past the last unbounded one remember
    as a bounded solver does, so a node there tests each remainder once.
    """

    def __init__(self, generators: Iterable[int]):
        self.gens = gens = tuple(sorted(generators))
        # suffix[i] = gcd(G_i, ..., G_{n-1}); with d = suffix[i] and
        # h = suffix[i+1], the count of G_i is (T // d) * (G_i // d)**-1 mod h // d
        suffix = list(itertools.accumulate(reversed(gens), math.gcd))[::-1]
        self._gcd = suffix[0] if suffix else 1
        self._residues = residues = [(d, h // d, pow(g // d, -1, h // d), None)
                                     for g, d, h in zip(gens, suffix, suffix[1:])]
        # (i, t) -> whether t is a sum of G_i, ..., G_{n-1}, kept for the
        # depths i >= _memo_depth: those past the last depth without a trade
        # bound, whose walks are bounded
        self._sums: dict[tuple[int, int], bool] = {}
        self._memo_depth = 0
        # k_i from the last depth down, by the walk over the later depths,
        # every one of them bounded while the pass runs
        self.bounded = True
        for i in reversed(range(len(residues))):
            d, modulus, inv, _ = residues[i]
            k = next((k for k in range(1, _TRADE_CAP + 1)
                      if self._is_sum(i + 1, k * modulus * gens[i])), None)
            if k is None:
                self.bounded = False
                self._memo_depth = i + 1
                break
            residues[i] = (d, modulus, inv, k)

    def search(
        self,
        target: int,
        limit: int | None = None,
        max_total: int | None = None,
    ) -> tuple[list[tuple[int, ...]], bool]:
        """All count vectors over `gens` summing to target.

        Returns (solutions, exhaustive); `limit` stops after that many
        solutions (0 after the first), `max_total` caps the coefficient sum
        (either makes the result potentially non-exhaustive).  A negative
        target, or one outside d_0*Z, has no representation, exhaustive
        under any cap.
        """
        if target < 0 or target % self._gcd:
            return [], True
        gens, residues = self.gens, self._residues
        n = len(gens)
        solutions: list[tuple[int, ...]] = []
        counts = [0] * n
        pruned = False

        # True once `limit` solutions are found, and every caller returns at
        # once; otherwise each walk resets its count, so counts[i:] starts at 0
        def rec(i: int, t: int, total: int) -> bool:
            nonlocal pruned
            g = gens[i]
            if t == 0 or i == n - 1:  # the last count leaves 0: d_{n-1} = G_{n-1}
                c = t // g
                if max_total is not None and total + c > max_total:
                    pruned = True
                    return False
                counts[i] = c
                solutions.append(tuple(counts))
                counts[i] = 0
                return limit is not None and len(solutions) >= limit
            d, modulus, inv, trades = residues[i]
            c = t // d * inv % modulus
            if trades:
                # enter only remainders that are sums, k_i misses in a row end
                # the node, and so does a count past the length cap
                misses = 0
                while c * g <= t and misses < trades:
                    r = t - c * g
                    capped = max_total is not None and total + c > max_total
                    if capped and pruned:
                        break
                    if not self._is_sum(i + 1, r):
                        misses += 1
                    elif capped:  # a representation the cap cuts
                        pruned = True
                        break
                    else:
                        misses = 0
                        counts[i] = c
                        if rec(i + 1, r, total + c):
                            return True
                    c += modulus
            else:
                # the counts `_is_sum` takes: those leaving at least G_{i+1},
                # then the one leaving 0, up to the first past the length cap
                for c in itertools.chain(range(c, (t - gens[i + 1]) // g + 1, modulus),
                                         [t // g] if t % g == 0 else []):
                    if max_total is not None and total + c > max_total:
                        pruned = True
                        break
                    counts[i] = c
                    if rec(i + 1, t - c * g, total + c):
                        return True
            counts[i] = 0
            return False

        stopped = rec(0, target, 0)
        return solutions, not (stopped or pruned)

    def is_member(self, t: int) -> bool:
        """Whether t is a sum of the generators."""
        return t >= 0 and t % self._gcd == 0 and self._is_sum(0, t)

    def _is_sum(self, i: int, t: int) -> bool:
        """Whether t, a multiple of d_i, is a sum of G_i, ..., G_{n-1}: the
        walk over the first k_i counts of the class, remembered per (i, t)
        for i >= _memo_depth.  When k_i is None, true at once if G_i
        divides t, and otherwise over every count that leaves at least
        G_{i+1}, since a smaller nonzero remainder is no sum."""
        gens = self.gens
        if t == 0 or i == len(gens) - 1:  # d_{n-1} = G_{n-1} divides t
            return True
        if t < gens[i]:
            return False
        memo = self._sums
        key = (i, t)
        found = memo.get(key)
        if found is not None:
            return found
        d, modulus, inv, trades = self._residues[i]
        g = gens[i]
        if not trades and t % g == 0:
            return True
        top = t if trades else t - gens[i + 1]
        found = False
        for c in range(t // d * inv % modulus, top // g + 1, modulus)[:trades]:
            if self._is_sum(i + 1, t - c * g):
                found = True
                break
        if i >= self._memo_depth:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = found
        return found

    def is_atom_generator(self, g: int) -> bool:
        """True when the only representation of g is g itself."""
        found, _ = self.search(g, limit=2)
        return len(found) == 1


# ---------------------------------------------------------------------------
# the monoid


class PuiseuxMonoid:
    """A finitely generated submonoid of (Q>=0, +), reduced and exact."""

    def __init__(self, generators: Iterable, family=None):
        gens = sorted({Fraction(g) for g in generators})
        if not gens:
            raise InvalidInputError("at least one generator is required")
        if gens[0] <= 0:
            raise InvalidInputError(f"generators must be positive rationals: {gens}")
        self.generators: tuple[Fraction, ...] = tuple(gens)
        self.family = family
        lcm_den = math.lcm(*(g.denominator for g in gens))
        nums = [g.numerator * (lcm_den // g.denominator) for g in gens]
        g0 = math.gcd(*nums)
        self.scale: Fraction = Fraction(lcm_den, g0)
        # (numerator, denominator) of the scale, which every conversion reads
        self._scaling: tuple[int, int] = (self.scale.numerator, self.scale.denominator)
        self.scaled_generators: tuple[int, ...] = tuple(n // g0 for n in nums)
        # every set-level call finds its engine by this hash; hashing a
        # Fraction runs Python code, so it is taken once
        self._hash: int = hash(self.generators)

    # -- backends: each is built on first use --------------------------------

    @functools.cached_property
    def numerical(self) -> NumericalMonoid | None:
        """The scaled numerical monoid, or None when its multiplicity is
        past APERY_LIMIT."""
        if min(self.scaled_generators) > APERY_LIMIT:
            return None
        return NumericalMonoid(self.scaled_generators)

    @functools.cached_property
    def _solver(self) -> ReprSolver:
        return ReprSolver(self.scaled_generators)

    @functools.cached_property
    def _atom_solver(self) -> ReprSolver:
        atoms = self.atoms()
        return self._solver if atoms == self.generators else ReprSolver(map(self.to_scaled, atoms))

    def _membership_table(self) -> NumericalMonoid | None:
        """The Apery table that membership and atoms read, or None: the
        solver answers.  A built one (the cached_property `numerical` in the
        instance dict) first; else, if one exists, when it is small, since a
        lookup then beats building a solver, and when a depth of the solver
        has no trade bound, so that a query could scan every count of its
        class (10**9 of them for 10**12 - 1 over <1000, 10**12, 10**12 + 1>)."""
        table = self.__dict__.get("numerical")
        # the scaled generators ascend, so the first is the multiplicity
        if table is None and (self.scaled_generators[0] <= _SMALL_TABLE
                              or not self._solver.bounded):
            table = self.numerical
        return table

    @functools.cached_property
    def _atoms(self) -> tuple[Fraction, ...]:
        table = self._membership_table()
        if table is not None:
            return tuple(map(self.from_scaled, table.atoms))
        solver = self._solver
        return tuple(g for g, n in zip(self.generators, self.scaled_generators)
                     if solver.is_atom_generator(n))

    # -- scaling helpers ----------------------------------------------------

    def to_scaled(self, q: Fraction) -> int | None:
        """lambda*q when integral, else None (then q is certainly not a member).
        Integer arithmetic: a Fraction product would normalize by a gcd."""
        num, den = self._scaling
        n, r = divmod(q.numerator * num, q.denominator * den)
        return None if r else n

    def from_scaled(self, n: int) -> Fraction:
        num, den = self._scaling
        return Fraction(n * den, num)  # one gcd

    # -- membership and friends ---------------------------------------------

    def contains(self, q) -> bool:
        n = self.to_scaled(Fraction(q))
        return n is not None and self._contains_scaled(n)

    def _contains_scaled(self, n: int) -> bool:
        """Membership of n / scale, n in the units of table and solver alike."""
        table = self._membership_table()
        return self._solver.is_member(n) if table is None else table.contains(n)

    def _require_member(self, q) -> int:
        """lambda*q for a member q; NotAMemberError otherwise."""
        q = Fraction(q)
        n = self.to_scaled(q)
        if n is None or not self._contains_scaled(n):
            raise NotAMemberError(f"{format_rational(q)} is not in {self}")
        return n

    def atoms(self) -> tuple[Fraction, ...]:
        """The atoms: exactly the minimal generators."""
        return self._atoms

    def divisors(self, q) -> list[Fraction]:
        """All d in the monoid with q - d also in the monoid, ascending."""
        table = self.numerical  # built first, so that the membership test reads it
        n = self._require_member(q)
        if table is not None:
            return [self.from_scaled(d) for d in table.divisors(n)]
        # no Apery table: the integer sub-sums of the solver's vectors.  Each
        # vector of q > 0 costs at least 2, so more than half the budget of
        # them is refused whichever they are.
        solver = self._atom_solver
        sums: set[int] = set()
        budget = _DIVISOR_ENUM_LIMIT
        for vector in solver.search(n, limit=_DIVISOR_ENUM_LIMIT // 2 + 1)[0]:
            budget -= math.prod(c + 1 for c in vector)
            if budget < 0:
                q = format_rational(self.from_scaled(n))
                raise UnsupportedAmbientError(f"divisor set of {q} is too large to enumerate")
            partial = {0}
            for g, c in zip(solver.gens, vector):
                partial = {s + k * g for s in partial for k in range(c + 1)}
            sums |= partial
        return [self.from_scaled(s) for s in sorted(sums)]

    def factorizations(self, q, max_length: int | None = None) -> Enumeration:
        """Every factorization of q into atoms (exact, canonically sorted)."""
        n = self._require_member(q)
        vectors, exhaustive = self._atom_solver.search(n, max_total=max_length)
        lengths = list(map(sum, vectors))
        width = max(lengths, default=0) + 1
        coded = [(length, tuple(i * width + c for i, c in enumerate(v) if c))
                 for length, v in zip(lengths, vectors)]
        return Enumeration(from_codes(self.atoms(), width, coded), exhaustive=exhaustive)

    def lengths(self, q, max_length: int | None = None) -> tuple[frozenset[int], bool]:
        """(lengths, exhaustive) of the factorizations `factorizations`
        would return, summed off the solver's count vectors."""
        n = self._require_member(q)
        vectors, exhaustive = self._atom_solver.search(n, max_total=max_length)
        return frozenset(map(sum, vectors)), exhaustive

    def mcd(self, elements: Iterable) -> tuple[Fraction, ...]:
        """All maximal common divisors of a nonempty finite set of members.

        When the least element divides every other, it is the only one:
        every common divisor divides it.  Otherwise the common-divisor poset
        is walked upward from 0 by atom steps; a node with no extension that
        still divides every element is maximal.  (Any non-invertible
        extension is bounded below by an atom extension, so checking atoms
        suffices in an atomic monoid.)  The walk runs on scaled integers;
        only the maximal divisors become Fractions.
        """
        elems = [self._require_member(x) for x in elements]
        if not elems:
            raise InvalidInputError("mcd of an empty set is undefined")
        member = self._contains_scaled
        least = min(elems)
        if all(member(x - least) for x in elems):
            return (self.from_scaled(least),)
        atoms = [self.to_scaled(u) for u in self.atoms()]

        def common(d: int) -> bool:
            return all(x >= d and member(x - d) for x in elems)

        seen: set[int] = {0}
        queue: list[int] = [0]
        maximal: list[int] = []
        while queue:
            d = queue.pop()
            extended = False
            for u in atoms:
                e = d + u
                if e in seen:
                    extended = True
                    continue
                if common(e):
                    extended = True
                    seen.add(e)
                    queue.append(e)
            if not extended:
                maximal.append(d)
        return tuple(map(self.from_scaled, sorted(maximal)))

    def _member_table(self) -> NumericalMonoid:
        """The scaled numerical monoid, which every member enumeration reads."""
        if self.numerical is None:
            raise UnsupportedAmbientError(
                "member enumeration needs the scaled numerical backend; "
                "this monoid's denominators are too large"
            )
        return self.numerical

    def members_upto(self, bound) -> list[Fraction]:
        """Ascending list of members q <= bound (needs the Apery backend)."""
        numerical = self._member_table()
        top = math.floor(Fraction(bound) * self.scale)
        return [self.from_scaled(n) for n in numerical.members_upto(top)]

    # -- presentation -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PuiseuxMonoid) and self.generators == other.generators

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "<" + ", ".join(format_rational(g) for g in self.generators) + ">"

    def __repr__(self) -> str:
        return f"PuiseuxMonoid({[str(g) for g in self.generators]})"

    def to_json(self) -> dict:
        data = {
            "generators": [format_rational(g) for g in self.generators],
            "scale": format_rational(self.scale),
            "numerical_generators": [str(n) for n in self.scaled_generators],
        }
        if self.numerical is not None:
            data["frobenius"] = self.numerical.frobenius
        if self.family is not None:
            data["family"] = self.family.to_json()
        return data


def parse_monoid(text: str) -> PuiseuxMonoid:
    """Parse generator lists like "2,3", "1/2, 1/3" or "<1/2, 1/3>"."""
    s = text.strip()
    if s.startswith("<") and s.endswith(">"):
        s = s[1:-1]
    parts = [p for p in (piece.strip() for piece in s.split(",")) if p]
    if not parts:
        raise InvalidInputError(f"no generators in {text!r}")
    return PuiseuxMonoid(parse_rational(p) for p in parts)


def parse_family(spec: str) -> PuiseuxMonoid:
    """The truncation a family label names, in exactly the forms `label()`
    writes: "geometric:RATIO:LEVEL" or "example33:LEVEL"."""
    kind, *fields = spec.split(":")
    if (kind, len(fields)) not in (("geometric", 2), ("example33", 1)):
        raise InvalidInputError(
            f"a family is geometric:RATIO:LEVEL or example33:LEVEL, got {spec!r}"
        )
    if not re.fullmatch(r"0|[1-9][0-9]*", fields[-1]):  # as `label()` writes a level
        raise InvalidInputError(f"a family level is a nonnegative integer, got {spec!r}")
    try:
        level = int(fields[-1])
    except ValueError:  # past the interpreter's limit on the digits of an int
        raise InvalidInputError(f"a family level of {len(fields[-1])} digits is too large") from None
    if kind == "geometric":
        return geometric(parse_rational(fields[0]), level)
    return example33(level)


# ---------------------------------------------------------------------------
# geometric family


def _validated_ratio(ratio) -> Fraction:
    r = Fraction(ratio)
    if not (0 < r < 1):
        raise FamilyPreconditionError(f"ratio must lie strictly between 0 and 1, got {r}")
    if r.numerator < 2:
        raise FamilyPreconditionError(
            f"ratio numerator must be at least 2, got {r} (atoms would collapse)"
        )
    return r


def geometric(ratio, level: int) -> PuiseuxMonoid:
    """Truncation <r**0, ..., r**level> of the powers-of-r monoid.

    Past multiplicity _SMALL_TABLE, membership and atoms run on the solver,
    whose trade bounds are all 1 here.  Levels pushing the multiplicity
    n(r)**level beyond the Apery bound are refused outright, so that every
    truncation keeps the table that its divisor sets and set-level queries
    read.
    Equal arguments return the same shared handle while it stays among the
    last `FAMILY_HANDLES` built.
    """
    r = _validated_ratio(ratio)
    if not isinstance(level, int) or level < 0:
        raise FamilyPreconditionError(f"level must be a nonnegative integer, got {level}")
    # the numerator is at least 2: refuse a huge level before its power
    if level >= APERY_LIMIT.bit_length() or r.numerator**level > APERY_LIMIT:
        raise FamilyPreconditionError(
            f"truncation level {level} of ratio {r} scales to multiplicity "
            f"{r.numerator}**{level} > {APERY_LIMIT}: beyond desk scale"
        )
    return _geometric(r, int(level))


@functools.lru_cache(maxsize=FAMILY_HANDLES)
def _geometric(r: Fraction, level: int) -> PuiseuxMonoid:
    gens = [r**k for k in range(level + 1)]
    monoid = PuiseuxMonoid(gens, family=GeometricFamily(r, level))
    if set(monoid.atoms()) != set(gens):
        raise MonoidError(
            f"internal check failed: powers of {r} up to level {level} are not all atoms"
        )
    return monoid


class GeometricChainEntry(Record):
    index: int = field(json="n")
    value: Fraction = field(json="x")  # x_n = n(r)**n / d(r)**(n-1)
    step: Fraction  # x_n - x_{n+1} = (d(r) - n(r)) * r**n


class GeometricChainReport(Record):
    ratio: Fraction
    depth: int
    entries: tuple[GeometricChainEntry, ...]
    verified: bool
    sign_note: str
    monoid: PuiseuxMonoid = field(json=None)


_SIGN_NOTE = (
    "chain steps use the coefficient (denominator - numerator), the positive "
    "orientation: x_n = x_{n+1} + (d - n)*r**n holds exactly, while the "
    "reversed sign would leave the nonnegative rationals"
)


def _require_chain_depth(depth) -> None:
    if not isinstance(depth, int) or depth < 1:
        raise InvalidInputError(f"depth must be a positive integer, got {depth}")


def geometric_chain(ratio, depth: int) -> GeometricChainReport:
    """The element chain x_n = n(r)**n / d(r)**(n-1) with exact step witnesses.

    Every step x_n - x_{n+1} is a positive element of the truncation, and
    consecutive values differ, so the principal ideals x_n + M form a chain
    that keeps ascending as far as the truncation can see.
    """
    r = _validated_ratio(ratio)
    _require_chain_depth(depth)
    return _geometric_chain_in(geometric(r, depth), depth)


def _geometric_chain_in(monoid: PuiseuxMonoid, depth: int) -> GeometricChainReport:
    """`geometric_chain` checked in an already built truncation of level at
    least `depth`.  Each x_k = n * r**(k-1) and step (d - n) * r**k, k <= depth,
    is a sum of generators of the truncation at `depth`, so it lies in every
    deeper one too, and the report reads the same."""
    _require_chain_depth(depth)
    r = monoid.family.ratio
    num, den = r.numerator, r.denominator
    entries = []
    verified = True
    for k in range(1, depth + 1):
        x_k = Fraction(num**k, den ** (k - 1))
        x_next = Fraction(num ** (k + 1), den**k)
        step = x_k - x_next
        ok = (
            step == (den - num) * r**k
            and step > 0
            and x_next != x_k
            and x_next + step == x_k
            and monoid.contains(step)
            and monoid.contains(x_k)
        )
        verified = verified and ok
        entries.append(GeometricChainEntry(k, x_k, step))
    return GeometricChainReport(r, depth, tuple(entries), verified, _SIGN_NOTE, monoid)


# ---------------------------------------------------------------------------
# example33 family


def example33(level: int) -> PuiseuxMonoid:
    """Level-`level` truncation of the prime-sequence monoid.

    Primes are chosen inductively, each the smallest prime above every
    constraint, so the construction is deterministic: p0 = 17, and for each
    n the prime p(3n+1) exceeds p(3n), 15*2**(3n+3) and the numerators of
    4/5 - sum and 6/7 - sum; p(3n+2) and p(3n+3) are the next primes up.
    Equal levels return the same shared handle while it stays among the
    last `FAMILY_HANDLES` built.
    """
    if not isinstance(level, int) or level < 0:
        raise InvalidInputError(f"level must be a nonnegative integer, got {level}")
    return _example33(int(level))


@functools.lru_cache(maxsize=FAMILY_HANDLES)
def _example33(level: int) -> PuiseuxMonoid:
    primes = [17]
    for n in range(level + 1):
        s_n = sum(Fraction(1, primes[3 * i]) for i in range(n + 1))
        u = Fraction(4, 5) - s_n
        v = Fraction(6, 7) - s_n
        if u <= 0 or v <= 0:
            raise MonoidError("internal check failed: partial prime sums grew too large")
        bound = max(primes[3 * n], 15 * 2 ** (3 * n + 3), u.numerator, v.numerator)
        p1 = next_prime_above(bound)
        p2 = next_prime_above(p1)
        primes.extend((p1, p2))
        if n < level:
            primes.append(next_prime_above(p2))
    family = Example33Family(level, tuple(primes))
    gens = [value for _, value in family.labeled_generators()]
    return PuiseuxMonoid(gens, family=family)


class AtomValuationRow(Record):
    label: str = field(json="generator")
    value: Fraction
    prime: int
    valuation: int
    unique_negative: bool
    passed: bool

    def to_json(self) -> dict:
        # primes are strings, as in the family's JSON: they outgrow the
        # integers that JSON readers keep exact
        return {**super().to_json(), "prime": str(self.prime)}


class AtomValuationReport(Record):
    level: int
    rows: tuple[AtomValuationRow, ...]
    atoms_match_generators: bool
    passed: bool


def verify_atoms_by_valuation(monoid: PuiseuxMonoid) -> AtomValuationReport:
    """Certify each example33 generator an atom through its private prime.

    b_n must be the unique generator with negative valuation at p(3n+1),
    c_n the unique one at p(3n+2), and a_n the unique one at p(3n) *within
    the a-family* (later b/c generators legitimately share that prime).
    `rational.valuation` proves each row's prime (a composite raises
    InvalidInputError); another generator's valuation there is negative
    exactly when the prime divides its reduced denominator.  The atom set
    computed independently by the solver must equal the generator list.
    """
    family = monoid.family
    if not isinstance(family, Example33Family):
        raise InvalidInputError("valuation verification needs an example33 monoid")
    labeled = family.labeled_generators()
    rows = []
    for n in range(family.level + 1):
        targets = (
            (f"a_{n}", family.a(n), family.prime(3 * n), "a"),
            (f"b_{n}", family.b(n), family.prime(3 * n + 1), "all"),
            (f"c_{n}", family.c(n), family.prime(3 * n + 2), "all"),
        )
        for label, value, prime, scope in targets:
            val = valuation(value, prime)
            negatives = [
                other_label
                for other_label, other in labeled
                if (scope == "all" or other_label.startswith("a"))
                and other.denominator % prime == 0
            ]
            unique = negatives == [label]
            rows.append(AtomValuationRow(label, value, prime, val, unique, val < 0 and unique))
    atoms_ok = set(monoid.atoms()) == {value for _, value in labeled}
    passed = atoms_ok and all(r.passed for r in rows)
    return AtomValuationReport(family.level, tuple(rows), atoms_ok, passed)
