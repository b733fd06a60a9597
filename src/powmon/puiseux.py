"""Finitely generated Puiseux monoids (additive submonoids of Q>=0).

A monoid given by rational generators is handled through two exact
structures:

* generator solver: a bounded-knapsack search over the generators scaled by
  L = lcm(denominators), so every remainder it meets is an integer, pruned
  by p-adic valuation constraints.  When a generator is the only remaining
  one with negative valuation at a prime p, its coefficient is forced into
  a single residue class mod a power of p, which collapses the search.
  This is what makes the huge-denominator families below tractable.  Its
  count vectors over the atoms give the length sets (their sums), the
  divisors without a table (their integer sub-sums) and the factorizations,
  the only result built as `Factorization` objects.
* scale isomorphism: multiplying by lambda = lcm(denominators)/gcd(scaled
  numerators) maps the monoid onto a numerical monoid, whose Apery table
  answers membership in O(1) and serves atoms, divisor sets and member
  lists when the multiplicity is small enough to table.  Membership and
  atoms run on the table unless the family hands the solver its primes
  (`example33`).  Each backend is built on first use.  The tests
  cross-check membership and atoms of the two.

The module also hosts the named families: `geometric(r, level)` (truncations
of the monoid generated by the powers of a ratio r in (0,1)) and
`example33(level)` (truncations of an atomic monoid built on a fast-growing
prime sequence, in which {4/5, 6/7} acquire ever-larger common divisors as
the level grows).  Each family tag writes its own label and JSON, and
`parse_family` reads the labels back.  Both constructors return one shared
handle per validated argument tuple, from a memo of at most
`FAMILY_HANDLES` handles each (least recently used first out), so repeated
calls share the handle's Apery table, atoms and solvers.  No answer is
memoized across calls: what a handle keeps costs the same to build whichever
call builds it, so the cost of a call does not depend on what ran before.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import (
    FamilyPreconditionError,
    InvalidInputError,
    MonoidError,
    NotAMemberError,
    UnsupportedAmbientError,
)
from .factorization import Enumeration, Factorization
from .numerical import NumericalMonoid
from .rational import (
    Record,
    field,
    format_rational,
    int_valuation,
    is_prime,
    next_prime_above,
    parse_rational,
    prime_factors,
)

# Largest multiplicity for which the Apery table is built; beyond this the
# generator solver answers membership instead.
APERY_LIMIT = 250_000

_TRIAL_LIMIT = 100_000
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


def _strip(n: int, primes: Iterable[int]) -> int:
    """n with every factor from `primes` divided out."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


class ReprSolver:
    """Enumerates representations of a target as N0-combinations of generators.

    Exhaustive within the stated caps.  The search runs on integers: with L
    the lcm of the generators' denominators, a target t and each generator
    g_i become T = t*L and G_i = g_i*L, and every remainder the search meets
    stays an integer.  Valuation constraints are only ever used to
    *restrict* coefficient ranges to provably necessary residue classes, so
    pruning never loses solutions.  For a known prime p of L, a remainder
    past the last generator with p in its denominator must be divisible by
    p**v_p(L); at that last generator the coefficient is forced into one
    residue class mod p**e, e its exponent of p.  Both are precomputed per
    depth, so each test is one integer operation.
    """

    def __init__(self, generators: Sequence[Fraction], hint_primes: Iterable[int] = ()):
        self.gens: tuple[Fraction, ...] = tuple(sorted(generators))
        self._lcm = lcm = math.lcm(*(g.denominator for g in self.gens))
        self._scaled = scaled = tuple(g.numerator * (lcm // g.denominator) for g in self.gens)
        last: dict[int, int] = {}  # each prime's last generator with it in the denominator
        for p in self._discover_primes(hint_primes):
            for i, g in enumerate(self.gens):
                if g.denominator % p == 0:
                    last[p] = i
        self._primes = tuple(sorted(last))
        n = len(self.gens)
        # moduli[i] divides every remainder worth searching at depth i: it has
        # p**v_p(L) for each prime whose last carrier is before i, and
        # ps = p**(v_p(L) - e), the power of p in G_i, for each whose last
        # carrier is i.  Such a p forces the coefficient of G_i into the class
        # (T // ps) * (G_i // ps)**-1 mod p**e.
        moduli = [1] * n
        residues: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for p, i in last.items():
            v, e = int_valuation(lcm, p), int_valuation(self.gens[i].denominator, p)
            ps, m = p ** (v - e), p**e
            moduli[i] *= ps
            for j in range(i + 1, n):
                moduli[j] *= ps * m
            residues[i].append((ps, m, pow(scaled[i] // ps, -1, m)))
        self._moduli = tuple(moduli)
        # the classes of one depth, combined once by the CRT: the coefficient
        # is sum((T // ps) * coef) mod the product of their p**e
        self._residues = []
        for terms in residues:
            modulus = math.prod(m for _, m, _ in terms)
            self._residues.append((modulus, tuple(
                (ps, inv * (modulus // m) * pow(modulus // m, -1, m) % modulus)
                for ps, m, inv in terms
            )))

    def _discover_primes(self, hints: Iterable[int]) -> set[int]:
        """The primes of the denominators found by trial division up to
        _TRIAL_LIMIT, among the hints, or in a cofactor left once the primes
        found so far are divided out, by `prime_factors` (a prime, or a
        composite split by integer roots and Pollard's rho).  A cofactor
        part it leaves out (a prime whose primality is refused, or a product
        rho cannot split) stays an unknown prime: that only weakens the
        pruning."""
        primes: set[int] = {p for p in hints if is_prime(p)}
        rests = []
        for g in self.gens:
            rest = _strip(g.denominator, primes)
            d = 2
            while d <= _TRIAL_LIMIT and d * d <= rest:
                if rest % d == 0:
                    primes.add(d)
                    while rest % d == 0:
                        rest //= d
                d += 1 if d == 2 else 2
            rests.append(rest)
        # smallest first, and again after a pass that found a prime: a product
        # of two large primes splits once another cofactor yields one of them.
        # What prime_factors leaves of a cofactor is not sent to it again, so
        # a product rho cannot split costs its budget once.
        left = {1}
        found = True
        while found:
            found = False
            for rest in sorted(rests):
                rest = _strip(rest, primes)
                if rest not in left:
                    new = prime_factors(rest)
                    left.add(_strip(rest, new))
                    found = found or bool(new)
                    primes |= new
        return primes

    def search(
        self,
        target: Fraction,
        limit: int | None = None,
        max_total: int | None = None,
    ) -> tuple[list[tuple[int, ...]], bool]:
        """All coefficient vectors summing to target.

        Returns (solutions, exhaustive); `limit` stops after that many
        solutions (0 after the first), `max_total` caps the coefficient sum
        (either makes the result potentially non-exhaustive).  A target
        outside (1/L)*Z has no representation, exhaustive under any cap.
        """
        target = Fraction(target)
        if target < 0:
            return [], True
        start, r = divmod(target.numerator * self._lcm, target.denominator)
        if r:
            return [], True
        gens, moduli, residues = self._scaled, self._moduli, self._residues
        n = len(gens)
        solutions: list[tuple[int, ...]] = []
        counts = [0] * n
        pruned = False

        # True once `limit` solutions are found, and every caller returns at
        # once; otherwise each walk resets its count, so counts[i:] starts at 0
        def rec(i: int, t: int, total: int) -> bool:
            nonlocal pruned
            if t == 0:
                solutions.append(tuple(counts))
                return limit is not None and len(solutions) >= limit
            if i == n or t < gens[i]:
                return False
            # a prime no generator from i on can clear is fatal
            if t % moduli[i]:
                return False
            g = gens[i]
            if i == n - 1:
                c, r = divmod(t, g)
                if r:
                    return False
                if max_total is not None and total + c > max_total:
                    pruned = True
                    return False
                counts[i] = c
                stop = rec(n, 0, total + c)
                counts[i] = 0
                return stop
            modulus, terms = residues[i]
            c = sum(t // ps * coef for ps, coef in terms) % modulus
            max_c = t // g
            cap_c = max_c if max_total is None else min(max_c, max_total - total)
            while c <= cap_c:
                counts[i] = c
                if rec(i + 1, t - c * g, total + c):
                    return True
                c += modulus
            # a count cut by the length cap, not the target, flags the search
            # when its remainder passes the first checks of the next depth
            if c <= max_c and not pruned:
                g1, m1, last = gens[i + 1], moduli[i + 1], i + 2 == n
                pruned = any(
                    r == 0 or (r >= g1 and r % m1 == 0 and not (last and r % g1))
                    for r in range(t - c * g, -1, -modulus * g)
                )
            counts[i] = 0
            return False

        stopped = rec(0, start, 0)
        return solutions, not (stopped or pruned)

    def is_member(self, q: Fraction) -> bool:
        found, _ = self.search(q, limit=1)
        return bool(found)

    def is_atom_generator(self, g: Fraction) -> bool:
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
        self.scaled_generators: tuple[int, ...] = tuple(n // g0 for n in nums)
        # Given the family's primes, the solver forces every coefficient, so
        # a membership query is a short walk: cheaper than a table of the
        # multiplicity (57,771 residues at example33(0)).
        self._family_primes = family.primes if isinstance(family, Example33Family) else ()
        self._table_members = (min(self.scaled_generators) <= APERY_LIMIT
                               and not self._family_primes)

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
        return ReprSolver(self.generators, self._family_primes)

    @functools.cached_property
    def _atom_solver(self) -> ReprSolver:
        atoms = self.atoms()
        return self._solver if atoms == self.generators else ReprSolver(atoms, self._family_primes)

    @functools.cached_property
    def _atoms(self) -> tuple[Fraction, ...]:
        if self._table_members:
            return tuple(self.from_scaled(a) for a in self.numerical.atoms)
        solver = self._solver
        return tuple(g for g in self.generators if solver.is_atom_generator(g))

    # -- scaling helpers ----------------------------------------------------

    def to_scaled(self, q: Fraction) -> int | None:
        """lambda*q when integral, else None (then q is certainly not a member).
        Integer arithmetic: a Fraction product would normalize by a gcd."""
        scale = self.scale
        n, r = divmod(q.numerator * scale.numerator, q.denominator * scale.denominator)
        return None if r else n

    def from_scaled(self, n: int) -> Fraction:
        return Fraction(n) / self.scale

    # -- membership and friends ---------------------------------------------

    def contains(self, q) -> bool:
        q = Fraction(q)
        if q <= 0:
            return q == 0
        if self._table_members:
            n = self.to_scaled(q)
            return n is not None and self.numerical.contains(n)
        return self._solver.is_member(q)

    def _require_member(self, q) -> Fraction:
        q = Fraction(q)
        if not self.contains(q):
            raise NotAMemberError(f"{format_rational(q)} is not in {self}")
        return q

    def atoms(self) -> tuple[Fraction, ...]:
        """The atoms: exactly the minimal generators."""
        return self._atoms

    def divisors(self, q) -> list[Fraction]:
        """All d in the monoid with q - d also in the monoid, ascending."""
        q = self._require_member(q)
        if self.numerical is not None:
            return [self.from_scaled(d) for d in self.numerical.divisors(self.to_scaled(q))]
        # no Apery table: the integer sub-sums of the solver's vectors
        solver = self._atom_solver
        sums: set[int] = set()
        budget = _DIVISOR_ENUM_LIMIT
        for vector in solver.search(q)[0]:
            budget -= math.prod(c + 1 for c in vector)
            if budget < 0:
                raise UnsupportedAmbientError(
                    f"divisor set of {format_rational(q)} is too large to enumerate"
                )
            partial = {0}
            for g, c in zip(solver._scaled, vector):
                partial = {s + k * g for s in partial for k in range(c + 1)}
            sums |= partial
        return [Fraction(s, solver._lcm) for s in sorted(sums)]

    def factorizations(self, q, max_length: int | None = None) -> Enumeration:
        """Every factorization of q into atoms (exact, canonically sorted)."""
        q = self._require_member(q)
        solver = self._atom_solver
        vectors, exhaustive = solver.search(q, max_total=max_length)
        items = tuple(sorted(Factorization.from_vector(solver.gens, v) for v in vectors))
        return Enumeration(items, exhaustive=exhaustive)

    def length_set(self, q) -> frozenset[int]:
        vectors, _ = self._atom_solver.search(self._require_member(q))
        return frozenset(sum(v) for v in vectors)

    def mcd(self, elements: Iterable) -> tuple[Fraction, ...]:
        """All maximal common divisors of a nonempty finite set of members.

        The common-divisor poset is walked upward from 0 by atom steps; a
        node with no extension that still divides every element is maximal.
        (Any non-invertible extension is bounded below by an atom extension,
        so checking atoms suffices in an atomic monoid.)
        """
        elems = [self._require_member(x) for x in elements]
        if not elems:
            raise InvalidInputError("mcd of an empty set is undefined")
        atoms = self.atoms()

        def common(d: Fraction) -> bool:
            return all(x >= d and self.contains(x - d) for x in elems)

        seen: set[Fraction] = {Fraction(0)}
        queue: list[Fraction] = [Fraction(0)]
        maximal: list[Fraction] = []
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
        return tuple(sorted(maximal))

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
        return hash(self.generators)

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
    level = int(fields[-1])
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

    The truncation is operated through its scaled numerical monoid, whose
    multiplicity is n(r)**level; levels pushing that beyond the Apery bound
    are refused outright (every prime divides many generators here, so the
    valuation-guided solver has no leverage and would crawl instead).
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


def _valuation_of(q: Fraction, p: int) -> int:
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def verify_atoms_by_valuation(monoid: PuiseuxMonoid) -> AtomValuationReport:
    """Certify each example33 generator an atom through its private prime.

    b_n must be the unique generator with negative valuation at p(3n+1),
    c_n the unique one at p(3n+2), and a_n the unique one at p(3n) *within
    the a-family* (later b/c generators legitimately share that prime).
    The atom set computed independently by the solver must coincide with
    the full generator list.
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
            val = _valuation_of(value, prime)
            negatives = [
                other_label
                for other_label, other in labeled
                if (scope == "all" or other_label.startswith("a"))
                and _valuation_of(other, prime) < 0
            ]
            unique = negatives == [label]
            rows.append(AtomValuationRow(label, value, prime, val, unique, val < 0 and unique))
    atoms_ok = set(monoid.atoms()) == {value for _, value in labeled}
    passed = atoms_ok and all(r.passed for r in rows)
    return AtomValuationReport(family.level, tuple(rows), atoms_ok, passed)
