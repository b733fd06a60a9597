"""Decomposing finite sets into Minkowski summands over an ambient monoid.

Everything is reduced to bitmask arithmetic over scaled integers: a FinSet
whose elements lie in the ambient monoid M becomes a mask (bit i = scaled
value i), the members of M up to the working bound become the candidate
mask, and decompositions are found by the kernel's pair search.  The
4096-bit universe bound is checked before any mask or member list is built
on it.  Atomhood, full factorization enumeration and length sets are built
on top, with memoization shared per ambient (the corpus sweeps revisit the
same normalized cofactors constantly).  The kernel's own results are
memoized by its effective input (B - min B and the candidate masks cut to
it), so `is_atom`, `set_factorizations` and every translate of a shape past
the conductor share one search.  Factorization walks `_pairs` once per set,
which yields the pairs (x, y) of B with x <= y split by split: B is an
atom when the trivial pair ({0}, B) is its only pair, and `is_atom` is
asked only of the x side of a nontrivial pair.  Factorability (the one question of
the atomicity sweep, `factorability_sweep`) is decided by one nontrivial
pair, since every set in M factors at its first: a divisor pair
{d} + (B - d) when there is one, else the first pair of the splits that
`is_atom` and its witness walk.  It keeps one bool per mask, lists no
factorization, and leaves the factorization and atom memos empty.
Divisor splits are listed once per min(B).

The engine works in P_fin(M) only: P_fin,0(M), the sets containing 0, is
divisor-closed in it (A + C = B with 0 in B gives min A + min C = 0), so
a P_fin,0 query is the same query once the API has checked that B
contains 0.

Pairs are searched in half of the space.  If A + C = B then max A + max C
= max B, so one side of every pair has max at most max B / 2 (after
shifting out the split).  Each split pair {d, min B - d} is searched twice,
with the A side on either summand and its candidates masked to those
bits, which finds every unordered pair from about 2^(|B|/2) A sides
instead of 2^|B|; a pair whose sides both reach max B / 2 is met twice and
kept once.  The atom witness is the nontrivial pair (a, c) of the full
space with the least key (min a, -a, -c): the lowest split d that has one,
then the largest A-side mask, then the largest C-side mask.  It depends on
the pair set alone, not on the order the kernel emits pairs in, so `is_atom`
reports the same decomposition whichever way the space is searched.  The
engine's own atom test, behind factorization, walks the same splits and
stops at the first nontrivial pair, with no witness built; factorability
without a divisor pair takes that same first pair.

Sets enter the engine as masks and results leave it as masks, becoming
objects only at the API boundary, where all conversion, ordering, counting
and lookup stays on integers:

* the engine is found by the monoid's hash, taken once per monoid;
* a set becomes its mask with each element scaled by the monoid's stored
  integer pair (the formula of `to_scaled`); a set below `built` has its
  membership read off `member_mask`, and any other set, or one refused
  there, is walked element by element through `to_scaled` and `contains`,
  so that a refusal names its first failing element, a non-member before a
  set past the universe, and leaves the engine as it was;
* each engine keeps one value table, `_values[i] = i / scale`, filled by
  `ensure()` under the growth lock before `built` is raised, so every
  index below `built` has its Fraction and equal elements are the same
  object;
* each distinct atom mask of a call becomes one FinSet, built from the
  table through the trusted `FinSet._sorted`: bit positions ascend and the
  table is strictly increasing, so the elements are already sorted,
  distinct and nonnegative;
* factorizations are sorted by an integer key, (length, ascending codes
  rank * width + count), where the distinct atoms of the call are ranked
  by their bit positions and width exceeds every count.  Within one
  engine FinSet order is the lexicographic order of bit positions (not of
  the mask's int value: {0,1,3} sorts before {0,2}), so the key orders
  exactly as `Factorization.__lt__`, and `factorization.from_codes` builds
  each Factorization through the trusted `Factorization._canonical`, from
  one shared (atom, count) pair per distinct code;
* the two sides of a Decomposition are put in FinSet order by their bit
  positions before either FinSet is built;
* the engine builds each raw tuple once, from its smallest atom mask, so
  no set is needed to drop repeats;
* length sets are read off the raw tuples and build no objects.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, combinations

from .errors import InvalidInputError, NotAMemberError, UnsupportedAmbientError
from .factorization import Enumeration, from_codes
from .powerset import FinSet
from ._kernels import masks_py
from .puiseux import PuiseuxMonoid
from .rational import Record

# Hard bound on the scaled universe (bits); beyond this the ambient's
# denominators are too large for set-level work at desk scale.
UNIVERSE_LIMIT = 4096


def _bit_positions(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Decomposition(Record):
    """An unordered two-summand decomposition; left <= right canonically."""

    left: FinSet
    right: FinSet

    @property
    def trivial(self) -> bool:
        return len(self.left) == 1 and self.left.min == 0 or (
            len(self.right) == 1 and self.right.min == 0
        )

    def __lt__(self, other: "Decomposition") -> bool:
        return (self.left, self.right) < (other.left, other.right)

    def __str__(self) -> str:
        return f"{self.left} + {self.right}"

    def to_json(self) -> dict:
        return {**super().to_json(), "trivial": self.trivial}


class AtomCheck(Record):
    is_atom: bool
    witness: Decomposition | None


class PowerMonoidView(Record):
    """A handle naming P_fin or P_fin,0 of an ambient monoid; both share one engine."""

    ambient: PuiseuxMonoid
    restricted: bool = False

    def __str__(self) -> str:
        marker = "P_fin,0" if self.restricted else "P_fin"
        return f"{marker}({self.ambient})"


class _Engine:
    """Mask machinery and memo tables for one ambient monoid, in P_fin(M) only."""

    def __init__(self, monoid: PuiseuxMonoid):
        self.monoid = monoid
        self.numerical = monoid._member_table()
        self.member_mask = 0
        self.built = 0
        self._values: list[Fraction] = []  # _values[i] == i / scale for i < built
        # memo writes are idempotent (pure results), so only the universe
        # extension needs a lock: it read-modify-writes member_mask and
        # appends to _values, which must stay aligned with the bit index
        self._grow_lock = threading.Lock()
        self._factor_memo: dict = {}
        self._atom_memo: dict = {}
        self._factorable_memo: dict = {}  # factorability by mask
        self._pair_memo: dict = {}  # kernel results by effective input
        self._split_memo: dict = {}  # divisor splits by min B, one per bit

    def ensure(self, bits: int) -> None:
        if bits > UNIVERSE_LIMIT:
            raise UnsupportedAmbientError(
                f"scaled universe of {bits} bits exceeds the {UNIVERSE_LIMIT}-bit desk-scale bound"
            )
        if bits <= self.built:
            return
        with self._grow_lock:
            # another thread may have grown the universe past bits meanwhile;
            # lowering built would make a later call append indices twice
            if bits <= self.built:
                return
            for i in range(self.built, bits):
                if self.numerical.contains(i):
                    self.member_mask |= 1 << i
                self._values.append(self.monoid.from_scaled(i))
            self.built = bits

    # -- FinSet <-> mask ------------------------------------------------------

    def to_mask(self, b: FinSet) -> int:
        """B's mask, scaled as `to_scaled` does.  A set below `built` is
        checked against `member_mask` and touches nothing; any other set,
        and a refused one, takes the walk that refuses in order (see the
        module docstring) and grows the universe only for a member set."""
        num, den = self.monoid._scaling
        built = self.built
        mask = 0
        for e in b.elems:
            n, r = divmod(e.numerator * num, e.denominator * den)
            if r or n >= built:
                break
            mask |= 1 << n
        else:
            if mask & self.member_mask == mask:
                return mask
        mask = 0
        for e in b.elems:
            n = self.monoid.to_scaled(e)
            if n is None or not self.numerical.contains(n):
                raise NotAMemberError(f"{e} is not in the ambient {self.monoid}")
            if n < UNIVERSE_LIMIT:  # else ensure refuses B, with no huge shift
                mask |= 1 << n
        self.ensure(n + 1)  # the elements ascend: n is max B
        return mask

    def to_finset(self, mask: int) -> FinSet:
        return FinSet._sorted(tuple(map(self._values.__getitem__, _bit_positions(mask))))

    def to_decomposition(self, a: int, c: int) -> Decomposition:
        """The pair as a Decomposition, left <= right in FinSet order (not
        in mask int order, in which {0, 2} comes before {0, 1, 3})."""
        left, right = sorted((a, c), key=_bit_positions)
        return Decomposition(self.to_finset(left), self.to_finset(right))

    # -- pair decompositions ---------------------------------------------------

    def _splits(self, bmask: int) -> tuple[tuple[int, int], ...]:
        """The divisor splits (d, low - d) of low = min B with d <= low - d,
        in ascending d, listed once per low."""
        low = (bmask & -bmask).bit_length() - 1
        hit = self._split_memo.get(low)
        if hit is None:
            hit = self._split_memo[low] = tuple(
                (d, low - d) for d in self.numerical.divisors(low) if 2 * d <= low)
        return hit

    def _pair_search(self, b0: int, cand_a: int, cand_c: int) -> tuple[tuple[int, int], ...]:
        """The kernel's pairs for (b0, cand_a, cand_c), each distinct
        effective input searched once.  The kernel reads its candidates only
        through b0 & cand, so that triple is an exact key; beyond the
        conductor every candidate bit is set and the translates of a shape
        share one entry."""
        key = (b0, b0 & cand_a, b0 & cand_c)
        hit = self._pair_memo.get(key)
        if hit is None:
            # through the module attribute, which a tracer or test may rebind
            hit = self._pair_memo[key] = tuple(masks_py.pair_search(*key))
        return hit

    def _split_pairs(self, b0: int, da: int, dc: int) -> list[tuple[int, int]]:
        """Each pair {a, c} of true-value masks with min a = da, min c = dc
        and a + c = b0 << (da + dc), once and in either order.

        max is additive, so one side of every pair has its shifted max at
        or below max b0 // 2: searching only such A sides, once with A on
        the da side and once on the dc side, misses no pair.  A pair whose
        sides both reach that far is met by both searches (or twice by the
        one search when da == dc); it is kept once."""
        half = (2 << ((b0.bit_length() - 1) >> 1)) - 1
        members = self.member_mask
        first = self._pair_search(b0, (members >> da) & half, members >> dc)
        if da == dc:
            return [(a0 << da, c0 << da) for a0, c0 in first if a0 <= c0]
        found = [(a0 << da, c0 << dc) for a0, c0 in first]
        found += [(a0 << da, c0 << dc)
                  for c0, a0 in self._pair_search(b0, (members >> dc) & half, members >> da)
                  if a0 > half]
        return found

    def _pairs(self, bmask: int) -> Iterator[tuple[int, int]]:
        """The pairs (x, y) of B with x <= y as masks, split by split, each
        split searched only when the walk reaches it.  A set outside M has
        none, and one in M has the trivial pair ({0}, B) in split d = 0."""
        b0 = bmask >> ((bmask & -bmask).bit_length() - 1)  # B - min B
        for da, dc in self._splits(bmask):
            for a, c in self._split_pairs(b0, da, dc):
                yield (a, c) if a <= c else (c, a)

    def pair_decompositions(self, bmask: int) -> list[tuple[int, int]]:
        """Unordered pairs of true-value masks (canonical: smaller int
        first), each found from the side with the smaller max."""
        return sorted(self._pairs(bmask))

    # -- atomhood ---------------------------------------------------------------

    def _reducing_splits(self, bmask: int) -> Iterable[list[tuple[int, int]]]:
        """The nontrivial pairs (x, y) of B, one list per split in ascending
        d, each split searched only when the walk reaches it.  When min B > 0,
        B is no singleton and B - min B lies in M, the one list walked is
        [({min B}, B - min B)], found without a search."""
        unit = bmask & -bmask  # {min B}
        b0 = bmask >> (unit.bit_length() - 1)
        if unit != 1 and b0 != 1 and not b0 & ~self.member_mask:
            return ([(unit, b0)],)
        return ([(x, y) for x, y in self._split_pairs(b0, da, dc) if x != 1 and y != 1]
                for da, dc in self._splits(bmask))

    def atom_witness(self, bmask: int):
        """None when bmask is an atom; otherwise one nontrivial pair
        (canonical: smaller int first).

        The witness is the pair (a, c) with a + c = B, over every split
        (d, low - d) of low = min B and both orientations, that minimises
        the key (min a, -a, -c): the lowest split d with a nontrivial pair,
        then the largest A-side mask, then the largest C-side mask."""
        for split in self._reducing_splits(bmask):
            if split:
                _, neg_a, neg_c = min((a & -a, -a, -c)
                                      for x, y in split for a, c in ((x, y), (y, x)))
                a, c = -neg_a, -neg_c
                return (a, c) if a <= c else (c, a)
        return None

    def is_atom(self, bmask: int) -> bool:
        """Whether B is an atom: the walk of `atom_witness`, stopped at the
        first split with a nontrivial pair, whose pairs it neither orients
        nor ranks."""
        hit = self._atom_memo.get(bmask)
        if hit is None:
            hit = self._atom_memo[bmask] = bmask != 1 and not any(self._reducing_splits(bmask))
        return hit

    # -- factorability ------------------------------------------------------------

    def _divisor_pair(self, bmask: int) -> tuple[int, int] | None:
        """A nontrivial pair ({d}, B - d), found without a search: d = min B
        when min B > 0, B is no singleton and B - min B lies in M; else
        d = u, the least atom u of M with u <= min B, B - u in M and
        B != {u}; None when there is neither."""
        low = (bmask & -bmask).bit_length() - 1
        rest = bmask >> low
        if low and rest != 1 and not rest & ~self.member_mask:
            return 1 << low, rest
        for u in self.numerical.atoms:
            if u > low:
                return None
            rest = bmask >> u  # u <= min B: no bit is shifted out
            if rest != 1 and not rest & ~self.member_mask:
                return 1 << u, rest
        return None

    def factorable(self, bmask: int) -> bool:
        """Whether B has a factorization, found without listing any and
        without a separate atom test.  {0} has the empty one and a set
        outside M has none.  A set in M factors when it has no nontrivial
        pair (it is an atom), or when some nontrivial pair (x, y) has x and
        y factorable: if B = a_1 + ... + a_k with k >= 2, (a_1, a_2 + ... +
        a_k) is such a pair.  Both sides of a nontrivial pair lie in M with
        max below max B, so by induction on max B every set in M factors,
        and its first nontrivial pair decides: the pair of `_divisor_pair`,
        else the first pair of `_reducing_splits`, whose splits `is_atom`
        and its witness walk always."""
        hit = self._factorable_memo.get(bmask)
        if hit is None:
            if bmask == 1 or bmask & ~self.member_mask:
                hit = bmask == 1
            else:
                pair = self._divisor_pair(bmask) or next(
                    chain.from_iterable(self._reducing_splits(bmask)), None)
                hit = pair is None or self.factorable(pair[0]) and self.factorable(pair[1])
            self._factorable_memo[bmask] = hit
        return hit

    # -- factorization enumeration ------------------------------------------------

    def factorizations(
        self, bmask: int, budget: int | None = None
    ) -> tuple[tuple[tuple[int, ...], ...], bool]:
        """(distinct ascending atom-mask tuples in no set order, exhaustive
        flag).  B is an atom when its one pair is the trivial ({0}, B); a
        set outside M has none.  Otherwise each factorization a_1 + ... +
        a_k, ascending by mask, is built once, from the pair (a_1, c) of
        `_pairs` with c = a_2 + ... + a_k: a_2 divides c, so a_1 <= a_2 <= c
        as masks, and of the factorizations z of c only those with
        z[0] >= a_1 are kept."""
        key = (bmask, budget)
        hit = self._factor_memo.get(key)
        if hit is not None:
            return hit
        if bmask == 1:
            result: tuple[tuple[tuple[int, ...], ...], bool] = (((),), True)
        elif budget is not None and budget <= 0:
            result = ((), False)
        else:
            pairs = list(self._pairs(bmask))
            out: list[tuple[int, ...]] = [(bmask,)] if pairs == [(1, bmask)] else []
            exhaustive = True
            for a, c in pairs:
                if a != 1 and self.is_atom(a):
                    inner, inner_ok = self.factorizations(c, None if budget is None else budget - 1)
                    exhaustive = exhaustive and inner_ok
                    out.extend((a,) + z for z in inner if z[0] >= a)
            result = (tuple(out), exhaustive)
        self._factor_memo[key] = result
        return result


_ENGINES: dict[PuiseuxMonoid, _Engine] = {}


def engine_for(monoid: PuiseuxMonoid) -> _Engine:
    eng = _ENGINES.get(monoid)
    if eng is None:
        eng = _ENGINES[monoid] = _Engine(monoid)
    return eng


def _prepared(b: FinSet, monoid: PuiseuxMonoid, restricted: bool) -> tuple[_Engine, int]:
    if restricted and not b.contains_zero:
        raise InvalidInputError(f"{b} is outside the restricted power monoid: 0 missing")
    eng = engine_for(monoid)
    return eng, eng.to_mask(b)


def decompositions(b: FinSet, monoid: PuiseuxMonoid) -> tuple[Decomposition, ...]:
    """Every unordered pair (A, C) of sets over the ambient with A + C = B,
    trivial pairs included."""
    eng, bmask = _prepared(b, monoid, restricted=False)
    return tuple(sorted(eng.to_decomposition(a, c) for a, c in eng.pair_decompositions(bmask)))


def is_atom(b: FinSet, monoid: PuiseuxMonoid, restricted: bool = False) -> AtomCheck:
    """Atomhood of B in the (restricted) power monoid, with a reducibility
    witness when B is not an atom."""
    eng, bmask = _prepared(b, monoid, restricted)
    if bmask == 1:
        return AtomCheck(False, None)  # the identity is not an atom
    witness = eng.atom_witness(bmask)
    if witness is None:
        return AtomCheck(True, None)
    return AtomCheck(False, eng.to_decomposition(*witness))


def set_factorizations(
    b: FinSet,
    monoid: PuiseuxMonoid,
    restricted: bool = False,
    max_length: int | None = None,
) -> Enumeration:
    """All factorizations of B into atoms of the (restricted) power monoid."""
    eng, bmask = _prepared(b, monoid, restricted)
    raw, exhaustive = eng.factorizations(bmask, max_length)
    # rank the distinct atoms in FinSet order and code each run of equal
    # masks (a raw tuple ascends by mask) as rank * width + count, the key
    # of the module docstring
    order = sorted({mask for z in raw for mask in z}, key=_bit_positions)
    width = max(map(len, raw), default=0) + 1
    base = {mask: r * width for r, mask in enumerate(order)}
    coded = []
    for z in raw:
        codes: list[int] = []
        prev = 0  # no atom mask
        for mask in z:
            if mask == prev:
                codes[-1] += 1
            else:
                codes.append(base[mask] + 1)
                prev = mask
        codes.sort()
        coded.append((len(z), tuple(codes)))
    atoms = [eng.to_finset(m) for m in order]
    return Enumeration(from_codes(atoms, width, coded), exhaustive=exhaustive)


def set_lengths(
    b: FinSet,
    monoid: PuiseuxMonoid,
    restricted: bool = False,
    max_length: int | None = None,
) -> tuple[frozenset[int], bool]:
    """(lengths, exhaustive) of the factorizations `set_factorizations`
    would return, read off the engine's atom-mask tuples."""
    eng, bmask = _prepared(b, monoid, restricted)
    raw, exhaustive = eng.factorizations(bmask, max_length)
    return frozenset(map(len, raw)), exhaustive


def set_length_set(
    b: FinSet,
    monoid: PuiseuxMonoid,
    restricted: bool = False,
    max_length: int | None = None,
) -> frozenset[int]:
    """The length set of B; with max_length, only the lengths up to it
    (`set_lengths` also tells whether the cap cut the search)."""
    return set_lengths(b, monoid, restricted, max_length)[0]


def factorability_sweep(
    monoid: PuiseuxMonoid, max_card: int, element_bound
) -> tuple[dict[int, int], tuple[FinSet, ...]]:
    """(sets per cardinality, the sets without a factorization) over every
    nonempty B with |B| <= max_card and max B <= element_bound, in
    P_fin(M).  Candidates are ORs of member bits in the order of
    `itertools.combinations` over the ascending members; each is only asked
    whether it factors, and a FinSet is built only for one that does not.
    The largest member passes the universe bound before any is listed."""
    eng = engine_for(monoid)
    top = math.floor(Fraction(element_bound) * monoid.scale)
    while top > 0 and not eng.numerical.contains(top):  # a multiple of m is < m below
        top -= 1
    eng.ensure(top + 1)
    bits = [1 << n for n in range(top + 1) if eng.member_mask >> n & 1]
    failures = tuple(
        eng.to_finset(bmask)
        for card in range(1, max_card + 1)
        for bmask in map(sum, combinations(bits, card))  # distinct bits: sum is OR
        if not eng.factorable(bmask)
    )
    return {card: math.comb(len(bits), card) for card in range(1, max_card + 1)}, failures


def divisor_closure(b: FinSet, monoid: PuiseuxMonoid) -> tuple[Fraction, ...]:
    """All monoid elements dividing some element of B: the finite pool from
    which every atom dividing B draws its entries."""
    out: set[Fraction] = set()
    for e in b.elems:
        out.update(monoid.divisors(e))
    return tuple(sorted(out))
