"""Factorizations: multisets of atoms with a length.

The same container serves rational atoms (Puiseux monoids, numerical ones
included) and set atoms (power monoids): atoms only need ordering, hashing,
`+` and `* int`.  Multiplicities are kept as counts so that
factorizations with huge repeat counts (they do occur) stay cheap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .rational import Record

_EXPAND_LIMIT = 10_000


class Factorization:
    """An unordered multiset of atoms; canonical form is sorted (atom, count) pairs."""

    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[tuple[object, int]]):
        merged: dict = {}
        for atom, mult in counts:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                merged[atom] = merged.get(atom, 0) + mult
        self.counts = tuple(sorted(merged.items()))

    @classmethod
    def _canonical(cls, counts: tuple) -> "Factorization":
        """Trusted constructor: counts must already be canonical (sorted by
        atom, atoms distinct, multiplicities positive)."""
        z = object.__new__(cls)
        z.counts = counts
        return z

    @property
    def length(self) -> int:
        return sum(m for _, m in self.counts)

    def total(self):
        """Recombine the multiset under the monoid operation (exact)."""
        acc = None
        for atom, mult in self.counts:
            term = atom * mult
            acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("empty factorization has no intrinsic total; ask the monoid")
        return acc

    def is_empty(self) -> bool:
        return not self.counts

    def expand(self) -> Iterator:
        """Yield atoms with repetition; refuses absurdly long expansions."""
        if self.length > _EXPAND_LIMIT:
            raise ValueError(f"factorization of length {self.length} is too long to expand")
        for atom, mult in self.counts:
            for _ in range(mult):
                yield atom

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, Factorization) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __lt__(self, other: "Factorization") -> bool:
        return (self.length, self.counts) < (other.length, other.counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{atom!r}x{mult}" for atom, mult in self.counts)
        return f"Factorization({inner})"

    def render(self, fmt=str) -> str:
        """Human-readable form: "2 + 2 + 3", compacting big multiplicities."""
        if not self.counts:
            return "(empty)"
        if self.length <= 32:
            return " + ".join(fmt(a) for a in self.expand())
        return " + ".join(f"{m}*{fmt(a)}" for a, m in self.counts)


def from_codes(atoms, width: int, coded: list) -> tuple[Factorization, ...]:
    """The factorizations `coded` lists as (length, codes), in canonical
    order; `coded` is sorted in place.  A code is index * width + count
    over `atoms`, which are in canonical order, with width past every
    count, and the codes of each factorization ascend; such keys order
    exactly as `Factorization.__lt__`, so the sort compares ints only.
    Each distinct code becomes one shared (atom, count) pair, and no atom
    is hashed or compared."""
    coded.sort()
    pairs = {code: (atoms[code // width], code % width)
             for code in {code for _, codes in coded for code in codes}}
    canonical = Factorization._canonical
    return tuple(canonical(tuple(map(pairs.__getitem__, codes))) for _, codes in coded)


class Enumeration(Record):
    """Result of a factorization enumeration.

    `exhaustive` is False when a length cap truncated the search; callers
    must not treat a partial enumeration as the full set.
    """

    items: tuple[Factorization, ...]
    exhaustive: bool = True

    def __iter__(self) -> Iterator[Factorization]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def lengths(self) -> frozenset[int]:
        return frozenset(z.length for z in self.items)
