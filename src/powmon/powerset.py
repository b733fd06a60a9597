"""Finite subsets of Q>=0 under the Minkowski sum.

A FinSet is the element type of the finitary power monoid of a Puiseux
monoid: nonempty, duplicate-free, strictly ascending.  Sets are
ambient-agnostic; whether one lies inside a specific monoid (or inside the
restricted power monoid: contains 0) is checked on demand.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable, Iterator

from .errors import InvalidInputError
from .rational import format_rational, parse_rational


class FinSet:
    """A nonempty finite subset of Q>=0, kept sorted and deduplicated."""

    __slots__ = ("elems",)

    def __init__(self, elements: Iterable):
        """Dedupe and sort.  When the largest denominator is a multiple of
        every other (ints, or a shared denominator), on exact integer keys:
        each element times that denominator, so the set and the sort run on
        ints, with no Fraction hashed or compared.  Otherwise on the
        Fractions, since a key over the lcm of unrelated denominators is as
        wide as the whole lcm."""
        fracs = [Fraction(e) for e in elements]
        if not fracs:
            raise InvalidInputError("a power-monoid element is a nonempty set")
        dens = {f.denominator for f in fracs}
        den = max(dens)
        if all(den % d == 0 for d in dens):
            by_key = {f.numerator * (den // f.denominator): f for f in fracs}
            elems = list(map(by_key.__getitem__, sorted(by_key)))
        else:
            elems = sorted(set(fracs))
        if elems[0].numerator < 0:
            raise InvalidInputError(f"negative element {elems[0]} is outside Q>=0")
        self.elems = tuple(elems)

    @classmethod
    def _sorted(cls, elems: tuple) -> "FinSet":
        """Trusted constructor: elems must already be a nonempty, strictly
        ascending tuple of nonnegative Fractions.  Skips the validation,
        deduplication and sort of __init__."""
        s = object.__new__(cls)
        s.elems = elems
        return s

    @classmethod
    def parse(cls, text: str) -> "FinSet":
        """Parse the brace format "{0, 1/2, 3/4}"."""
        s = text.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise InvalidInputError(f"set text must be brace-delimited: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            raise InvalidInputError("a power-monoid element is a nonempty set")
        return cls(parse_rational(p) for p in inner.split(","))

    # -- monoid structure ----------------------------------------------------

    def __add__(self, other: "FinSet") -> "FinSet":
        """Minkowski sum {s + t}: exact, deduplicated and sorted by __init__."""
        if not isinstance(other, FinSet):
            return NotImplemented
        return FinSet(s + t for s in self.elems for t in other.elems)

    def __mul__(self, n: int) -> "FinSet":
        """n-fold Minkowski sum; the 0-fold sum is the identity {0}."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise InvalidInputError("negative fold count")
        acc = FinSet([0])
        for _ in range(n):
            acc = acc + self
        return acc

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------------

    @property
    def min(self) -> Fraction:
        return self.elems[0]

    @property
    def contains_zero(self) -> bool:
        return self.elems[0] == 0

    def is_within(self, monoid) -> bool:
        """True when every element lies in the given Puiseux monoid."""
        return all(monoid.contains(e) for e in self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elems)

    def __contains__(self, value) -> bool:
        return Fraction(value) in self.elems

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSet) and self.elems == other.elems

    def __hash__(self) -> int:
        return hash(self.elems)

    def __lt__(self, other: "FinSet") -> bool:
        return self.elems < other.elems

    def __le__(self, other: "FinSet") -> bool:
        return self.elems <= other.elems

    def __str__(self) -> str:
        return "{" + ", ".join(format_rational(e) for e in self.elems) + "}"

    def __repr__(self) -> str:
        return f"FinSet({[str(e) for e in self.elems]})"

    def to_json(self) -> list[str]:
        return [format_rational(e) for e in self.elems]


def size_bound_check(b: FinSet, c: FinSet) -> bool:
    """The cardinality dichotomy of the sum: singletons translate, anything
    larger strictly grows the other summand.  Holds for all inputs."""
    size = len(b + c)
    if len(b) == 1:
        return size == len(c)
    return size > len(c)
