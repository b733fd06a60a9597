"""Numerical monoids: cofinite additive submonoids of N0.

Membership is answered in O(1) through the Apery set with respect to the
smallest generator, so queries stay cheap for arbitrarily large elements.
The table is computed once, by Boecker and Liptak's round-robin algorithm
("A fast and simple algorithm for the money changing problem", Algorithmica
48, 2007), walking each generator only over the residues it can reach.
Atoms, divisor sets and member lists are exact enumerations.
Finitely generated Puiseux monoids reduce to these by clearing denominators;
factorizations are asked of `PuiseuxMonoid(gens)`, whose solver enumerates
them for every monoid.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import InvalidInputError, NotAMemberError, NotCofiniteError


def _residue_table(gens: Sequence[int], modulus: int) -> list[int]:
    """Smallest element of <gens> in each residue class mod `modulus`.

    Round robin (Boecker and Liptak 2007): the table starts as {0} and takes
    the generators in turn.  Adding g relaxes each cycle r, r + g, r + 2g, ...
    of Z/modulus once, starting from its smallest entry, so one pass per
    generator is exact and no heap is needed.  Before g, only the multiples
    of D = gcd(modulus, earlier generators) are reachable, and afterwards
    only those of gcd(D, g); so g walks only the cycles inside that subgroup,
    each of which holds a multiple of D and so starts from a finite entry.
    The gcd of `gens` must be 1, which leaves no entry unreachable.
    """
    table: list = [math.inf] * modulus
    table[0] = 0
    reach = modulus
    for g in gens:
        step = g % modulus
        if not step:
            continue  # every cycle of g is a single residue
        cycle_gcd = math.gcd(modulus, step)
        reach = math.gcd(reach, cycle_gcd)
        for first in range(0, cycle_gcd, reach):
            # the cycle through `first` is first + cycle_gcd * Z/modulus
            r = min(range(first, modulus, cycle_gcd), key=table.__getitem__)
            best = table[r]
            for _ in range(modulus // cycle_gcd - 1):
                r += step
                if r >= modulus:
                    r -= modulus
                best += g
                current = table[r]
                if current < best:
                    best = current
                else:
                    table[r] = best
    return table


class NumericalMonoid:
    """The submonoid of (N0, +) generated by positive integers with gcd 1."""

    __slots__ = ("generators", "multiplicity", "atoms", "frobenius", "_apery")

    def __init__(self, generators: Iterable[int]):
        gens = sorted(set(generators))
        if not gens:
            raise InvalidInputError("at least one generator is required")
        if any((not isinstance(g, int)) or g <= 0 for g in gens):
            raise InvalidInputError(f"generators must be positive integers: {gens}")
        if math.gcd(*gens) != 1:
            raise NotCofiniteError(
                f"gcd{tuple(gens)} != 1: not cofinite in N0 (divide out the gcd first)"
            )
        self.generators: tuple[int, ...] = tuple(gens)
        self.multiplicity: int = gens[0]
        self._apery: tuple[int, ...] = self._compute_apery(gens)
        # largest gap; max Apery element is F + m, so N0 itself gives -1
        self.frobenius: int = max(self._apery) - self.multiplicity
        self.atoms: tuple[int, ...] = tuple(g for g in gens if self._is_minimal(g))

    @staticmethod
    def _compute_apery(gens: Sequence[int]) -> tuple[int, ...]:
        # shortest monoid element in each residue class mod the multiplicity,
        # by round robin over the reachable subgroup (Boecker-Liptak 2007)
        return tuple(_residue_table(gens, gens[0]))

    def _is_minimal(self, g: int) -> bool:
        # g is a sum of two nonzero elements iff g - h stays in the monoid
        # for some smaller generator h (any summand decomposes into
        # generators, so one generator can always be split off first)
        return not any(
            h < g and self.contains(g - h) for h in self.generators
        )

    def contains(self, x: int) -> bool:
        """True iff x is an element (O(1) via the Apery set)."""
        if x < 0:
            return False
        return x >= self._apery[x % self.multiplicity]

    def apery_set(self) -> tuple[int, ...]:
        """Smallest element in each residue class mod the multiplicity, ascending."""
        return tuple(sorted(self._apery))

    def members_upto(self, bound: int) -> list[int]:
        return [x for x in range(bound + 1) if self.contains(x)]

    def _require_member(self, x: int) -> None:
        if not isinstance(x, int):
            raise InvalidInputError(f"expected an integer, got {x!r}")
        if not self.contains(x):
            raise NotAMemberError(f"{x} is not in {self}")

    def divisors(self, x: int) -> list[int]:
        """All d in the monoid with x - d also in the monoid, ascending.

        By residue class: d = r (mod m) is a member iff d >= apery[r], and
        x - d is one iff d <= x - apery[(x - r) % m], so each class holds
        one arithmetic progression and the cost is O(m + output), not O(x).
        """
        self._require_member(x)
        m, apery = self.multiplicity, self._apery
        found = [
            d
            for r in range(min(m, x + 1))
            for d in range(apery[r], x - apery[(x - r) % m] + 1, m)
        ]
        found.sort()
        return found

    def __eq__(self, other) -> bool:
        return isinstance(other, NumericalMonoid) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.atoms) + ">"

    def __repr__(self) -> str:
        return f"NumericalMonoid({list(self.atoms)})"

    def to_json(self) -> dict:
        return {"generators": list(self.atoms), "frobenius": self.frobenius}
