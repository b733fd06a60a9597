"""Exact computation in Puiseux monoids and their finitary power monoids.

Atoms, factorizations, length sets, divisors and maximal common divisors of
finitely generated submonoids of Q>=0, and of their power monoids under the
Minkowski sum, with bounded verification suites for the ascent (and failure
of ascent) of atomicity and of the bounded/finite factorization properties.
"""

from .errors import (
    FamilyPreconditionError,
    InvalidInputError,
    MonoidError,
    NotAMemberError,
    NotCofiniteError,
    UndefinedValuationError,
    UnsupportedAmbientError,
)
from .factorization import Enumeration, Factorization
from .numerical import NumericalMonoid
from .powerset import FinSet, size_bound_check
from .puiseux import (
    Example33Family,
    GeometricFamily,
    PuiseuxMonoid,
    example33,
    geometric,
    geometric_chain,
    parse_monoid,
    verify_atoms_by_valuation,
)
from .rational import (
    format_rational,
    is_prime,
    next_prime_above,
    parse_rational,
    reduce,
    valuation,
)
from .decompose import (
    AtomCheck,
    Decomposition,
    PowerMonoidView,
    decompositions,
    divisor_closure,
    is_atom,
    set_factorizations,
    set_length_set,
)

__version__ = "0.1.0"

__all__ = [
    "AtomCheck",
    "Decomposition",
    "Enumeration",
    "Example33Family",
    "Factorization",
    "FamilyPreconditionError",
    "FinSet",
    "GeometricFamily",
    "InvalidInputError",
    "MonoidError",
    "NotAMemberError",
    "NotCofiniteError",
    "NumericalMonoid",
    "PowerMonoidView",
    "PuiseuxMonoid",
    "UndefinedValuationError",
    "UnsupportedAmbientError",
    "decompositions",
    "divisor_closure",
    "example33",
    "format_rational",
    "geometric",
    "geometric_chain",
    "is_atom",
    "is_prime",
    "next_prime_above",
    "parse_monoid",
    "parse_rational",
    "reduce",
    "set_factorizations",
    "set_length_set",
    "size_bound_check",
    "valuation",
    "verify_atoms_by_valuation",
]
