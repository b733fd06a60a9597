"""Exception types shared across the package.

Every domain failure derives from MonoidError so the CLI can map it to a
single exit code; usage errors are left to argparse.
"""


class MonoidError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(MonoidError):
    """Malformed or out-of-contract input (bad denominator, empty generators, ...)."""


class UndefinedValuationError(MonoidError):
    """p-adic valuation requested for zero."""


class NotCofiniteError(MonoidError):
    """Integer generators with gcd != 1 do not span a cofinite submonoid of N0."""


class NotAMemberError(MonoidError):
    """An element was required to lie in the monoid but does not."""


class FamilyPreconditionError(MonoidError):
    """A named-family constructor was called outside its parameter range."""


class UnsupportedAmbientError(MonoidError):
    """The ambient monoid is too large (or not finitely generated enough) for this operation."""
