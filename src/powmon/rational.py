"""Exact arithmetic on nonnegative rationals.

Values are `fractions.Fraction` instances (arbitrary-precision, always in
lowest terms).  This module adds the pieces the monoid machinery needs on
top of the stdlib type: validated reduction, p-adic valuations,
primality (deterministic below a bound, refused past it unless composite),
prime search, factor splitting by integer roots and Pollard's rho, partial
subtraction on Q>=0, the "a/b" text format, and the JSON form built on it
(`jsonable`, `Record`).

No floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InvalidInputError, UndefinedValuationError, UnsupportedAmbientError


def reduce(num: int, den: int) -> Fraction:
    """Return num/den in lowest terms; den must be positive, num nonnegative."""
    if not isinstance(num, int) or not isinstance(den, int):
        raise InvalidInputError(f"expected integers, got {num!r}/{den!r}")
    if den <= 0:
        raise InvalidInputError(f"denominator must be positive, got {den}")
    if num < 0:
        raise InvalidInputError(f"numerator must be nonnegative, got {num}")
    return Fraction(num, den)


def int_valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n (n must be nonzero)."""
    if n == 0:
        raise UndefinedValuationError("valuation of 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a positive rational: v_p(numerator) - v_p(denominator).

    May be negative.  p must be prime; q must be nonzero.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise UndefinedValuationError("valuation of 0 is undefined")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


# Deterministic Miller-Rabin witnesses: this set decides primality exactly
# for all n below the limit (Sorenson & Webster).  Above it one strong
# base-2 round screens out most composites (its "composite" answer is
# exact); `is_prime` refuses the rest.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality below _MR_LIMIT.  Past it a number the strong base-2
    round rejects is composite; any other raises UnsupportedAmbientError,
    since nothing here can prove such a number prime."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_LIMIT:
        return _miller_rabin(n, _MR_WITNESSES)
    if not _miller_rabin(n, (2,)):
        return False
    raise UnsupportedAmbientError(
        f"cannot decide whether {n} is prime: past {_MR_LIMIT} only a composite is recognised"
    )


# Steps of Pollard's rho per attempt: a prime factor p takes about sqrt(p)
# steps, so this splits off one up to about 10^9 with high probability and
# gives up after about 45 ms on a cofactor whose prime factors are all
# larger (measured on a product of two primes near 10^12).
_RHO_STEPS = 1 << 16


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits / k) > the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power_root(n: int) -> int | None:
    """The smallest r with r**k == n for some k >= 2, or None."""
    for k in range(n.bit_length(), 1, -1):
        r = _integer_root(n, k)
        if r > 1 and r**k == n:
            return r
    return None


def _rho(n: int, c: int) -> int | None:
    """A divisor d of the composite n with 1 < d <= n, by Pollard's rho on
    x -> x*x + c with Floyd's cycle search, or None after _RHO_STEPS
    steps.  d == n means this c failed and another may not."""
    x = y = 2
    for _ in range(_RHO_STEPS):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        g = math.gcd(x - y, n)
        if g != 1:
            return g
    return None


def prime_factors(n: int) -> set[int]:
    """The prime factors of n > 0 that integer roots and Pollard's rho find
    within their budget.  A composite factor that neither splits is left
    out, and so is a factor whose primality `is_prime` refuses.  So the
    answer may be partial but never holds a non-prime."""
    primes: set[int] = set()
    pending = [n]
    while pending:
        m = pending.pop()
        if m < 2:
            continue
        try:
            if is_prime(m):
                primes.add(m)
                continue
        except UnsupportedAmbientError:  # a probable prime past the bound
            continue
        root = _perfect_power_root(m)
        if root is not None:
            pending.append(root)
            continue
        for c in range(1, 9):  # a walk that closes on m itself is retried
            d = _rho(m, c)
            if d != m:
                break
        if d is not None and d != m:
            pending += [d, m // d]
    return primes


def next_prime_above(bound: Fraction | int) -> int:
    """Smallest prime strictly greater than bound (bound >= 0)."""
    b = Fraction(bound)
    if b < 0:
        raise InvalidInputError(f"bound must be nonnegative, got {bound}")
    n = math.floor(b) + 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n


def checked_sub(a: Fraction, b: Fraction):
    """a - b when the result stays nonnegative, else None.

    This is the partial subtraction of Q>=0; `checked_sub(r, s) is not None`
    is exactly "s divides r" once both lie in the ambient Q>=0.
    """
    if b > a:
        return None
    return a - b


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" (unreduced accepted) into a nonnegative Fraction."""
    s = text.strip()
    num_s, sep, den_s = s.partition("/")
    try:
        # ASCII digits only: int() alone also reads "1_0", "+3" and other
        # scripts' digits.  A "-" passes, for `reduce` to refuse by its sign.
        if not re.fullmatch(r"-?[0-9]+\s*(/\s*-?[0-9]+)?", s):
            raise ValueError(s)
        num = int(num_s)
        den = int(den_s) if sep else 1
    except ValueError:
        raise InvalidInputError(f"not a rational: {text!r}") from None
    return reduce(num, den)


def format_rational(q: Fraction | int) -> str:
    """Render in lowest terms: "a/b", or "a" when the denominator is 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def jsonable(value):
    """The JSON form of a value, the one place that decides it.

    An object with `to_json` gives that method's result, a Fraction its
    "a/b" text, a tuple or list a list, and a dict the same dict with `str`
    keys, all recursively; anything else (str, int, bool, None) is itself.
    """
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


class _Field:
    """What `field(json=key)` leaves as a field's class attribute."""

    __slots__ = ("json",)

    def __init__(self, json: str | None):
        self.json = json


def field(*, json: str | None) -> _Field:
    """A field that `Record.to_json` writes under `json`; None leaves it out."""
    return _Field(json)


class Record:
    """Base of the frozen records (reports, checks, enumerations, families).

    A subclass declares its fields as annotations, which are never
    evaluated: base fields come first, and a field with a default
    (`name: T = value`) may be followed only by fields with one.
    `__init_subclass__` reads them once and generates no code.  The shared
    `__init__` takes the fields by position or keyword; a missing, unknown
    or repeated field raises TypeError.  Two records are equal when they are
    of the same class with equal fields, `hash` and `repr` follow the
    fields, and assigning or deleting an attribute raises AttributeError.

    `to_json` emits the class attribute `suite` when a subclass sets one,
    then each field through `jsonable`, under the field's name or under the
    key given by `name: T = field(json=key)`; the key None leaves the field
    out.  A record whose JSON is not just its fields adds to this result in
    its own `to_json`.
    """

    suite: str | None = None
    _fields: tuple[str, ...] = ()
    _keys: tuple[str | None, ...] = ()  # the JSON key of each field
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        keys = dict(zip(cls._fields, cls._keys))
        defaults = dict(cls._defaults)
        for name in cls.__annotations__:  # this class's own, in order
            keys[name] = name
            defaults.pop(name, None)
            if name in cls.__dict__:
                value = cls.__dict__[name]
                if isinstance(value, _Field):
                    keys[name] = value.json
                    delattr(cls, name)
                else:
                    defaults[name] = value
        fields = tuple(keys)
        for before, after in zip(fields, fields[1:]):
            if before in defaults and after not in defaults:
                raise TypeError(f"{cls.__name__}: field {after!r} without a default "
                                f"follows field {before!r} with one")
        cls._fields, cls._keys, cls._defaults = fields, tuple(keys.values()), defaults

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):  # the common call, kept fast
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got field {key!r} twice")
            if key not in fields:
                raise TypeError(f"{name}() got an unknown field {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            values = {**self._defaults, **values}
            missing = [f for f in fields if f not in values]
            if missing:
                raise TypeError(f"{name}() is missing field(s) {', '.join(map(repr, missing))}")
        self.__dict__.update(values)

    def _field_values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def to_json(self) -> dict:
        data = {} if self.suite is None else {"suite": self.suite}
        for f, key in zip(self._fields, self._keys):
            if key is not None:
                data[key] = jsonable(getattr(self, f))
        return data
