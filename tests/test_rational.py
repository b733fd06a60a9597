import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from powmon import (
    InvalidInputError,
    UndefinedValuationError,
    UnsupportedAmbientError,
    checked_sub,
    format_rational,
    is_prime,
    next_prime_above,
    parse_rational,
    rational,
    reduce,
    valuation,
)
from powmon.decompose import AtomCheck
from powmon.factorization import Enumeration
from powmon.laboratory import Non2McdReport
from powmon.rational import Record, field
from oracles import brute_reduce, power_valuation, trial_is_prime


def test_reduce_examples():
    assert reduce(6, 4) == Fraction(3, 2)
    assert reduce(0, 7) == Fraction(0, 1)
    # derived through an independent gcd
    num, den = brute_reduce(45, 60)
    assert (num, den) == (3, 4)
    assert reduce(45, 60) == Fraction(num, den)


def test_reduce_validation():
    with pytest.raises(InvalidInputError):
        reduce(1, 0)
    with pytest.raises(InvalidInputError):
        reduce(1, -2)
    with pytest.raises(InvalidInputError):
        reduce(-1, 2)
    with pytest.raises(InvalidInputError):
        reduce(1.5, 2)


def test_reduce_idempotent_random():
    rng = random.Random(2024)
    for _ in range(500):
        num = rng.randrange(0, 10**6)
        den = rng.randrange(1, 10**6)
        q = reduce(num, den)
        assert reduce(q.numerator, q.denominator) == q
        g, h = brute_reduce(num, den)
        assert (q.numerator, q.denominator) == (g, h)


def test_valuation_examples():
    assert valuation(Fraction(8), 2) == 3
    assert valuation(Fraction(4, 9), 3) == -2
    assert valuation(Fraction(4, 5), 5) == -1


def test_valuation_errors():
    with pytest.raises(UndefinedValuationError):
        valuation(Fraction(0), 2)
    with pytest.raises(InvalidInputError):
        valuation(Fraction(3), 4)


def test_valuation_splits_over_reduced_fraction():
    # at most one of numerator/denominator carries any given prime
    rng = random.Random(7)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(300):
        q = Fraction(rng.randrange(1, 5000), rng.randrange(1, 5000))
        for p in primes:
            vn = power_valuation(q.numerator, p)
            vd = power_valuation(q.denominator, p)
            assert vn == 0 or vd == 0
            assert valuation(q, p) == vn - vd


@pytest.mark.parametrize(
    "n,expected",
    [(1, False), (2, True), (17, True), (91, False), (97, True), (1_000_003, True)],
)
def test_is_prime_examples(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_trial_division():
    for n in range(0, 3000):
        assert is_prime(n) == trial_is_prime(n), n
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert is_prime(n) == trial_is_prime(n), n


def test_past_the_mr_range_only_composites_are_decided(monkeypatch):
    """With the Miller-Rabin range emptied, every number past the
    small-prime screen is past it: a composite that the screen or the
    base-2 round rejects is False, and every prime is refused, as is the
    one strong base-2 pseudoprime that passes the screen."""
    monkeypatch.setattr(rational, "_MR_LIMIT", 0)
    limit, screen = 20_000, rational._SMALL_PRIMES[-1]
    sieve = [False, False] + [True] * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    refused = []
    for n in range(limit + 1):
        try:
            answer = is_prime(n)
        except UnsupportedAmbientError as exc:
            assert str(rational._MR_LIMIT) in str(exc)
            refused.append(n)
        else:
            assert answer == sieve[n] and (n <= screen or not answer), n
    assert refused == sorted([n for n in range(screen + 1, limit + 1) if sieve[n]] + [8321])


def test_strong_base2_pseudoprimes_past_the_screen_are_refused(monkeypatch):
    """A strong base-2 pseudoprime past the Miller-Rabin range passes the
    base-2 round like a prime does, so it is refused, never called prime.
    2047, 3277, 4033 and 4681 have a factor in the small-prime screen."""
    monkeypatch.setattr(rational, "_MR_LIMIT", 0)
    for n in (2047, 3277, 4033, 4681):
        assert rational._miller_rabin(n, (2,)) and not is_prime(n)
    for n in (8321, 3215031751, 3825123056546413051):
        assert rational._miller_rabin(n, (2,))
        with pytest.raises(UnsupportedAmbientError, match=f"{n} .*{rational._MR_LIMIT}"):
            is_prime(n)


def test_a_prime_past_the_mr_range_is_refused_at_once():
    """Nothing here can prove 2**89 - 1 prime: the prime search and the
    valuation refuse it at once, naming the bound."""
    mersenne = 2**89 - 1
    bound = str(rational._MR_LIMIT)
    with pytest.raises(UnsupportedAmbientError, match=bound):
        next_prime_above(10**25)
    with pytest.raises(UnsupportedAmbientError, match=f"{mersenne} .*{bound}"):
        valuation(Fraction(1, mersenne), mersenne)
    assert not is_prime(mersenne + 2)  # composite: the base-2 round rejects it


def test_base2_round_rejects_a_large_semiprime_at_once(monkeypatch):
    """p9 * p10 of example33(3) lies past the Miller-Rabin range; the base-2
    round rejects it, where trial division would first reach p9."""
    p9, p10 = 166483969, 27716909059761437
    n = p9 * p10
    assert n > rational._MR_LIMIT and is_prime(p9) and is_prime(p10)
    rounds = []
    miller_rabin = rational._miller_rabin

    def recording(m, bases):
        passed = miller_rabin(m, bases)
        rounds.append((m, tuple(bases), passed))
        return passed

    monkeypatch.setattr(rational, "_miller_rabin", recording)
    assert not is_prime(n)
    assert rounds == [(n, (2,), False)]


def _trial_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | {n} if n > 1 else out


def test_prime_factors_of_small_numbers():
    rng = random.Random(12)
    for n in list(range(1, 2000)) + [rng.randrange(2, 10**6) for _ in range(40)]:
        assert rational.prime_factors(n) == _trial_factors(n), n


def test_prime_factors_by_roots_and_rho():
    p9, p10 = 166483969, 27716909059761437
    assert rational.prime_factors(100003**2) == {100003}
    assert rational.prime_factors(2**61 - 1) == {2**61 - 1}
    assert rational.prime_factors(100019**5) == {100019}
    assert rational.prime_factors(100003 * 100019) == {100003, 100019}
    assert rational.prime_factors(p9 * p10) == {p9, p10}
    assert rational.prime_factors(p9**2 * p10) == {p9, p10}


def test_prime_factors_leave_out_what_rho_cannot_split(monkeypatch):
    """Past its budget rho gives up: the answer is partial, never wrong."""
    monkeypatch.setattr(rational, "_RHO_STEPS", 1 << 8)
    big = 1000000000039 * 1000000000061
    assert rational.prime_factors(big) == set()
    assert rational.prime_factors(7 * big) == {7}


def test_prime_factors_leave_out_a_probable_prime_past_the_mr_range():
    """2**89 - 1 is prime and past _MR_LIMIT, where only trial division
    could prove it, and that does not finish: it passes the base-2 round
    and is left out, while the composite around it still splits."""
    mersenne = 2**89 - 1
    assert mersenne >= rational._MR_LIMIT
    assert rational.prime_factors(mersenne) == set()
    assert rational.prime_factors(100003 * mersenne) == {100003}


def test_next_prime_above():
    assert next_prime_above(15) == 17
    assert next_prime_above(17) == 19
    assert next_prime_above(0) == 2
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(Fraction(5, 2)) == 3
    # strictly greater, and nothing prime in between
    for bound in (10, 100, 1000, 12896):
        p = next_prime_above(bound)
        assert p > bound and trial_is_prime(p)
        assert all(not trial_is_prime(q) for q in range(bound + 1, p))


def test_checked_sub_is_partial():
    assert checked_sub(Fraction(3, 2), Fraction(1, 2)) == 1
    assert checked_sub(Fraction(1, 2), Fraction(1, 2)) == 0
    assert checked_sub(Fraction(1, 3), Fraction(1, 2)) is None


def test_parse_and_format_roundtrip():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational(" 45/60 ") == Fraction(3, 4)  # unreduced accepted
    assert parse_rational("1 / 2") == Fraction(1, 2)
    assert parse_rational("7") == 7
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational(format_rational(Fraction(123, 456))) == Fraction(123, 456)


# int() alone reads "1_0" as 10, "+3" as 3 and "\u0663" (Arabic-Indic three) as 3
@pytest.mark.parametrize("bad", ["", "x", "1/0", "-1/2", "1/-2", "1/2/3", "0.5",
                                 "1_0", "+3", "\u0663", "1/\u0663", "1/+2", "1/2_0"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidInputError):
        parse_rational(bad)


@pytest.mark.parametrize("bad, message", [
    ("-1/2", "numerator must be nonnegative, got -1"),
    (" -3 ", "numerator must be nonnegative, got -3"),
    ("1/-2", "denominator must be positive, got -2"),
])
def test_parse_refuses_a_negative_part_by_its_sign(bad, message):
    with pytest.raises(InvalidInputError, match=message):
        parse_rational(bad)


# ---------------------------------------------------------------------------
# Record: frozen fields, equality, hash, construction and JSON keys


class _Point(Record):
    x: int
    y: int


class _Twin(Record):  # the same fields as _Point, another class
    x: int
    y: int


class _Labelled(Record):
    suite = "labelled"
    value: int = field(json="v")
    hidden: str = field(json=None)
    note: str = "default note"


def test_record_is_frozen():
    for record in (_Point(1, 2), AtomCheck(False, None)):
        with pytest.raises(AttributeError):
            record.x = 3
        with pytest.raises(AttributeError):
            record.is_atom = True
        with pytest.raises(AttributeError):
            del record.x
    p = _Point(1, 2)
    with pytest.raises(AttributeError):
        del p.y
    assert (p.x, p.y) == (1, 2)


def test_record_equality_needs_same_class_and_values():
    assert _Point(1, 2) == _Point(1, 2)
    assert _Point(1, 2) != _Point(1, 3)
    assert _Point(1, 2) != _Twin(1, 2)
    assert _Point(1, 2) != (1, 2)
    assert AtomCheck(False, None) == AtomCheck(False, None) != AtomCheck(True, None)


def test_record_hash_agrees_with_eq():
    assert hash(_Point(1, 2)) == hash(_Point(1, 2))
    assert len({_Point(1, 2), _Point(1, 2), _Point(2, 1)}) == 2
    assert {AtomCheck(True, None): 1}[AtomCheck(True, None)] == 1


def test_record_positional_and_keyword_construction():
    assert _Point(1, 2) == _Point(1, y=2) == _Point(y=2, x=1)
    assert repr(_Point(1, y=2)) == "_Point(x=1, y=2)"
    assert Enumeration((), exhaustive=False).exhaustive is False


def test_record_defaults_hold():
    assert Enumeration(()).exhaustive is True
    report = Non2McdReport((1, 2), ("1", "2"), (), (), True, True)
    assert report.note == Non2McdReport.note
    assert report.note.startswith("each truncation is finitely generated")
    assert _Labelled(1, "h").note == "default note"
    assert _Labelled(1, "h", "other").note == "other"


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),  # y missing
    ((), {}),  # both missing
    ((1, 2, 3), {}),  # one too many
    ((1, 2), {"z": 3}),  # unknown
    ((1, 2), {"x": 3}),  # repeated
])
def test_record_refuses_a_missing_unknown_or_repeated_field(args, kwargs):
    with pytest.raises(TypeError):
        _Point(*args, **kwargs)


def test_required_field_after_a_default_is_refused_at_class_creation():
    with pytest.raises(TypeError):
        class _Bad(Record):
            a: int = 0
            b: int

    with pytest.raises(TypeError):
        class _BadChild(_Labelled):  # after the inherited default `note`
            extra: int


def test_record_to_json_puts_suite_first_and_follows_the_json_keys():
    record = _Labelled(1, "h")
    assert record.to_json() == {"suite": "labelled", "v": 1, "note": "default note"}
    assert list(record.to_json()) == ["suite", "v", "note"]
    assert record.hidden == "h" and not hasattr(_Labelled, "hidden")
    assert _Point(Fraction(1, 2), 3).to_json() == {"x": "1/2", "y": 3}
    report = Non2McdReport((1, 2), ("1", "2"), (), (), True, True)
    assert list(report.to_json()) == [
        "suite", "levels", "targets", "identity_checks", "certificates",
        "strictly_increasing", "passed", "note",
    ]


def test_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter without `site`: pytest has imported all three here
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import powmon, powmon.cli, powmon.laboratory; "
            "print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, timeout=30)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
