"""Desk-scale verification suites with machine-checkable certificates.

Each report re-verifies its own evidence by exact arithmetic before it is
emitted: chains recombine, factorizations recombine, witnesses divide what
they claim to divide.  Statements about infinite monoids are only ever
checked through their finite truncations, and the reports say so: what is
verified is the mechanism (non-stabilizing chains, escalating common
divisors), never the infinite conclusion itself.
"""

from __future__ import annotations

from fractions import Fraction

from .decompose import PowerMonoidView, factorability_sweep, set_factorizations, set_lengths
from .errors import InvalidInputError
from .factorization import Enumeration, Factorization
from .powerset import FinSet
from .puiseux import (
    AtomValuationReport,
    Example33Family,
    GeometricFamily,
    PuiseuxMonoid,
    _geometric_chain_in,
    example33,
    verify_atoms_by_valuation,
)
from .rational import Record, field, format_rational, is_prime


def _fmt(value) -> str:
    return str(value) if isinstance(value, FinSet) else format_rational(value)


# ---------------------------------------------------------------------------
# ascending chains of principal ideals


class AccpReport(Record):
    suite = "accp"
    subject: str
    start: str
    requested_depth: int
    stabilizes: bool
    chain: tuple[str, ...]
    chain_steps: int
    certificates: tuple[dict, ...]
    note: str
    passed: bool

    def summary(self) -> list[str]:
        head = "stabilizes" if self.stabilizes else "no stabilization within truncation"
        return [
            f"accp: {self.subject}, start {self.start}: {head} "
            f"({self.chain_steps} strict steps)",
            self.note,
        ]


def _geometric_accp(monoid: PuiseuxMonoid, start, depth: int) -> AccpReport:
    family: GeometricFamily = monoid.family
    x1 = Fraction(family.ratio.numerator)
    start = x1 if start is None else Fraction(start)
    if start != x1:
        raise InvalidInputError(
            f"the chain for this family starts at {format_rational(x1)}, got {format_rational(start)}"
        )
    if family.level == 0:
        raise InvalidInputError(f"truncation level 0 ({family.label()}) is <1>: no chain step")
    used = min(depth, family.level)
    chain = _geometric_chain_in(monoid, used)
    certs = []
    ok = chain.verified
    values = [e.value for e in chain.entries]
    for e in chain.entries:
        step_ok = monoid.contains(e.step)
        lift_prev = FinSet([e.value])
        lift_next = FinSet([e.value - e.step])
        lift_ok = lift_next + FinSet([e.step]) == lift_prev
        ok = ok and step_ok and lift_ok
        certs.append(
            {
                "n": e.index,
                "x": format_rational(e.value),
                "step": format_rational(e.step),
                "step_in_monoid": step_ok,
                "singleton_lift_recombines": lift_ok,
            }
        )
    note = (
        f"descending element chain of depth {used} (truncation level "
        f"{family.level}); the singleton lift X_n = {{x_n}} gives the same "
        f"non-stabilizing ideal chain in the power monoid. " + chain.sign_note
    )
    strictly_desc = all(a > b for a, b in zip(values, values[1:]))
    return AccpReport(
        subject=str(monoid),
        start=format_rational(start),
        requested_depth=depth,
        stabilizes=False,
        chain=tuple(format_rational(v) for v in values),
        chain_steps=max(len(values) - 1, 0),
        certificates=tuple(certs),
        note=note,
        passed=ok and strictly_desc,
    )


def _identity(element):
    """The identity of the monoid `element` lives in: {0} for a set, else 0."""
    return FinSet([0]) if isinstance(element, FinSet) else Fraction(0)


def _total(z: Factorization, element):
    """What z recombines to; the empty factorization is the identity."""
    return _identity(element) if z.is_empty() else z.total()


def _peel_chain(start, z: Factorization, cap: int) -> list:
    """Strictly descending chain from start: what is left of z as its atoms
    are removed one at a time, at most cap steps.  Works on the counts, so
    multiplicities too large to expand are fine."""
    counts = list(z.counts)
    chain = [start]
    for _ in range(min(cap, len(z))):
        atom, mult = counts.pop(0)
        if mult > 1:
            counts.insert(0, (atom, mult - 1))
        chain.append(_total(Factorization(counts), start))
    return chain


def _dfs_longest_steps(monoid: PuiseuxMonoid, start: Fraction) -> int:
    """Independent cross-check: longest descending chain by divisor DFS."""
    memo: dict[Fraction, int] = {}

    def longest(x: Fraction) -> int:
        hit = memo.get(x)
        if hit is None:
            hit = memo[x] = max(
                (1 + longest(d) for d in monoid.divisors(x) if d != x), default=0
            )
        return hit

    return longest(start)


def accp_chain_search(handle, start, depth: int) -> AccpReport:
    """Search for strictly descending divisibility chains from `start`.

    Finitely generated handles always stabilize: the longest proper chain
    has exactly max-factorization-length steps (each step removes at least
    one atom, and peeling a longest factorization attains the bound).  The
    explicit chain is materialized up to the requested depth; on small
    instances the bound is additionally cross-checked by divisor DFS.
    Geometric family handles instead report the explicit non-stabilizing
    chain, at the truncation's depth; for them `start` may be None, which
    means the chain's first term x1 = n(r).  Every other handle needs a
    start.
    """
    if depth < 1:
        raise InvalidInputError("depth must be positive")
    if isinstance(handle, PuiseuxMonoid) and isinstance(handle.family, GeometricFamily):
        return _geometric_accp(handle, start, depth)

    if start is None:
        raise InvalidInputError("verify accp needs --start")
    enum = _enumerate(handle, start)
    longest = max(enum.items, key=len, default=Factorization([]))
    bound = len(longest)
    chain = _peel_chain(start, longest, depth)
    cross_checked = None
    if not isinstance(handle, PowerMonoidView) and bound <= 64:
        cross_checked = _dfs_longest_steps(handle, start) == bound
    steps = len(chain) - 1
    descending = all(
        later != earlier for earlier, later in zip(chain, chain[1:])
    )
    complete = steps == min(depth, bound)
    cert = {
        "longest_proper_chain_steps": bound,
        "max_factorization_length": bound,
        "chain_shown_to": steps,
        "chain_strictly_descending": descending,
        "chain_ends_at_identity": chain[-1] == _identity(start),
    }
    if cross_checked is not None:
        cert["divisor_dfs_cross_check"] = cross_checked
    return AccpReport(
        subject=str(handle),
        start=_fmt(start),
        requested_depth=depth,
        stabilizes=True,
        chain=tuple(_fmt(v) for v in chain),
        chain_steps=steps,
        certificates=(cert,),
        note="finitely generated: divisor sets are finite, every chain stabilizes",
        passed=descending and complete and cross_checked in (None, True),
    )


# ---------------------------------------------------------------------------
# bounded / finite factorization checks


def _set_level(handle, element) -> bool:
    """Whether `element` is a set over a power-monoid handle (else a
    rational over a monoid); a set and a monoid handle do not mix."""
    if isinstance(handle, PowerMonoidView):
        if not isinstance(element, FinSet):
            raise InvalidInputError(f"expected a finite set, got {_fmt(element)}")
        return True
    if isinstance(element, FinSet):
        raise InvalidInputError("a finite set needs a power-monoid handle")
    return False


def _enumerate(handle, element) -> Enumeration:
    if _set_level(handle, element):
        return set_factorizations(element, handle.ambient, handle.restricted)
    return handle.factorizations(element)


class BfmRow(Record):
    element: str
    lengths: tuple[int, ...]
    max_length: int | None
    cap_hit: bool


class BfmReport(Record):
    suite = "bfm"
    subject: str
    length_cap: int
    rows: tuple[BfmRow, ...] = field(json="certificates")
    failure_candidates: tuple[str, ...]
    passed: bool

    def summary(self) -> list[str]:
        out = [f"bfm: {self.subject}, cap {self.length_cap}: "
               f"{len(self.rows)} elements, {len(self.failure_candidates)} cap hits"]
        for r in self.rows:
            flag = "  CAP HIT" if r.cap_hit else ""
            out.append(f"  {r.element}: max length {r.max_length}{flag}")
        return out


def bfm_check(handle, corpus, length_cap: int) -> BfmReport:
    """Length sets under a cap; an element that hits the cap is flagged as a
    bounded-factorization failure candidate.  The lengths are read off the
    search, so no factorization is built."""
    if length_cap < 1:
        raise InvalidInputError("length cap must be positive")
    rows = []
    candidates = []
    for element in corpus:
        if _set_level(handle, element):
            found, exhaustive = set_lengths(element, handle.ambient, handle.restricted,
                                            max_length=length_cap)
        else:
            found, exhaustive = handle.lengths(element, max_length=length_cap)
        lengths = tuple(sorted(found))
        cap_hit = not exhaustive
        if cap_hit:
            candidates.append(_fmt(element))
        rows.append(BfmRow(_fmt(element), lengths, max(lengths) if lengths else None, cap_hit))
    return BfmReport(
        subject=str(handle),
        length_cap=length_cap,
        rows=tuple(rows),
        failure_candidates=tuple(candidates),
        passed=not candidates,
    )


class FfmRow(Record):
    element: str
    count: int = field(json="factorizations")
    by_length: dict
    all_recombine: bool


class FfmReport(Record):
    suite = "ffm"
    subject: str
    rows: tuple[FfmRow, ...] = field(json="certificates")
    passed: bool

    def summary(self) -> list[str]:
        out = [f"ffm: {self.subject}: exact factorization counts "
               f"(per-length counts certify the length-finite property)"]
        for r in self.rows:
            out.append(f"  {r.element}: {r.count} factorizations, by length "
                       + str({k: v for k, v in sorted(r.by_length.items())}))
        return out


def ffm_check(handle, corpus) -> FfmReport:
    """Exact factorization counts, with per-length sub-counts.

    Every factorization is recombined by exact arithmetic before being
    counted; enumeration is exhaustive on all supported handles.
    """
    rows = []
    ok = True
    for element in corpus:
        enum = _enumerate(handle, element)
        if not enum.exhaustive:
            raise InvalidInputError("uncapped enumeration reported itself partial")
        by_length: dict[int, int] = {}
        recombine = True
        for z in enum.items:
            by_length[z.length] = by_length.get(z.length, 0) + 1
            recombine = recombine and _total(z, element) == element
        ok = ok and recombine
        rows.append(FfmRow(_fmt(element), len(enum.items), by_length, recombine))
    return FfmReport(subject=str(handle), rows=tuple(rows), passed=ok)


# ---------------------------------------------------------------------------
# maximal common divisors


class McdReport(Record):
    suite = "mcd"
    subject: str
    elements: tuple[str, ...]
    mcds: tuple[str, ...]
    certificates: tuple[dict, ...]
    witness: "Non2McdReport | None" = field(json="non_2mcd_witness")
    passed: bool

    def to_json(self) -> dict:
        data = super().to_json()
        if self.witness is None:
            del data["non_2mcd_witness"]
        return data

    def summary(self) -> list[str]:
        out = [f"mcd: {self.subject} {{{', '.join(self.elements)}}} -> "
               f"{{{', '.join(self.mcds)}}}"]
        if self.witness is not None:
            out.extend(self.witness.summary())
        return out


def mcd_probe(monoid: PuiseuxMonoid, pair) -> McdReport:
    """All maximal common divisors of the pair, each certified: it divides
    both elements, and no atom extension still does.  On example33
    truncations the escalating-divisor witness is attached."""
    elems = [Fraction(x) for x in pair]
    mcds = monoid.mcd(elems)
    atoms = monoid.atoms()
    certs = []
    ok = True
    for d in mcds:
        divides_all = all(monoid.contains(x - d) for x in elems)
        blocked = all(
            any(not (x >= d + u and monoid.contains(x - d - u)) for x in elems)
            for u in atoms
        )
        ok = ok and divides_all and blocked
        certs.append(
            {
                "mcd": format_rational(d),
                "divides_all": divides_all,
                "no_atom_extension_divides_all": blocked,
            }
        )
    witness = None
    if isinstance(monoid.family, Example33Family):
        witness = non_2mcd_witness(list(range(monoid.family.level + 1)))
        ok = ok and witness.passed
    return McdReport(
        subject=str(monoid),
        elements=tuple(format_rational(x) for x in elems),
        mcds=tuple(format_rational(d) for d in mcds),
        certificates=tuple(certs),
        witness=witness,
        passed=ok,
    )


class WitnessLink(Record):
    level: int
    divisor: Fraction = field(json="common_divisor")
    residual_checks: dict = field(json=None)
    is_mcd_at_level: bool
    extending_atoms: tuple[str, ...]

    def to_json(self) -> dict:
        # the residual checks sit at the top level of the link
        return {**super().to_json(), **self.residual_checks}


class Non2McdReport(Record):
    suite = "non_2mcd_witness"
    levels: tuple[int, ...]
    targets: tuple[str, str]
    identity_checks: tuple[dict, ...]
    links: tuple[WitnessLink, ...] = field(json="certificates")
    strictly_increasing: bool
    passed: bool
    note: str = (
        "each truncation is finitely generated and so has a maximal common "
        "divisor; what is verified is the mechanism: the mcd found at one "
        "level stops being maximal at the next, so no common divisor is "
        "maximal in the limit"
    )

    def summary(self) -> list[str]:
        chain = " < ".join(format_rational(link.divisor) for link in self.links)
        return [
            f"non-2-mcd witness over levels {list(self.levels)}: chain {chain}",
            f"  strictly increasing: {self.strictly_increasing}; "
            f"all residual memberships verified: {self.passed}",
        ]


def non_2mcd_witness(levels) -> Non2McdReport:
    """Escalating common divisors of {4/5, 6/7} across truncation levels.

    At each level the maximal common divisor is computed outright, then
    shown to extend to a strictly larger common divisor at the next level
    (by the next a-atoms), so the chain of mcds never stops growing.
    """
    levels = list(levels)
    if not levels or any(
        not isinstance(n, int) or n < 0 for n in levels
    ) or levels != sorted(set(levels)):
        raise InvalidInputError("levels must be a strictly increasing list of nonnegative integers")
    q45, q67 = Fraction(4, 5), Fraction(6, 7)
    monoids = {n: example33(n) for n in levels}
    top = monoids[levels[-1]].family

    identity_checks = []
    ok = True
    for n in levels:
        fam = monoids[n].family
        prefix_ok = top.primes[: len(fam.primes)] == fam.primes
        w45 = fam.prime(1) * fam.b(0) + fam.a(0) == q45
        w67 = fam.prime(2) * fam.c(0) + fam.a(0) == q67
        member_ok = monoids[n].contains(q45) and monoids[n].contains(q67)
        ok = ok and prefix_ok and w45 and w67 and member_ok
        identity_checks.append(
            {
                "level": n,
                "prime_prefix_stable": prefix_ok,
                "witness_4/5 = p1*b0 + a0": w45,
                "witness_6/7 = p2*c0 + a0": w67,
                "both_members": member_ok,
            }
        )

    links = []
    previous: Fraction | None = None
    increasing = True
    for idx, n in enumerate(levels):
        monoid = monoids[n]
        fam = monoid.family
        mcds = monoid.mcd([q45, q67])
        expected = fam.partial_sum(n)
        d = mcds[0] if mcds else Fraction(0)
        checks = {
            "divides_4/5": monoid.contains(q45 - d),
            "divides_6/7": monoid.contains(q67 - d),
            "mcd_is_sum_of_a_atoms": mcds == (expected,),
        }
        if idx == 0:
            extending = ()
        else:
            prev_level = levels[idx - 1]
            extending = tuple(
                f"a_{i} = {format_rational(fam.a(i))}"
                for i in range(prev_level + 1, n + 1)
            )
            checks["extends_previous_mcd"] = (
                previous is not None
                and d == previous + sum(
                    (fam.a(i) for i in range(prev_level + 1, n + 1)), Fraction(0)
                )
            )
            increasing = increasing and previous is not None and d > previous
        ok = ok and all(v for v in checks.values())
        links.append(WitnessLink(n, d, checks, mcds == (expected,), extending))
        previous = d

    return Non2McdReport(
        levels=tuple(levels),
        targets=(format_rational(q45), format_rational(q67)),
        identity_checks=tuple(identity_checks),
        links=tuple(links),
        strictly_increasing=increasing,
        passed=ok and increasing,
    )


# ---------------------------------------------------------------------------
# full example33 suite


class Example33Report(Record):
    suite = "example33"
    level: int
    primes: tuple[str, ...]
    construction_checks: tuple[dict, ...] = field(json=None)
    partial_sum_below_2_15: bool
    identity_checks: tuple[dict, ...] = field(json=None)
    members: dict
    atom_report: AtomValuationReport
    passed: bool

    def to_json(self) -> dict:
        # both check lists go into one certificates list
        return {**super().to_json(),
                "certificates": list(self.construction_checks + self.identity_checks)}

    def summary(self) -> list[str]:
        return [
            f"example33 level {self.level}: primes {', '.join(self.primes)}",
            f"  growth bounds, chain inequality and minimal prime choice: "
            f"{all(all(v for k, v in c.items() if k != 'n') for c in self.construction_checks)}",
            f"  partial sum below 2/15: {self.partial_sum_below_2_15}",
            f"  4/5 and 6/7 members with exact witnesses: "
            f"{self.members['4/5'] and self.members['6/7']}",
            f"  all {3 * (self.level + 1)} generators atoms by valuation: "
            f"{self.atom_report.passed}",
            f"  passed: {self.passed}",
        ]


def example33_suite(level: int) -> Example33Report:
    """Construction-level certification of the example33 truncation.

    Checks the prime growth bounds, the chain inequality at every step,
    minimality of each prime choice, the exact partial-sum bound, the
    membership witnesses for 4/5 and 6/7, and the valuation-based atom
    verification for every generator.
    """
    monoid = example33(level)
    fam: Example33Family = monoid.family
    q45, q67 = Fraction(4, 5), Fraction(6, 7)
    ok = fam.prime(0) == 17

    construction = []
    for i, p in enumerate(fam.primes):
        growth = p > 15 * 2**i
        increasing = i == 0 or p > fam.primes[i - 1]
        ok = ok and growth and increasing
        construction.append({"n": i, "prime": str(p), "exceeds_15_2^i": growth,
                             "strictly_increasing": increasing})
    for n in range(level + 1):
        s_n = fam.partial_sum(n)
        u, v = q45 - s_n, q67 - s_n
        bound = max(fam.prime(3 * n), 15 * 2 ** (3 * n + 3), u.numerator, v.numerator)
        p1 = fam.prime(3 * n + 1)
        inequality = p1 > bound
        minimal = all(not is_prime(q) for q in range(bound + 1, p1))
        ok = ok and inequality and minimal
        construction.append(
            {
                "n": n,
                "chain_inequality_exact": inequality,
                "smallest_prime_above_bound": minimal,
            }
        )

    sum_ok = fam.partial_sum(level) < Fraction(2, 15)
    ok = ok and sum_ok

    identity = []
    for n in range(level + 1):
        s_n = fam.partial_sum(n)
        w45 = fam.prime(3 * n + 1) * fam.b(n) + s_n == q45
        w67 = fam.prime(3 * n + 2) * fam.c(n) + s_n == q67
        ok = ok and w45 and w67
        identity.append({"n": n, "witness_4/5": w45, "witness_6/7": w67})

    members = {"4/5": monoid.contains(q45), "6/7": monoid.contains(q67)}
    ok = ok and members["4/5"] and members["6/7"]

    atom_report = verify_atoms_by_valuation(monoid)
    ok = ok and atom_report.passed

    return Example33Report(
        level=level,
        primes=tuple(str(p) for p in fam.primes),
        construction_checks=tuple(construction),
        partial_sum_below_2_15=sum_ok,
        identity_checks=tuple(identity),
        members=members,
        atom_report=atom_report,
        passed=ok,
    )


# ---------------------------------------------------------------------------
# atomicity sweep


class SweepReport(Record):
    suite = "atomicity"
    subject: str
    max_card: int
    element_bound: str
    checked: int
    by_cardinality: dict
    failures: tuple[str, ...] = field(json=None)
    passed: bool

    def to_json(self) -> dict:
        return {**super().to_json(), "certificates": [{"failures": list(self.failures)}]}

    def summary(self) -> list[str]:
        return [
            f"atomicity sweep over {self.subject}: {self.checked} sets "
            f"(cardinality <= {self.max_card}, elements <= {self.element_bound}), "
            f"{len(self.failures)} without a factorization",
        ]


def atomicity_sweep(monoid: PuiseuxMonoid, max_card: int, element_bound) -> SweepReport:
    """Every nonempty B with |B| <= max_card, max(B) <= bound has at least
    one factorization in the power monoid.  Each B is asked only whether it
    has one (`decompose.factorability_sweep`), never for its lengths.  A
    failure would be a defect of the implementation, not of the statement;
    none is expected."""
    if max_card < 1:
        raise InvalidInputError("max_card must be positive")
    by_card, failures = factorability_sweep(monoid, max_card, element_bound)
    return SweepReport(
        subject=str(monoid),
        max_card=max_card,
        element_bound=_fmt(Fraction(element_bound)),
        checked=sum(by_card.values()),
        by_cardinality=by_card,
        failures=tuple(str(b) for b in failures),
        passed=not failures,
    )
