"""Command-line front end.

Every operation of the library is reachable as a subcommand, with a stable
text form by default and `--json` for scripting (keys sorted, identical
invocations are byte-identical).  Exit codes: 0 success, 1 domain error
(non-membership and friends), 2 usage error.

The working monoid is named either by generators (`--monoid "2,3"`,
`--monoid "1"` for the nonnegative integers) or by family
(`--family geometric:2/3:5`, `--family example33:2`).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable

from . import laboratory
from .decompose import (
    PowerMonoidView,
    decompositions,
    divisor_closure,
    is_atom,
    set_factorizations,
)
from .errors import InvalidInputError, MonoidError
from .powerset import FinSet
from .puiseux import (
    GeometricFamily,
    PuiseuxMonoid,
    example33,
    geometric,
    parse_monoid,
)
from .rational import format_rational, jsonable, parse_rational


def _parse_family(spec: str, level_flag: int | None) -> PuiseuxMonoid:
    parts = spec.split(":")
    kind = parts[0]
    if kind == "geometric":
        if len(parts) == 3:
            ratio, level = parse_rational(parts[1]), int(parts[2])
        elif len(parts) == 2 and level_flag is not None:
            ratio, level = parse_rational(parts[1]), level_flag
        else:
            raise InvalidInputError(
                f"geometric family needs a ratio and a level: geometric:2/3:5, got {spec!r}"
            )
        return geometric(ratio, level)
    if kind == "example33":
        if len(parts) == 2:
            level = int(parts[1])
        elif len(parts) == 1 and level_flag is not None:
            level = level_flag
        else:
            raise InvalidInputError(
                f"example33 family needs a level: example33:2, got {spec!r}"
            )
        return example33(level)
    raise InvalidInputError(f"unknown family {kind!r} (expected geometric or example33)")


def _ambient(args, required: bool = True) -> PuiseuxMonoid | None:
    monoid_flag = getattr(args, "monoid", None)
    family_flag = getattr(args, "family", None)
    if monoid_flag and family_flag:
        raise InvalidInputError("--monoid and --family exclude each other")
    if monoid_flag:
        return parse_monoid(monoid_flag)
    if family_flag:
        return _parse_family(family_flag, getattr(args, "level", None))
    if required:
        raise InvalidInputError("an ambient monoid is required: pass --monoid or --family")
    return None


def _emit(args, payload, text_lines: Callable[[], list[str]]) -> None:
    """Print the payload as JSON under --json, else the text lines.

    The payload holds values (monoids, sets, Fractions, reports), encoded
    by `jsonable` only under --json; the lines are a callable so that
    --json never renders them."""
    if getattr(args, "json", False):
        print(json.dumps(jsonable(payload), sort_keys=True, indent=2))
    else:
        for line in text_lines():
            print(line)


def _rat_list(values) -> str:
    return ", ".join(format_rational(v) for v in values)


# ---------------------------------------------------------------------------
# element-level commands


def _cmd_atoms(args) -> None:
    monoid = _ambient(args)
    atoms = monoid.atoms()
    _emit(
        args,
        {"command": "atoms", "monoid": monoid, "atoms": atoms},
        lambda: [_rat_list(atoms)],
    )


def _cmd_member(args) -> None:
    monoid = _ambient(args)
    q = parse_rational(args.element)
    inside = monoid.contains(q)
    _emit(
        args,
        {"command": "member", "monoid": monoid, "element": q, "member": inside},
        lambda: ["true" if inside else "false"],
    )


def _cmd_divisors(args) -> None:
    monoid = _ambient(args)
    q = parse_rational(args.element)
    divs = monoid.divisors(q)
    _emit(
        args,
        {"command": "divisors", "monoid": monoid, "element": q, "divisors": divs},
        lambda: [_rat_list(divs)],
    )


def _cmd_factorize(args) -> None:
    monoid = _ambient(args)
    q = parse_rational(args.element)
    enum = monoid.factorizations(q, max_length=args.max_length)
    _emit(
        args,
        {"command": "factorize", "monoid": monoid, "element": q,
         "factorizations": [z.counts for z in enum.items],
         "lengths": sorted(enum.lengths()), "partial": not enum.exhaustive},
        lambda: [z.render(format_rational) for z in enum.items]
        + (["(partial: length cap hit)"] if not enum.exhaustive else []),
    )


def _cmd_lengths(args) -> None:
    monoid = _ambient(args)
    q = parse_rational(args.element)
    enum = monoid.factorizations(q, max_length=args.max_length)
    _emit(
        args,
        {"command": "lengths", "monoid": monoid, "element": q,
         "lengths": sorted(enum.lengths()), "partial": not enum.exhaustive},
        lambda: ["{" + ", ".join(str(n) for n in sorted(enum.lengths())) + "}"],
    )


def _cmd_mcd(args) -> None:
    monoid = _ambient(args)
    elems = [parse_rational(e) for e in args.elements]
    mcds = monoid.mcd(elems)
    _emit(
        args,
        {"command": "mcd", "monoid": monoid, "elements": elems, "mcds": mcds},
        lambda: [_rat_list(mcds)],
    )


# ---------------------------------------------------------------------------
# set-level commands


def _cmd_minkowski(args) -> None:
    sets = [FinSet.parse(s) for s in args.sets]
    total = sets[0]
    for s in sets[1:]:
        total = total + s
    payload = {"command": "minkowski", "operands": sets, "sum": total}
    monoid = _ambient(args, required=False)
    if monoid is not None:
        payload["monoid"] = monoid
        payload["sum_within_monoid"] = total.is_within(monoid)
    _emit(args, payload, lambda: [str(total)])


def _cmd_decompose(args) -> None:
    monoid = _ambient(args)
    b = FinSet.parse(args.set)
    decos = decompositions(b, monoid)
    _emit(
        args,
        {"command": "decompose", "monoid": monoid, "set": b, "decompositions": decos},
        lambda: [f"{d}{'   (trivial)' if d.trivial else ''}" for d in decos],
    )


def _cmd_is_atom(args) -> None:
    monoid = _ambient(args)
    b = FinSet.parse(args.set)
    check = is_atom(b, monoid, restricted=args.restricted)
    _emit(
        args,
        {"command": "is-atom", "monoid": monoid, "set": b, "restricted": args.restricted,
         "is_atom": check.is_atom, "witness": check.witness},
        lambda: ["true" if check.is_atom else "false"]
        + ([f"witness: {check.witness}"] if check.witness is not None else []),
    )


def _cmd_factorize_set(args) -> None:
    monoid = _ambient(args)
    b = FinSet.parse(args.set)
    enum = set_factorizations(b, monoid, restricted=args.restricted,
                              max_length=args.max_length)
    _emit(
        args,
        {"command": "factorize-set", "monoid": monoid, "set": b,
         "restricted": args.restricted,
         "factorizations": [tuple(z.expand()) for z in enum.items],
         "lengths": sorted(enum.lengths()), "partial": not enum.exhaustive},
        lambda: [z.render() for z in enum.items]
        + (["(partial: length cap hit)"] if not enum.exhaustive else []),
    )


def _cmd_lengths_set(args) -> None:
    monoid = _ambient(args)
    b = FinSet.parse(args.set)
    enum = set_factorizations(b, monoid, restricted=args.restricted,
                              max_length=args.max_length)
    _emit(
        args,
        {"command": "lengths-set", "monoid": monoid, "set": b,
         "restricted": args.restricted, "lengths": sorted(enum.lengths()),
         "partial": not enum.exhaustive},
        lambda: ["{" + ", ".join(str(n) for n in sorted(enum.lengths())) + "}"],
    )


def _cmd_divisor_closure(args) -> None:
    monoid = _ambient(args)
    b = FinSet.parse(args.set)
    closure = divisor_closure(b, monoid)
    _emit(
        args,
        {"command": "divisor-closure", "monoid": monoid, "set": b, "closure": closure},
        lambda: ["{" + _rat_list(closure) + "}"],
    )


# ---------------------------------------------------------------------------
# family and verify


def _cmd_family(args) -> None:
    monoid = _parse_family(args.spec, args.level)
    atoms = monoid.atoms()
    label = monoid.family.label()
    _emit(
        args,
        {"command": "family", "monoid": monoid, "atoms": atoms, "truncation": label},
        lambda: [
            f"{label}  (at truncation level {monoid.family.level}; results are exact for the truncation)",
            f"monoid: {monoid}",
            f"scale: {format_rational(monoid.scale)}",
            f"atoms: {_rat_list(atoms)}",
        ],
    )


def _corpus_item(text: str):
    return FinSet.parse(text) if text.lstrip().startswith("{") else parse_rational(text)


def _verify_handle(args, corpus=()):
    monoid = _ambient(args)
    set_level = args.restricted or any(isinstance(x, FinSet) for x in corpus)
    if set_level:
        return PowerMonoidView(monoid, restricted=args.restricted)
    return monoid


def _cmd_verify(args) -> None:
    suite = args.suite
    if suite == "accp":
        start = None if args.start is None else _corpus_item(args.start)
        handle = _verify_handle(args, [start] if start is not None else [])
        if start is None:
            if isinstance(handle, PuiseuxMonoid) and isinstance(handle.family, GeometricFamily):
                start = Fraction(handle.family.ratio.numerator)
            else:
                raise InvalidInputError("verify accp needs --start")
        report = laboratory.accp_chain_search(handle, start, args.depth)
    elif suite == "bfm":
        corpus = [_corpus_item(t) for t in args.corpus]
        report = laboratory.bfm_check(_verify_handle(args, corpus), corpus, args.cap)
    elif suite == "ffm":
        corpus = [_corpus_item(t) for t in args.corpus]
        report = laboratory.ffm_check(_verify_handle(args, corpus), corpus)
    elif suite == "mcd":
        monoid = _ambient(args)
        report = laboratory.mcd_probe(monoid, (parse_rational(args.a), parse_rational(args.b)))
    elif suite == "atomicity":
        monoid = _ambient(args)
        report = laboratory.atomicity_sweep(monoid, args.max_card, parse_rational(args.bound))
    elif suite == "example33":
        level = args.level if args.level is not None else 2
        report = laboratory.example33_suite(level)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown verify suite {suite!r}")
    _emit(args, report, report.summary)
    if not report.passed:
        raise MonoidError(f"verification suite {suite!r} failed")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--monoid", help='ambient monoid generators, e.g. "2,3" or "1/2,1/3"')
    common.add_argument("--family", help="named family, e.g. geometric:2/3:5 or example33:2")
    common.add_argument("--level", type=int, help="family truncation level (with --family/family)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # only the commands that read a flag accept it
    restricted = argparse.ArgumentParser(add_help=False)
    restricted.add_argument("--restricted", action="store_true",
                            help="work in the restricted power monoid (sets containing 0)")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--max-length", type=int, default=None,
                        help="cap factorization lengths; results are then flagged partial")

    parser = argparse.ArgumentParser(
        prog="powmon",
        description="Atoms, factorizations and maximal common divisors in Puiseux "
                    "monoids and their finitary power monoids (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, *flags, **positional):
        p = sub.add_parser(name, parents=[common, *flags], help=help_)
        for arg, kw in positional.items():
            p.add_argument(arg, **kw)
        p.set_defaults(func=func)
        return p

    add("atoms", _cmd_atoms, "atom set of the monoid")
    add("member", _cmd_member, "membership of a rational", element={})
    add("divisors", _cmd_divisors, "divisor set of a member", element={})
    add("factorize", _cmd_factorize, "all factorizations of a member", capped, element={})
    add("lengths", _cmd_lengths, "length set of a member", capped, element={})
    add("mcd", _cmd_mcd, "all maximal common divisors of members",
        elements={"nargs": "+"})

    add("minkowski", _cmd_minkowski, "Minkowski sum of set literals",
        sets={"nargs": "+"})
    add("decompose", _cmd_decompose, "all two-summand decompositions of a set", set={})
    add("is-atom", _cmd_is_atom, "atomhood of a set in the power monoid", restricted, set={})
    add("factorize-set", _cmd_factorize_set, "all factorizations of a set",
        restricted, capped, set={})
    add("lengths-set", _cmd_lengths_set, "length set of a set", restricted, capped, set={})
    add("divisor-closure", _cmd_divisor_closure,
        "elements dividing some member of the set", set={})

    add("family", _cmd_family, "construct and describe a named family", spec={})

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    def vadd(name, help_, *flags, **extra):
        p = vsub.add_parser(name, parents=[common, *flags], help=help_)
        for arg, kw in extra.items():
            p.add_argument(arg, **kw)
        p.set_defaults(func=_cmd_verify)
        return p

    vadd("accp", "descending divisibility chains / stabilization certificate", restricted,
         **{"--start": {"default": None}, "--depth": {"type": int, "default": 5}})
    vadd("bfm", "bounded-factorization check over a corpus", restricted,
         corpus={"nargs": "+"}, **{"--cap": {"type": int, "default": 24}})
    vadd("ffm", "finite-factorization counts over a corpus", restricted,
         corpus={"nargs": "+"})
    vadd("mcd", "maximal-common-divisor probe of a pair", a={}, b={})
    vadd("atomicity", "power-monoid atomicity sweep",
         **{"--max-card": {"type": int, "default": 3}, "--bound": {"default": "8"}})
    vadd("example33", "construction, valuation and witness checks")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except MonoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
