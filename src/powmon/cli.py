"""Command-line front end.

Every operation of the library is reachable as a subcommand, with a stable
text form by default and `--json` for scripting (keys sorted, identical
invocations are byte-identical).  Exit codes: 0 success, 1 domain error
(non-membership and friends), 2 usage error.  When the reader of stdout
closes it early (`powmon ... | head -3`), the command stops writing and
exits 1, with nothing on stderr.

The working monoid is named either by generators (`--monoid "2,3"`,
`--monoid "1"` for the nonnegative integers) or by family
(`--family geometric:2/3:5`, `--family example33:2`); a family's level
lives only in its label, which `puiseux.parse_family` reads.  Each command
accepts only the flags it reads: `family` takes just its label, and
`verify example33` just `--level`.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from .decompose import (
    PowerMonoidView,
    decompositions,
    divisor_closure,
    is_atom,
    set_factorizations,
    set_lengths,
)
from .errors import InvalidInputError, MonoidError
from .powerset import FinSet
from .puiseux import PuiseuxMonoid, parse_family, parse_monoid
from .rational import dumps, format_rational, parse_rational


def _ambient(args, required: bool = True) -> PuiseuxMonoid | None:
    if args.monoid and args.family:
        raise InvalidInputError("--monoid and --family exclude each other")
    if args.monoid:
        return parse_monoid(args.monoid)
    if args.family:
        return parse_family(args.family)
    if required:
        raise InvalidInputError("an ambient monoid is required: pass --monoid or --family")
    return None


def _emit(args, payload, text_lines: Callable[[], list[str]]) -> None:
    """Print the payload as JSON under --json, else the text lines, and a
    last line marking a result the payload flags "partial".

    The payload holds values (monoids, sets, Fractions, reports), encoded
    by `rational.dumps` only under --json; the lines are a callable so that
    --json never renders them."""
    if args.json:
        print(dumps(payload))
    else:
        partial = isinstance(payload, dict) and payload.get("partial")
        for line in text_lines() + (["(partial: length cap hit)"] if partial else []):
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
        lambda: [z.render(format_rational) for z in enum.items],
    )


def _cmd_lengths(args) -> None:
    monoid = _ambient(args)
    q = parse_rational(args.element)
    lengths, exhaustive = monoid.lengths(q, max_length=args.max_length)
    _emit(
        args,
        {"command": "lengths", "monoid": monoid, "element": q,
         "lengths": sorted(lengths), "partial": not exhaustive},
        lambda: ["{" + ", ".join(str(n) for n in sorted(lengths)) + "}"],
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
        lambda: [z.render() for z in enum.items],
    )


def _cmd_lengths_set(args) -> None:
    monoid = _ambient(args)
    b = FinSet.parse(args.set)
    lengths, exhaustive = set_lengths(b, monoid, restricted=args.restricted,
                                      max_length=args.max_length)
    _emit(
        args,
        {"command": "lengths-set", "monoid": monoid, "set": b,
         "restricted": args.restricted, "lengths": sorted(lengths),
         "partial": not exhaustive},
        lambda: ["{" + ", ".join(str(n) for n in sorted(lengths)) + "}"],
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
    monoid = parse_family(args.spec)
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


def _verify_handle(args, corpus):
    monoid = _ambient(args)
    set_level = args.restricted or any(isinstance(x, FinSet) for x in corpus)
    if set_level:
        return PowerMonoidView(monoid, restricted=args.restricted)
    return monoid


def _cmd_verify(args) -> None:
    from . import laboratory  # here, so that the other commands do not load it

    suite = args.suite
    if suite == "accp":
        start = None if args.start is None else _corpus_item(args.start)
        handle = _verify_handle(args, [] if start is None else [start])
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
    else:  # example33: argparse restricts the suite names
        report = laboratory.example33_suite(args.level)
    _emit(args, report, report.summary)
    if not report.passed:
        raise MonoidError(f"verification suite {suite!r} failed")


# ---------------------------------------------------------------------------
# parser


def _natural(text: str) -> int:
    """The type of every integer option: ASCII digits, an integer of at
    least 0.  The library refuses what is out of its own range."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    # each command accepts only the flags it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="machine-readable output")
    ambient = argparse.ArgumentParser(add_help=False)
    ambient.add_argument("--monoid", help='ambient monoid generators, e.g. "2,3" or "1/2,1/3"')
    ambient.add_argument("--family", help="named family, e.g. geometric:2/3:5 or example33:2")
    restricted = argparse.ArgumentParser(add_help=False)
    restricted.add_argument("--restricted", action="store_true",
                            help="work in the restricted power monoid (sets containing 0)")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--max-length", type=_natural, default=None,
                        help="cap factorization lengths; results are then flagged partial")

    parser = argparse.ArgumentParser(
        prog="powmon",
        description="Atoms, factorizations and maximal common divisors in Puiseux "
                    "monoids and their finitary power monoids (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, func, help_, *flags, **arguments):
        p = group.add_parser(name, parents=[output, *flags], help=help_)
        for arg, kw in arguments.items():
            p.add_argument(arg, **kw)
        p.set_defaults(func=func)

    add(sub, "atoms", _cmd_atoms, "atom set of the monoid", ambient)
    add(sub, "member", _cmd_member, "membership of a rational", ambient, element={})
    add(sub, "divisors", _cmd_divisors, "divisor set of a member", ambient, element={})
    add(sub, "factorize", _cmd_factorize, "all factorizations of a member", ambient, capped,
        element={})
    add(sub, "lengths", _cmd_lengths, "length set of a member", ambient, capped, element={})
    add(sub, "mcd", _cmd_mcd, "all maximal common divisors of members", ambient,
        elements={"nargs": "+"})

    add(sub, "minkowski", _cmd_minkowski, "Minkowski sum of set literals", ambient,
        sets={"nargs": "+"})
    add(sub, "decompose", _cmd_decompose, "all two-summand decompositions of a set", ambient,
        set={})
    add(sub, "is-atom", _cmd_is_atom, "atomhood of a set in the power monoid", ambient,
        restricted, set={})
    add(sub, "factorize-set", _cmd_factorize_set, "all factorizations of a set", ambient,
        restricted, capped, set={})
    add(sub, "lengths-set", _cmd_lengths_set, "length set of a set", ambient, restricted,
        capped, set={})
    add(sub, "divisor-closure", _cmd_divisor_closure,
        "elements dividing some member of the set", ambient, set={})

    add(sub, "family", _cmd_family, "construct and describe a named family", spec={})

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)
    add(vsub, "accp", _cmd_verify, "descending divisibility chains / stabilization certificate",
        ambient, restricted,
        **{"--start": {"default": None}, "--depth": {"type": _natural, "default": 5}})
    add(vsub, "bfm", _cmd_verify, "bounded-factorization check over a corpus", ambient,
        restricted, corpus={"nargs": "+"}, **{"--cap": {"type": _natural, "default": 24}})
    add(vsub, "ffm", _cmd_verify, "finite-factorization counts over a corpus", ambient,
        restricted, corpus={"nargs": "+"})
    add(vsub, "mcd", _cmd_verify, "maximal-common-divisor probe of a pair", ambient,
        a={}, b={})
    add(vsub, "atomicity", _cmd_verify, "power-monoid atomicity sweep", ambient,
        **{"--max-card": {"type": _natural, "default": 3}, "--bound": {"default": "8"}})
    add(vsub, "example33", _cmd_verify, "construction, valuation and witness checks",
        **{"--level": {"type": _natural, "default": 2, "help": "truncation level"}})

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
        sys.stdout.flush()
    except MonoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        # so that flush cannot raise (the recipe in Python's `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
