"""CLI behavior: golden outputs, stable JSON, exit codes."""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from powmon import FinSet, PuiseuxMonoid, UnsupportedAmbientError, is_atom
from powmon.cli import _build_parser, main
from powmon.laboratory import atomicity_sweep
from powmon.puiseux import example33, geometric_chain, verify_atoms_by_valuation
from powmon.rational import format_rational, parse_rational

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factorize_set_golden_text(capsys):
    code, out, _ = run_cli(
        capsys, "factorize-set", "--monoid", "1", "--restricted", "{0,1,2,3}"
    )
    assert code == 0
    assert out == "{0, 1} + {0, 2}\n{0, 1} + {0, 1} + {0, 1}\n"


def test_factorize_set_golden_json(capsys):
    code, out, _ = run_cli(
        capsys, "factorize-set", "--monoid", "1", "--restricted", "--json", "{0,1,2,3}"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lengths"] == [2, 3]
    assert payload["partial"] is False
    assert payload["factorizations"] == [
        [["0", "1"], ["0", "2"]],
        [["0", "1"], ["0", "1"], ["0", "1"]],
    ]


def test_mcd_golden(capsys):
    code, out, _ = run_cli(capsys, "mcd", "--monoid", "2,3", "4", "6")
    assert code == 0
    assert out == "4\n"


def test_member_family(capsys):
    code, out, _ = run_cli(capsys, "member", "--family", "geometric:2/3:3", "4/3")
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "member", "--family", "geometric:2/3:3", "1/5")
    assert code == 0 and out == "false\n"


def test_atoms_and_divisors(capsys):
    code, out, _ = run_cli(capsys, "atoms", "--monoid", "1/2,1/3,5/6")
    assert code == 0 and out == "1/3, 1/2\n"
    code, out, _ = run_cli(capsys, "divisors", "--monoid", "2,3", "6")
    assert code == 0 and out == "0, 2, 3, 4, 6\n"


def test_minkowski(capsys):
    code, out, _ = run_cli(capsys, "minkowski", "{0,3}", "{0,1,5}")
    assert code == 0 and out == "{0, 1, 3, 4, 5, 8}\n"


def test_decompose_and_is_atom(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--monoid", "1", "{0,3}")
    assert code == 0
    assert "trivial" in out
    code, out, _ = run_cli(capsys, "is-atom", "--monoid", "1", "--restricted", "{0,3}")
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "is-atom", "--monoid", "1", "--restricted", "{0,1,2}")
    assert code == 0
    assert out.splitlines()[0] == "false"
    assert "witness" in out


def test_lengths_set(capsys):
    code, out, _ = run_cli(capsys, "lengths-set", "--monoid", "1", "--restricted", "{0,1,2,3}")
    assert code == 0 and out == "{2, 3}\n"


def test_lengths_set_builds_no_factorization(capsys, monkeypatch):
    """lengths-set reads lengths and the partial flag off the engine's raw
    tuples, with or without a cap, and builds no Factorization."""
    from powmon import FinSet, PuiseuxMonoid, set_factorizations
    from powmon.factorization import Factorization

    b = FinSet(range(9))
    capped = set_factorizations(b, PuiseuxMonoid([1]), restricted=True, max_length=3)

    def refuse(*args, **kwargs):
        raise AssertionError("lengths-set built a Factorization")

    monkeypatch.setattr(Factorization, "__init__", refuse)
    monkeypatch.setattr(Factorization, "_canonical", classmethod(refuse))
    code, out, _ = run_cli(capsys, "lengths-set", "--monoid", "1", "--restricted",
                           "--max-length", "3", "--json", "{0,1,2,3,4,5,6,7,8}")
    assert code == 0 and not capped.exhaustive
    payload = json.loads(out)
    assert payload["lengths"] == sorted(capped.lengths()) == [2, 3]
    assert payload["partial"] is True
    code, out, _ = run_cli(capsys, "lengths-set", "--monoid", "1", "--restricted", "{0,1,2,3}")
    assert (code, out) == (0, "{2, 3}\n")


def test_divisor_closure(capsys):
    code, out, _ = run_cli(capsys, "divisor-closure", "--monoid", "2,3", "{4,6}")
    assert code == 0 and out == "{0, 2, 3, 4, 6}\n"


def test_family_description(capsys):
    code, out, _ = run_cli(capsys, "family", "example33:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["monoid"]["family"]["primes"][:3] == ["17", "127", "131"]
    assert payload["truncation"] == "example33:1"
    code, out, _ = run_cli(capsys, "family", "geometric:2/3:2")
    assert code == 0
    assert "at truncation" in out or "truncation" in out


def test_verify_suites_pass(capsys):
    for argv in [
        ("verify", "accp", "--monoid", "2,3", "--start", "6"),
        ("verify", "accp", "--family", "geometric:2/3:4", "--depth", "3"),
        ("verify", "bfm", "--monoid", "1", "--restricted", "{0,1,2,3}"),
        ("verify", "ffm", "--monoid", "1", "--restricted", "{0,1,2,3}"),
        ("verify", "mcd", "--monoid", "2,3", "4", "6"),
        ("verify", "atomicity", "--monoid", "2,3", "--max-card", "2", "--bound", "6"),
        ("verify", "example33", "--level", "0"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out


def test_verify_json_has_certificates(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "mcd", "--monoid", "2,3", "--json", "4", "6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "certificates" in payload


def test_domain_error_exit_code_1(capsys):
    code, _, err = run_cli(capsys, "divisors", "--monoid", "3,5", "4")
    assert code == 1
    assert "not in" in err
    code, _, err = run_cli(capsys, "factorize", "--monoid", "2,3", "1")
    assert code == 1


def test_a_probable_prime_denominator_is_answered(capsys):
    """A 2**89 - 1 denominator, whose primality is refused, stays an
    unknown prime of the solver, which still answers."""
    argv = ("member", "--monoid", "1/618970019642690137449562111,1/300007", "2/300007")
    assert run_cli(capsys, *argv) == (0, "true\n", "")


# (2/3)**0, ..., (2/3)**18: the multiplicity 2**18 is past APERY_LIMIT, so
# the monoid has no table and every answer below comes from the solver
POWERS = [Fraction(2, 3) ** k for k in range(19)]


@pytest.mark.parametrize("argv", [("atoms",), ("factorize", "2"), ("divisors", "1")],
                         ids=["atoms", "factorize", "divisors"])
def test_geometric_powers_past_the_table_are_answered_at_once(capsys, argv):
    """Without trade bounds the solver ran past 30 s on each of these
    commands; the atom check of (2/3)**0, ..., (2/3)**17 that `geometric`
    makes, which once read the table, runs on the solver too."""
    start = time.perf_counter()
    monoid = ",".join(map(format_rational, POWERS))
    code, out, err = run_cli(capsys, argv[0], "--monoid", monoid, *argv[1:])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if argv[0] == "atoms":
        assert lines == [", ".join(map(format_rational, sorted(POWERS)))]
    elif argv[0] == "factorize":
        assert len(lines) == 19 and lines[0] == "1 + 1"
        assert all(sum(map(parse_rational, line.split(" + "))) == 2 for line in lines)
    else:
        assert lines == ["0, 1"]
    assert PuiseuxMonoid(POWERS[:18]).atoms() == tuple(sorted(POWERS[:18]))
    assert time.perf_counter() - start < 1


def test_mcd_of_a_dividing_pair_is_answered_at_once(capsys):
    """2 divides 3 in geometric:2/3:17 (3 - 2 = 1 is the power r**0), so 2
    is the only mcd; walking the common divisors of 2 and 3 instead ran
    past 20 s, about 3x longer per level."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mcd", "--family", "geometric:2/3:17", "2", "3")
    assert (code, out, err) == (0, "2\n", "")
    assert time.perf_counter() - start < 1


def test_membership_past_depths_without_a_trade_bound_is_answered_at_once(capsys):
    """Over <10**9 - 1, 10**9, 10**21, 10**21 + 10**9> no table exists and
    the solver's first two depths have no trade bound; this query once ran
    past 10 s."""
    start = time.perf_counter()
    monoid = ",".join(map(str, [10**9 - 1, 10**9, 10**21, 10**21 + 10**9]))
    code, out, err = run_cli(capsys, "member", "--monoid", monoid, str(10**21 - 1))
    assert (code, out, err) == (0, "true\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", ["atoms", "factorize"])
def test_atoms_past_depths_without_a_trade_bound_are_answered_at_once(capsys, command):
    """Over the same monoid the search for a second representation of
    10**21 walked 10**12 counts of 10**9, past 5 s; both commands need the
    atoms.  10**21 + 10**9 is x*(10**9 - 1) + y*10**9 for 1001 pairs (x, y)."""
    start = time.perf_counter()
    monoid = ",".join(map(str, [10**9 - 1, 10**9, 10**21, 10**21 + 10**9]))
    argv = [command, "--monoid", monoid] + ([str(10**21 + 10**9)] if command == "factorize" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if command == "atoms":
        assert out == "999999999, 1000000000\n"
    else:
        lines = out.splitlines()
        assert len(lines) == 1001 and "1000000000001*1000000000" in lines
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [("family", "example33:4"), ("verify", "example33", "--level", "4")])
def test_example33_level4_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "3317044064679887385961981" in err


def test_accp_on_a_level_zero_geometric_truncation_names_the_level(capsys):
    code, out, err = run_cli(capsys, "verify", "accp", "--family", "geometric:2/3:0")
    assert (code, out) == (1, "")
    assert err == "error: truncation level 0 (geometric:2/3:0) is <1>: no chain step\n"


NO_MEMBER_TABLE = ("member enumeration needs the scaled numerical backend; "
                   "this monoid's denominators are too large")


def test_atomicity_sweep_without_a_member_table_is_refused(capsys):
    code, out, err = run_cli(capsys, "verify", "atomicity", "--family", "example33:1")
    assert (code, out) == (1, "")
    assert err == f"error: {NO_MEMBER_TABLE}\n"


def test_set_level_work_without_a_member_table_is_refused(capsys):
    """The set-level engine takes its table from the monoid, so the library
    and the CLI refuse with the one message the atomicity sweep gives."""
    with pytest.raises(UnsupportedAmbientError) as refused:
        is_atom(FinSet([0, Fraction(4, 5)]), example33(1), restricted=True)
    assert str(refused.value) == NO_MEMBER_TABLE
    code, out, err = run_cli(capsys, "is-atom", "--family", "example33:1", "--restricted",
                             "{0, 4/5}")
    assert (code, out, err) == (1, "", f"error: {NO_MEMBER_TABLE}\n")


@pytest.mark.parametrize("item", ["3", "3/2"])
def test_wrong_kind_corpus_item_is_named_as_typed(capsys, item):
    code, out, err = run_cli(capsys, "verify", "bfm", "--monoid", "1/2,1/3", "{0,1/2,1}", item)
    assert (code, out, err) == (1, "", f"error: expected a finite set, got {item}\n")


def test_usage_error_exit_code_2(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "member", "--monoid", "2,3")[0] == 2  # missing element
    # missing ambient is a domain-level complaint from the CLI layer
    code, _, err = run_cli(capsys, "atoms")
    assert code == 1 and "ambient" in err


def test_monoid_and_family_conflict(capsys):
    code, _, err = run_cli(
        capsys, "atoms", "--monoid", "2,3", "--family", "geometric:2/3:2"
    )
    assert code == 1 and "exclude" in err


def test_json_frozen_golden_bytes(capsys):
    """Schema drift guard: the full serialized payload, frozen."""
    code, out, _ = run_cli(capsys, "is-atom", "--monoid", "2,3", "--json", "{0,2,3}")
    assert code == 0
    assert out == (
        '{\n'
        '  "command": "is-atom",\n'
        '  "is_atom": true,\n'
        '  "monoid": {\n'
        '    "frobenius": 1,\n'
        '    "generators": [\n'
        '      "2",\n'
        '      "3"\n'
        '    ],\n'
        '    "numerical_generators": [\n'
        '      "2",\n'
        '      "3"\n'
        '    ],\n'
        '    "scale": "1"\n'
        '  },\n'
        '  "restricted": false,\n'
        '  "set": [\n'
        '    "0",\n'
        '    "2",\n'
        '    "3"\n'
        '  ],\n'
        '  "witness": null\n'
        '}\n'
    )


SET_LEVEL_GOLDENS = [
    # (argv, stdout length in bytes, sha256 of stdout): recorded from the
    # object-building implementation that sorted Factorization objects, so
    # any change of order or rendering in the mask-to-object path shows here
    (("factorize-set", "--monoid", "1/2,1/3", "--json", "{0,1/2,1,3/2}"),
     598, "8d362456b546261596ea0e67c333b04488f34d5bb30b0e71dd466fcbac527b77"),
    (("lengths-set", "--monoid", "1/2,1/3", "--json", "{0,1/2,1,3/2}"),
     328, "f843ca8cf90e3bd6f5b8c04fe88c5d75c1793c9e489783e389135d47c7a0ba7a"),
    (("factorize-set", "--monoid", "1", "--restricted", "--json", "{0,1,2,3,4,5,6,7,8}"),
     15582, "8fc865829271bb7ffcc1a78bf9e6416fbbaafe4af5a81562af03ea18721013e5"),
    (("lengths-set", "--monoid", "1", "--restricted", "--json", "{0,1,2,3,4,5,6,7,8}"),
     378, "b3dedbf4e3b3aa2fc1373b21f42c1f9b2849e264d6c9bc5dc587963609a33e8a"),
    (("factorize-set", "--monoid", "1", "--restricted", "{0,1,2,3,4,5,6,7,8}"),
     2913, "e6e6bce95820e5b04b49e798912d6f4de359004f795fd6d606f3b909c6def982"),
]


@pytest.mark.parametrize(
    "argv,size,sha256", SET_LEVEL_GOLDENS,
    ids=["factorize-rational-json", "lengths-rational-json", "factorize-interval-json",
         "lengths-interval-json", "factorize-interval-text"],
)
def test_set_level_golden_bytes(capsys, argv, size, sha256):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


CLI_GOLDENS = [
    # (argv, exit code, stdout length in bytes, sha256 of stdout): recorded
    # from the hand-written serializers, for every subcommand and verify
    # suite in --json mode and for every text output longer than one line
    (("atoms", "--monoid", "1/2,1/3,5/6", "--json"),
     0, 254, "25bfa6de70c70f5369df136fa3ae415ee4af393688fb78e09f690da4e55359bf"),
    (("member", "--family", "geometric:2/3:3", "--json", "4/3"),
     0, 371, "f761078f7a76203b5fa461d4a74ae0ac14f2614f754d839efc0790125fde24ab"),
    (("divisors", "--monoid", "2,3", "--json", "6"),
     0, 273, "384ca5ec9c328fb0772f3a2de9f522a6ebbad0f83827370e571b67b939fe128f"),
    (("divisors", "--monoid", "3,5", "--json", "4"),
     1, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("factorize", "--monoid", "1/2,1/3", "--json", "2"),
     0, 503, "940271a90d553a3ae6a7cbfb3f6d72c6cae582b51cf532c5d3d4521945a47abb"),
    (("factorize", "--monoid", "2,3", "--max-length", "3", "--json", "12"),
     0, 270, "1c7aa7e303a0b2e1fb38084e69019078c7657ee5089c6e36eb59bb53796bdcfb"),
    (("lengths", "--monoid", "2,3", "--json", "12"),
     0, 268, "feb84924b168e05c243d65e0c6b036945381f88274f783fcd4f1b4b3c061674a"),
    (("lengths", "--monoid", "2,3", "--max-length", "3", "--json", "12"),
     0, 244, "1c5ba09a17505e7169d9f9b8c0f5e4f4da634410152edd1b94c866174a6dabd9"),
    (("mcd", "--monoid", "2,3", "--json", "4", "6"),
     0, 248, "31882ae9b499cda9d45f08c7d45f0c8797390a4fad46e4862c7d7131dc9825c1"),
    (("minkowski", "--json", "{0,3}", "{0,1,5}"),
     0, 197, "983e5e81f01f0c06bafb9cfac6530052a8c8001e62325adc5131d63eac99c670"),
    (("minkowski", "--monoid", "1", "--json", "{0,3}", "{0,1/2}"),
     0, 345, "71124b1147943ac8de2876660e250bb3804147d949d752e67806079dadc0a73d"),
    (("decompose", "--monoid", "1", "--json", "{0,2,3,5}"),
     0, 533, "eb455cad265b2798827a0d5c06cf1636493a3aaa49a0a078f7c0e5b9bc201914"),
    (("decompose", "--monoid", "1/2,1/3", "--json", "{0,1/2,1}"),
     0, 544, "53ff2270fbea7c84f99e7fd09a0e86b00ba8048e83764d9b2a8e3b0accd686ee"),
    (("is-atom", "--monoid", "1", "--restricted", "--json", "{0,1,2}"),
     0, 378, "e0297cf9a8d79a36a72dcee96037b1826a9163b43a58a8799f37d16b00ca7b9b"),
    (("factorize-set", "--monoid", "1", "--restricted", "--max-length", "2", "--json", "{0,1,2,3,4,5}"),
     0, 580, "b01dea9271fb0c0cd1e3af10de6537c17ea463efde1097e413344af32b68a135"),
    (("lengths-set", "--monoid", "1", "--restricted", "--max-length", "2", "--json", "{0,1,2,3,4,5}"),
     0, 308, "4e85e24318c5c297b38f1d020ec7b62a39dd96c6c48ff4582223edf688901481"),
    (("divisor-closure", "--monoid", "2,3", "--json", "{4,6}"),
     0, 294, "72ffdc5387bb37512e94cb0fe13ced1cbc954b5a646abb1f8b76623f48a97e17"),
    (("family", "example33:1", "--json"),
     0, 744, "f892607e2fd763512e81d839e076cad20b430a6acc238d1584cd42d9549ee949"),
    (("family", "geometric:2/3:3", "--json"),
     0, 428, "e8389a84d2215ab55327f6b9582753c0c69d4d9498b58d4e9425c2124506f900"),
    (("verify", "accp", "--monoid", "2,3", "--start", "6", "--json"),
     0, 536, "33a6ff56a0671965654bfa4fcf2138f69c34808abff666e9df036cad8d57149b"),
    (("verify", "accp", "--family", "geometric:2/3:4", "--depth", "3", "--json"),
     0, 1002, "438ea1ec27b2caa71646ce50e6a9039f1bc64133d43215edfe59140f5557f43d"),
    (("verify", "accp", "--monoid", "1", "--restricted", "--start", "{0,1,2,3}", "--json"),
     0, 540, "812556b7487043689a9d6090d29fc40660a689c8eb8c86ab873a64e1535e4012"),
    (("verify", "bfm", "--monoid", "1", "--restricted", "--json", "{0,1,2,3}", "{0,2,4}"),
     0, 408, "7a6af5361463daf29d500446451cce3adc0fdf36867bbc6948403661c7dbbc7e"),
    (("verify", "bfm", "--monoid", "2,3", "--cap", "2", "--json", "6", "12"),
     1, 378, "cf46afd9345e8ff497b35be845da322c6a6dcad2b80553d68e49d63540c4967c"),
    (("verify", "ffm", "--monoid", "1", "--restricted", "--json", "{0,1,2,3}", "{0,2,4}"),
     0, 397, "85b53389d0b98b3f57d9ee1c6992899ccdfb63760390f0c19a847814f656052b"),
    (("verify", "ffm", "--monoid", "1/2,1/3", "--json", "2", "3/2"),
     0, 410, "c5933028c87ffb083b0aa58f12af2cef5d024d1531d827a9bacfeb972de8d091"),
    (("verify", "mcd", "--monoid", "2,3", "--json", "4", "6"),
     0, 251, "494dda9933102ae575eb69c3afad8be9e841db36eb2a36e28f2d99a4f0ebf804"),
    (("verify", "mcd", "--family", "example33:1", "--json", "4/5", "6/7"),
     0, 1732, "2b26d75c46daa78f0cd0db1c2ca33b444108c2c367aa259e171084fefa56285c"),
    (("verify", "atomicity", "--monoid", "2,3", "--max-card", "2", "--bound", "6", "--json"),
     0, 235, "fc6616a423537889dde10162362cbcfee287702564361eb63be751efd9f31c60"),
    (("verify", "example33", "--level", "1", "--json"),
     0, 2508, "40e5961d28cf88cba8368e745e6b751ce81090c518e01bafbe00cf03e03bd5ad"),
    (("factorize", "--monoid", "1/2,1/3", "2"),
     0, 84, "37e40471b14323301295c4e9f9e79d1bd198768f6b8b671e3b16db804def2e96"),
    (("decompose", "--monoid", "1", "{0,2,3,5}"),
     0, 47, "42c5ccbc254566b5b1112d2bdac772bd6abca667f55ad3bf1d90f867dd778734"),
    (("decompose", "--monoid", "1/2,1/3", "{0,1/2,1}"),
     0, 50, "18418ae5d7a7957cf18cedcbfe0c87b57d70f5de3959a538dfd256edcd3eb470"),
    (("is-atom", "--monoid", "1", "--restricted", "{0,1,2}"),
     0, 31, "a425e5a85e4ba4274575e13b5bc0afe577df95a561d66ac0fa53b3cd9c8be0b5"),
    (("factorize-set", "--monoid", "1", "--restricted", "--max-length", "2", "{0,1,2,3,4,5}"),
     0, 70, "22d160ab779cfc106b5274a76f5b4ae3fa26a16c2c31e02e3ca7c7f0974b2c4e"),
    (("family", "example33:1"),
     0, 248, "a7ecd7d5975cd9af885ac4827b4e2784dbb9146ffebc40bb6f352bcbf9ebd73c"),
    (("family", "geometric:2/3:3"),
     0, 142, "5660eff0668dd78de0693e50c26e3a001bd87ce2dd5d395d54e3a75d0b6e4238"),
    (("verify", "accp", "--monoid", "2,3", "--start", "6"),
     0, 119, "df7f9ef0556dd512d6a00612f8655aadaa472d2596a23a0217c33d3a5b65d9dd"),
    (("verify", "accp", "--family", "geometric:2/3:4", "--depth", "3"),
     0, 439, "9ff6d8702fcc2c20d0ffb91325ce371fc237dd314e16a2403f6d830cf88a57b7"),
    (("verify", "accp", "--monoid", "1", "--restricted", "--start", "{0,1,2,3}"),
     0, 136, "4b299a69594643463945f7a0a70564fe5546e8a4af3ac5d246dad5f5b580db87"),
    (("verify", "bfm", "--monoid", "1", "--restricted", "{0,1,2,3}", "{0,2,4}"),
     0, 105, "ead0fa2baeaaf2b90679add474045fe6e15d0ba9949240a5006b325c11c7e401"),
    (("verify", "bfm", "--monoid", "2,3", "--cap", "2", "6", "12"),
     1, 101, "4f16aa491b92ca2b3fa101433448c21f245733f7bd955b57f96d5bcfc860802b"),
    (("verify", "ffm", "--monoid", "1", "--restricted", "{0,1,2,3}", "{0,2,4}"),
     0, 206, "18fa1628553adebbec707918afd961ce49038fd0ee8c9d35de84d6e6245ebbc3"),
    (("verify", "ffm", "--monoid", "1/2,1/3", "2", "3/2"),
     0, 199, "63716508a662d3eefeda8910acb76f4e31b0c55328602d29c069e726284cc26c"),
    (("verify", "mcd", "--family", "example33:1", "4/5", "6/7"),
     0, 226, "5d3ef99ef324b28a899acdf9f8609290c0778aedb1de95a0681c4f6b169660cb"),
    (("verify", "example33", "--level", "1"),
     0, 262, "fa6e687c6f0c564d8f9125d92c84e5d3cdbec579d9b771e3adfd873e9920bf60"),
]


@pytest.mark.parametrize(
    "argv,code,size,sha256", CLI_GOLDENS, ids=[" ".join(g[0]) for g in CLI_GOLDENS],
)
def test_cli_golden_bytes(capsys, argv, code, size, sha256):
    got, out, _ = run_cli(capsys, *argv)
    data = out.encode()
    assert (got, len(data), hashlib.sha256(data).hexdigest()) == (code, size, sha256)


LENGTH_GOLDENS = [g for g in CLI_GOLDENS if g[0][0] == "lengths" or g[0][:2] == ("verify", "bfm")]


@pytest.mark.parametrize(
    "argv,code,size,sha256", LENGTH_GOLDENS, ids=[" ".join(g[0]) for g in LENGTH_GOLDENS],
)
def test_length_reports_build_no_factorization(capsys, monkeypatch, argv, code, size, sha256):
    """`lengths` and `verify bfm`, over elements and over sets, read the
    lengths and the cap flag off the search: their golden bytes come with
    no Factorization built."""
    from powmon.factorization import Factorization

    def refuse(*args, **kwargs):
        raise AssertionError(f"{' '.join(argv)} built a Factorization")

    monkeypatch.setattr(Factorization, "__init__", refuse)
    monkeypatch.setattr(Factorization, "_canonical", classmethod(refuse))
    test_cli_golden_bytes(capsys, argv, code, size, sha256)


def _command_paths(parser, prefix=()):
    """Every runnable command of the parser: ("atoms",), ("verify", "mcd"), ..."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return [prefix]
    return [
        path
        for name, sub in subparsers[0].choices.items()
        for path in _command_paths(sub, prefix + (name,))
    ]


def test_every_command_has_a_json_golden():
    """A command added later cannot skip the byte check."""
    paths = _command_paths(_build_parser())
    assert ("atoms",) in paths and ("verify", "mcd") in paths  # the walk reaches the leaves
    covered = [argv for argv, *_ in SET_LEVEL_GOLDENS + CLI_GOLDENS if "--json" in argv]
    missing = [path for path in paths if not any(argv[:len(path)] == path for argv in covered)]
    assert missing == []


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def test_report_json_digests():
    """Reports that no command prints on their own, recorded like CLI_GOLDENS."""
    assert _digest(geometric_chain(Fraction(2, 3), 4).to_json()) == (
        "9b7d8ce3df40907f6206f63b69a6a0f7a7d0beca2399ea2f28ea326a418a7a12"
    )
    assert _digest(verify_atoms_by_valuation(example33(1)).to_json()) == (
        "02c3092b354cb36a441792259fbf377f78cac42e466d4645e9c8755cdc60d6d5"
    )


@pytest.mark.parametrize("gens, max_card, bound, digest", [
    ((Fraction(1, 2), Fraction(1, 3)), 4, 4,
     "a351a185bbf066a71770c0bd8eb321daecde102161b341d29ed0103a5d74baaf"),
    ((2, 3), 4, 12, "47a08d617d427dec0d691c997fafa8a5118a866c302c9f788505fced045ed6af"),
    ((5, 7), 3, 20, "713e4e6430e0d511cea3c6f2a05700c33f904e26b5ffe9371424f59617f10d59"),
], ids=["half-third", "two-three", "five-seven"])
def test_atomicity_sweep_json_digests(gens, max_card, bound, digest):
    """Sweeps larger than the CLI goldens', recorded when the sweep still
    listed every factorization of each set."""
    report = atomicity_sweep(PuiseuxMonoid(gens), max_card, bound)
    assert _digest(report.to_json()) == digest


@pytest.mark.parametrize("argv", [
    ("decompose", "--monoid", "1", "--restricted", "{1,2,3}"),
    ("verify", "atomicity", "--monoid", "1", "--restricted"),
    ("atoms", "--monoid", "1", "--max-length", "1"),
    ("verify", "ffm", "--monoid", "1", "--max-length", "1", "{0,1}"),
    ("family", "geometric:2/3:2", "--monoid", "2,3"),
    ("verify", "example33", "--level", "0", "--monoid", "2,3"),
    ("minkowski", "{0,1}", "{0,2}", "--level", "3"),
    ("verify", "atomicity", "--monoid", "2,3", "--level", "5"),
    ("family", "geometric:2/3", "--level", "3"),
], ids=["decompose-restricted", "atomicity-restricted", "atoms-max-length", "ffm-max-length",
        "family-monoid", "example33-monoid", "minkowski-level", "atomicity-level",
        "family-level"])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


OPTION_TABLE = {
    # the flags each command accepts (--help aside): 69 option slots
    ("atoms",): ("--family", "--json", "--monoid"),
    ("member",): ("--family", "--json", "--monoid"),
    ("divisors",): ("--family", "--json", "--monoid"),
    ("factorize",): ("--family", "--json", "--max-length", "--monoid"),
    ("lengths",): ("--family", "--json", "--max-length", "--monoid"),
    ("mcd",): ("--family", "--json", "--monoid"),
    ("minkowski",): ("--family", "--json", "--monoid"),
    ("decompose",): ("--family", "--json", "--monoid"),
    ("is-atom",): ("--family", "--json", "--monoid", "--restricted"),
    ("factorize-set",): ("--family", "--json", "--max-length", "--monoid", "--restricted"),
    ("lengths-set",): ("--family", "--json", "--max-length", "--monoid", "--restricted"),
    ("divisor-closure",): ("--family", "--json", "--monoid"),
    ("family",): ("--json",),
    ("verify", "accp"): ("--depth", "--family", "--json", "--monoid", "--restricted", "--start"),
    ("verify", "bfm"): ("--cap", "--family", "--json", "--monoid", "--restricted"),
    ("verify", "ffm"): ("--family", "--json", "--monoid", "--restricted"),
    ("verify", "mcd"): ("--family", "--json", "--monoid"),
    ("verify", "atomicity"): ("--bound", "--family", "--json", "--max-card", "--monoid"),
    ("verify", "example33"): ("--json", "--level"),
}


def test_each_command_accepts_exactly_its_flags():
    """A flag added later to a shared parent parser fails here."""
    root = _build_parser()
    accepted = {}
    for path in _command_paths(root):
        parser = root
        for name in path:
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = action.choices[name]
        accepted[path] = tuple(sorted(
            flag for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings
        ))
    assert accepted == OPTION_TABLE
    assert sum(len(flags) for flags in accepted.values()) == 69


@pytest.mark.parametrize("argv", [
    ("family", "geometric:2/3:x"),
    ("atoms", "--family", "example33:two"),
    ("family", "example33"),
    ("family", "geometric:2/3"),
    # a level the label would not write back: not ASCII, or a leading zero
    ("family", "geometric:2/3:\u0663"),
    ("family", "geometric:2/3:01"),
    ("atoms", "--family", "example33:01"),
    # past the interpreter's limit on the digits int() reads
    ("family", "example33:" + "1" * 5000),
], ids=["geometric-level", "example33-level", "example33-no-level", "geometric-no-level",
        "geometric-level-not-ascii", "geometric-level-leading-zero",
        "example33-level-leading-zero", "example33-level-too-long"])
def test_malformed_family_specs_are_domain_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("verify", "accp", "--monoid", "2,3", "--start", "6", "--depth", "0"),
     "depth must be positive"),
    (("verify", "bfm", "--monoid", "2,3", "--cap", "0", "6"), "length cap must be positive"),
    (("verify", "atomicity", "--monoid", "2,3", "--max-card", "0"), "max_card must be positive"),
], ids=["accp-depth", "bfm-cap", "atomicity-max-card"])
def test_nonpositive_bounds_are_domain_errors(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["\u0663", "1_0"])  # Arabic-Indic three; 10 with a "_"
@pytest.mark.parametrize("argv", [
    ("verify", "example33", "--level"),
    ("verify", "accp", "--monoid", "2,3", "--start", "6", "--depth"),
    ("verify", "bfm", "--monoid", "2,3", "6", "--cap"),
    ("verify", "atomicity", "--monoid", "2,3", "--max-card"),
], ids=["example33-level", "accp-depth", "bfm-cap", "atomicity-max-card"])
def test_integer_options_take_ascii_digits_only(capsys, argv, value):
    """int() also reads other scripts' digits and "_" separators; every
    integer option takes the ASCII digits of --max-length."""
    code, out, err = run_cli(capsys, *argv, value)
    assert (code, out) == (2, "")
    assert f"argument {argv[-1]}: expected an integer of at least 0, got {value!r}" in err


@pytest.mark.parametrize("element", ["1_0", "+3", "\u0663"])
def test_non_ascii_digit_numbers_are_domain_errors(capsys, element):
    assert run_cli(capsys, "member", "--monoid", "1/2", element) == (
        1, "", f"error: not a rational: {element!r}\n")


def test_json_byte_identical_across_invocations(capsys):
    argv = ("lengths-set", "--monoid", "1", "--restricted", "--json", "{0,1,2,3,4,5}")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_max_length_marks_partial(capsys):
    code, out, _ = run_cli(
        capsys, "factorize-set", "--monoid", "1", "--restricted",
        "--max-length", "2", "--json", "{0,1,2,3}",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partial"] is True
    assert payload["lengths"] == [2]


@pytest.mark.parametrize("argv", [
    ("factorize-set", "--monoid", "1", "--restricted", "--max-length", "-1", "{0,1,2}"),
    ("factorize", "--monoid", "2,3", "--max-length", "-1", "6"),
    ("lengths-set", "--monoid", "1", "--max-length", "-3", "{0,1,2}"),
    ("lengths", "--monoid", "2,3", "--max-length", "two", "6"),
    ("lengths", "--monoid", "2,3", "--max-length", "\u0663", "6"),  # Arabic-Indic three
], ids=["factorize-set", "factorize", "lengths-set", "lengths-not-a-number",
        "lengths-not-ascii"])
def test_negative_max_length_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "argument --max-length: expected an integer of at least 0" in err


def test_max_length_zero_keeps_the_empty_factorization(capsys):
    argv = ("factorize-set", "--monoid", "1", "--restricted", "--max-length", "0", "--json")
    payload = json.loads(run_cli(capsys, *argv, "{0}")[1])
    assert (payload["factorizations"], payload["partial"]) == ([[]], False)
    assert run_cli(capsys, *argv[:-1], "{0,1}") == (0, "(partial: length cap hit)\n", "")


@pytest.mark.parametrize("argv, text", [
    (("lengths", "--monoid", "2,3", "--max-length", "1", "6"), "{}\n(partial: length cap hit)\n"),
    (("lengths-set", "--monoid", "1", "--restricted", "--max-length", "2", "{0,1,2,3,4,5}"),
     "{2}\n(partial: length cap hit)\n"),
    (("lengths", "--monoid", "3,10", "--max-length", "1", "10"), "{1}\n"),  # cuts nothing
], ids=["lengths-cut", "lengths-set-cut", "lengths-cap-cuts-nothing"])
def test_capped_length_sets_mark_the_cut_in_text(capsys, argv, text):
    assert run_cli(capsys, *argv) == (0, text, "")


def test_a_cap_that_cuts_no_factorization_is_no_cap_hit(capsys):
    """32 = 16 + 16 is the one factorization in <6, 11, 16>, so a length
    cap of 2 cuts nothing: no partial marker in `lengths` or `factorize`,
    text or JSON, and `verify bfm` passes with no cap hit."""
    monoid, cap = ("--monoid", "6,11,16"), ("--max-length", "2")
    assert run_cli(capsys, "lengths", *monoid, *cap, "32") == (0, "{2}\n", "")
    assert run_cli(capsys, "factorize", *monoid, *cap, "32") == (0, "16 + 16\n", "")
    for command in ("lengths", "factorize"):
        code, out, err = run_cli(capsys, command, *monoid, *cap, "--json", "32")
        assert (code, err) == (0, "") and json.loads(out)["partial"] is False
    code, out, err = run_cli(capsys, "verify", "bfm", *monoid, "--cap", "2", "32")
    assert (code, err) == (0, "") and "0 cap hits" in out and "CAP HIT" not in out
    code, out, err = run_cli(capsys, "verify", "bfm", *monoid, "--cap", "2", "--json", "32")
    payload = json.loads(out)
    assert (code, err, payload["passed"], payload["certificates"][0]["cap_hit"]) == (
        0, "", True, False)


def test_module_entry_point_subprocess(capsys):
    """`python -m powmon` exits 0 and writes byte for byte what `cli.main`
    writes."""
    stdout = []
    for argv in (["mcd", "--monoid", "2,3", "4", "6"],
                 ["factorize", "--monoid", "2,3", "6", "--json"]):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "powmon", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout == run_cli(capsys, *argv)[1], argv
        stdout.append(proc.stdout)
    assert stdout[0] == "4\n"
    assert json.loads(stdout[1])["lengths"] == [2, 3]


def test_only_verify_imports_the_laboratory():
    """`python -m powmon factorize-set ...` answers without importing
    `powmon.laboratory`, which only `verify` runs; `-X importtime` lists
    every module the child imports."""
    imported = {}
    for argv in (["factorize-set", "--monoid", "1", "--restricted", "{0,1,2,3}"],
                 ["verify", "atomicity", "--monoid", "2,3", "--max-card", "1", "--bound", "4"]):
        proc = subprocess.run(
            [sys.executable, "-B", "-X", "importtime", "-m", "powmon", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        imported[argv[0]] = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "powmon.decompose" in imported["factorize-set"]
    assert "powmon.laboratory" not in imported["factorize-set"]
    assert "powmon.laboratory" in imported["verify"]


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_a_closed_stdout_ends_the_command_quietly(capsys, flags):
    """`factorize-set ... | head -3`: once the reader has its lines and
    closes the pipe, the command exits 1 and writes nothing on stderr."""
    argv = ["factorize-set", "--monoid", "1", "--restricted", *flags,
            "{" + ",".join(map(str, range(13))) + "}"]
    proc = subprocess.Popen(
        [sys.executable, "-B", "-m", "powmon", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    try:
        head = [proc.stdout.readline().decode() for _ in range(3)]
        proc.stdout.close()  # the output is past a pipe buffer, so the child is still writing
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")
    assert head == run_cli(capsys, *argv)[1].splitlines(keepends=True)[:3]


@pytest.mark.parametrize("argv, text", [
    (("--monoid", "1", "40"), "40*1\n"),  # past 32 atoms, counts are compacted
    (("--monoid", "2,3", "0"), "(empty)\n"),
    (("--monoid", "3,10", "--max-length", "1", "10"), "10\n"),  # the cap cuts nothing
], ids=["compact", "empty", "cap-cuts-nothing"])
def test_factorize_renders_compact_and_empty_factorizations(capsys, argv, text):
    assert run_cli(capsys, "factorize", *argv) == (0, text, "")
