"""CLI behavior: golden outputs, stable JSON, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from powmon.cli import main

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


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "powmon", "mcd", "--monoid", "2,3", "4", "6"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"
