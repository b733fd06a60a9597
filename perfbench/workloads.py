"""The benchmark's workloads: inputs, operations, canonical outputs and checks.

Each workload is a fixed list of operations on powmon.  The seed only
permutes their order; every operation's output is the same under every
seed, and is checked against a digest of its canonical JSON recorded in
`expected.json` (regenerate with `python3 perfbench/record.py`).  Why each
workload exists, and which layers it stresses or leaves alone, is written
down in `perfbench/README.md`.

This module never imports powmon at module level: the orchestrator
(`run.py`) imports it only to plan passes, and the worker (`worker.py`)
calls `import_powmon` inside its timed set-up, so the import counts in
`setup_s`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Corpus digests are stored as one hex string per operation kind, this many
# characters per subset, so the 2,048 expectations stay a small file.
CORPUS_DIGEST_CHARS = 8


def digest(obj) -> str:
    """sha256 of an object's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    """The environment of every child: this checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_oracles():
    """The repository's brute-force oracles, loaded read-only from tests/."""
    spec = importlib.util.spec_from_file_location("powmon_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_powmon() -> SimpleNamespace:
    """Import the library's modules from this checkout's src/."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import powmon
    from powmon import cli, decompose, laboratory, puiseux
    from powmon._kernels import backend_name

    origin = Path(powmon.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"powmon imported from {origin}, not from this checkout's src/")
    return SimpleNamespace(
        powmon=powmon, cli=cli, decompose=decompose, laboratory=laboratory,
        puiseux=puiseux, backend_name=backend_name,
    )


def set_text(elements) -> str:
    return "{" + ",".join(str(e) for e in elements) + "}"


def factorizations_json(enum) -> dict:
    """The canonical form of a set-level enumeration, as the CLI renders it."""
    return {
        "factorizations": [[part.to_json() for part in z.expand()] for z in enum.items],
        "partial": not enum.exhaustive,
    }


def _masks(enum) -> set[tuple[int, ...]]:
    """Factorizations over <1> as sorted tuples of integer bitmasks."""
    return {
        tuple(sorted(sum(1 << int(e) for e in part) for part in z.expand()))
        for z in enum.items
    }


def _recombines(enum, b, sample: list[int]) -> bool:
    return all(enum.items[i].total() == b for i in sample)


class Workload:
    name = ""
    query = ""  # the op whose cold and warm calls give cold_query_s, warm_query_s
    cli: tuple[str, ...] = ()  # arguments of the workload's `python -m powmon` op
    probe_level: int | None = None  # example33 level of a known-failure probe

    def build(self, mods) -> SimpleNamespace:
        """Inputs and ambients, built before the first timed op."""
        raise NotImplementedError

    def run(self, mods, inputs, op: str):
        raise NotImplementedError

    def canonical(self, op: str, result):
        """JSON-able form of an op's output; its digest is what is checked."""
        raise NotImplementedError

    def known_ok(self, op: str, result) -> bool:
        """Checks that hold whatever the recorded digests say."""
        return True

    def oracle_ok(self, mods, inputs, results: dict, rng: random.Random) -> bool:
        """Outside the timed region: compare outputs against tests/oracles.py."""
        return True

    def all_ops(self) -> list[str]:
        """Every op once, in canonical order (for recording)."""
        raise NotImplementedError

    def jobs(self, rng: random.Random) -> list[tuple[str, object]]:
        """One pass: ("worker", job) and ("cli", argv) steps, in run order."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class IntervalRestricted(Workload):
    name = "interval-restricted"
    # {0..14} (12,374 factorizations) takes 6 s a call, so a run would hold
    # two samples of it; {0..11} keeps the shape of the work (the warm call
    # is half the cold one) at a size a run holds fifteen passes of
    query = "factorize:11"
    cli = ("factorize-set", "--monoid", "1", "--restricted", "--json", set_text(range(12)))
    sizes = (10, 11)
    known_counts = {10: 424, 11: 986}

    def build(self, mods):
        powmon = mods.powmon
        return SimpleNamespace(
            ambient=powmon.PuiseuxMonoid([1]),
            sets={n: powmon.FinSet(range(n + 1)) for n in self.sizes},
        )

    def run(self, mods, inputs, op):
        n = int(op.partition(":")[2])
        return mods.decompose.set_factorizations(inputs.sets[n], inputs.ambient, restricted=True)

    def canonical(self, op, result):
        return factorizations_json(result)

    def known_ok(self, op, result):
        n = int(op.partition(":")[2])
        return len(result) == self.known_counts[n] and result.exhaustive

    def oracle_ok(self, mods, inputs, results, rng):
        oracles = load_oracles()
        ok = True
        for op, enum in results.items():
            n = int(op.partition(":")[2])
            full = (1 << (n + 1)) - 1
            ok = ok and _masks(enum) == oracles.oracle_restricted_factorizations(full, n)
            sample = rng.sample(range(len(enum)), 32)
            ok = ok and _recombines(enum, inputs.sets[n], sample)
        return ok

    def all_ops(self):
        return [f"factorize:{n}" for n in self.sizes]

    def jobs(self, rng):
        steps: list[tuple[str, object]] = [
            ("worker", {"ops": [f"factorize:{n}"], "warm": [f"factorize:{n}"]})
            for n in self.sizes
        ]
        steps.append(("cli", list(self.cli)))
        rng.shuffle(steps)
        return steps


# ---------------------------------------------------------------------------


class CorpusSweep(Workload):
    name = "corpus-sweep"
    query = "atomicity_sweep"
    cli = ("verify", "atomicity", "--monoid", "1/2,1/3", "--max-card", "3", "--bound", "4", "--json")
    # the subsets of [0,10]: with [0,12] (4,096 subsets) one pass takes 5 to
    # 9 s, too few passes in one run for steady medians
    top = 10
    known_atoms = 645
    known_checked = 2324

    def build(self, mods):
        powmon = mods.powmon
        return SimpleNamespace(
            ambient=powmon.PuiseuxMonoid([1]),
            sweep_ambient=powmon.PuiseuxMonoid([Fraction(1, 2), Fraction(1, 3)]),
            subsets=[
                powmon.FinSet([0] + [i + 1 for i in range(self.top) if rest >> i & 1])
                for rest in range(1 << self.top)
            ],
        )

    def run(self, mods, inputs, op):
        kind, _, index = op.partition(":")
        if kind == "atomicity_sweep":
            return mods.laboratory.atomicity_sweep(inputs.sweep_ambient, 3, 4)
        b = inputs.subsets[int(index)]
        if kind == "is_atom":
            return mods.decompose.is_atom(b, inputs.ambient, restricted=True)
        return mods.decompose.set_length_set(b, inputs.ambient, restricted=True)

    def canonical(self, op, result):
        return sorted(result) if op.startswith("lengths:") else result.to_json()

    def known_ok(self, op, result):
        if op == "atomicity_sweep":
            return result.passed and result.checked == self.known_checked
        return True

    def oracle_ok(self, mods, inputs, results, rng):
        if set(results) == {self.query}:
            return True  # the sweep alone: its digest and known counts are checked
        oracles = load_oracles()
        atoms = 0
        ok = True
        for op, result in results.items():
            if op.startswith("is_atom:"):
                mask = (int(op.partition(":")[2]) << 1) | 1
                atoms += result.is_atom
                ok = ok and result.is_atom == oracles.oracle_is_atom_restricted(mask, self.top)
        ok = ok and atoms == self.known_atoms
        for rest in rng.sample(range(1 << self.top), 64):
            b = inputs.subsets[rest]
            enum = mods.decompose.set_factorizations(b, inputs.ambient, restricted=True)
            expected = oracles.oracle_restricted_factorizations((rest << 1) | 1, self.top)
            lengths = results.get(f"lengths:{rest}")
            ok = (ok and _masks(enum) == expected
                  and (lengths is None or lengths == {len(z) for z in expected}))
        return ok

    def all_ops(self):
        rests = range(1 << self.top)
        return [f"is_atom:{r}" for r in rests] + [f"lengths:{r}" for r in rests] + [self.query]

    def jobs(self, rng):
        order = list(range(1 << self.top))
        rng.shuffle(order)
        # smaller sets first, the seed ordering each size: a large set then
        # always meets a memo that holds its parts, so the slowest ops, and
        # op_tail_ms, do not hang on where the seed happened to put them
        order.sort(key=lambda rest: bin(rest).count("1"))
        ops = [op for rest in order for op in (f"is_atom:{rest}", f"lengths:{rest}")]
        # the sweep has its own ambient, so its own engine; in processes of
        # its own its cold call does not depend on the heap the corpus half
        # leaves.  Two of them per pass double its samples.
        sweep = ("worker", {"ops": [self.query], "warm": [self.query]})
        steps: list[tuple[str, object]] = [
            ("worker", {"ops": ops, "warm": []}),
            sweep,
            sweep,
            ("cli", list(self.cli)),
        ]
        rng.shuffle(steps)
        return steps


# ---------------------------------------------------------------------------


class Families(Workload):
    name = "families"
    # the query and the CLI op avoid the Apery build: its cache-heavy table
    # makes it the op most slowed by other load on a shared host, and it
    # already runs in set-up and in accp_geometric
    query = "mcd_probe"
    cli = ("verify", "mcd", "--family", "example33:3", "4/5", "6/7", "--json")
    ops = ("accp_geometric", "example33_suite:2", "example33_suite:3", "mcd_probe", "non_2mcd_witness")
    # example33(4) does not finish: its primes pass the deterministic
    # Miller-Rabin bound and is_prime falls back to trial division.  The
    # probe runs it in its own process under this deadline.
    probe_level = 4
    probe_deadline_s = 3.0

    def build(self, mods):
        puiseux = mods.puiseux
        return SimpleNamespace(
            geometric=puiseux.geometric(Fraction(2, 3), 17),
            example33=puiseux.example33(3),
        )

    def run(self, mods, inputs, op):
        lab = mods.laboratory
        if op == "accp_geometric":
            return lab.accp_chain_search(inputs.geometric, 2, 17)
        if op.startswith("example33_suite:"):
            return lab.example33_suite(int(op.partition(":")[2]))
        if op == "mcd_probe":
            return lab.mcd_probe(inputs.example33, (Fraction(4, 5), Fraction(6, 7)))
        return lab.non_2mcd_witness([0, 1, 2, 3])

    def canonical(self, op, result):
        return result.to_json()

    def known_ok(self, op, result):
        return result.passed

    def all_ops(self):
        return list(self.ops)

    def jobs(self, rng):
        ops = list(self.ops)
        rng.shuffle(ops)
        steps: list[tuple[str, object]] = [
            ("worker", {"ops": ops, "warm": [self.query]}),
            ("cli", list(self.cli)),
        ]
        rng.shuffle(steps)
        return steps


WORKLOADS = {w.name: w for w in (IntervalRestricted(), CorpusSweep(), Families())}


def expected_digest(expected: dict, workload: str, op: str) -> str:
    """The recorded digest of an op (a prefix for the corpus kinds)."""
    table = expected[workload]
    kind, _, index = op.partition(":")
    if workload == CorpusSweep.name and kind in ("is_atom", "lengths"):
        start = int(index) * CORPUS_DIGEST_CHARS
        return table[kind][start:start + CORPUS_DIGEST_CHARS]
    return table[op]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def cli_record(workload: str, code: int, stdout: bytes, elapsed: float) -> dict:
    """The record of a CLI op: exit 0 and stdout bytes equal to the recorded ones."""
    ok = code == 0 and digest_bytes(stdout) == load_expected()[workload]["cli"]
    return {"timings": [["cli", "cold", elapsed]], "attempted": 1,
            "failed": [] if ok else ["cli"], "oracle_ok": True,
            "output_bytes": len(stdout), "check_s": 0.0}
