"""Record the expected output digests of every benchmark op.

    python3 perfbench/record.py

Runs each op once, in canonical order, on the library in src/ and writes
perfbench/expected.json.  Run it only when an output is meant to change;
the benchmark counts any other difference as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads


def main() -> int:
    mods = workloads.import_powmon()
    expected = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.build(mods)
        table: dict[str, str] = {}
        for op in workload.all_ops():
            result = workload.run(mods, inputs, op)
            if not workload.known_ok(op, result):
                raise SystemExit(f"{name} {op}: known check failed; not recording")
            kind, _, index = op.partition(":")
            full = workloads.digest(workload.canonical(op, result))
            if name == workloads.CorpusSweep.name and kind in ("is_atom", "lengths"):
                table[kind] = table.get(kind, "") + full[:workloads.CORPUS_DIGEST_CHARS]
            else:
                table[op] = full
        proc = subprocess.run([sys.executable, "-m", "powmon", *workload.cli],
                              capture_output=True, check=True, env=workloads.child_env())
        table["cli"] = workloads.digest_bytes(proc.stdout)
        expected[name] = table
        print(f"{name}: {len(table)} entries", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
