"""The benchmark's worker still runs against the library.

`perfbench/worker.py` and `perfbench/tracing.py` read library internals
(`_kernels.backend_name`, `_kernels._masks_c`, the `_Engine` methods they
wrap, `_factor_memo`, ...).  One traced op per workload, in a child
process exactly as the benchmark starts it, fails here when a change
breaks one of those seams.  Nothing under perfbench/ is written: the child
runs with -B, so it leaves no bytecode there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload, op, searches", [
    ("corpus-sweep", "atomicity_sweep", True),
    ("interval-restricted", "factorize:10", True),
    ("families", "non_2mcd_witness", False),
])
def test_a_traced_worker_op_passes_its_checks(workload, op, searches):
    job = {"kind": "ops", "workload": workload, "ops": [op], "warm": [],
           "trace": True, "seed": 0}
    done = subprocess.run([sys.executable, "-B", str(WORKER)], input=json.dumps(job),
                          capture_output=True, text=True, timeout=8)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["failed"] == [] and record["oracle_ok"], done.stderr
    if searches:
        assert record["counts"]["kernels.pair_search_calls"] > 0
    else:
        # membership and atoms run on the solver, which the tracer sees, and
        # the families build no Apery table
        assert record["counts"]["puiseux.repr_search_calls"] > 0
        assert "numerical.apery_builds" not in record["counts"]
