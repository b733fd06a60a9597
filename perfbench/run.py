"""powmon benchmark: one workload, end-to-end metrics or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark runs the library in src/ as
committed, with whatever kernel `powmon._kernels.kernel_for` picks (it
records the backend, it never builds or forces one).  Load is one client in
a closed loop: each op is a library call in a worker process, or a
`python -m powmon` child, started only after the previous one returned; at
most one child runs at a time.

A pass is one full run over the workload's ops in an order drawn from the
seed.  Passes repeat while the longest pass so far would still end within
--seconds (at least one pass).  Every worker first times a fixed piece of
pure-Python reference work (perfbench/reference.py); every time in a pass
is scaled by REFERENCE_S over the pass's median reference time, so it reads
in seconds of a host on which that work takes REFERENCE_S, and a shared
host that runs slower for a while does not read as a slower program.  The
uncalibrated values and the median scale are printed on the `raw` and
`labels` lines.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 one untraced pass (the base of trace.overhead_ratio) is followed
by traced passes and the line carries the per-layer metrics.  Metric names
and units are those of BENCHMARK.json.  Earlier lines give every metric by
name and unit, `ops_failed_ratio`, probe outcomes and run metadata.  See
perfbench/README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from reference import REFERENCE_S

ROOT = workloads.ROOT
WORKER = Path(__file__).resolve().parent / "worker.py"
JOB_DEADLINE_S = 90.0  # a child that passes this is killed and its ops fail
RUN_LIMIT_S = 165.0  # no child outlives this point of the run, so the run ends in time
MIN_SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it

class Runner:
    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = workloads.child_env()
        self.end = time.perf_counter() + RUN_LIMIT_S
        self.reference: list[float] = []  # seconds of each reference_work() call

    def _deadline(self, deadline: float) -> float:
        return max(0.1, min(deadline, self.end - time.perf_counter()))

    def worker(self, job: dict, deadline: float = JOB_DEADLINE_S) -> dict | None:
        """Run one worker job; None when it crashed or passed its deadline."""
        job = {"workload": self.workload.name, "seed": self.seed, **job}
        deadline = self._deadline(deadline)
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)], input=json.dumps(job), capture_output=True,
                text=True, env=self.env, cwd=ROOT, timeout=deadline,
            )
        except subprocess.TimeoutExpired:
            print(f"job {job['kind']} passed its {deadline:.0f} s deadline", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"job {job['kind']} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli(self, argv: list[str]) -> dict | None:
        """The workload's CLI op as a child process, interpreter start
        included.  The child is reaped with wait4 for its own peak RSS."""
        start = time.perf_counter()
        deadline = start + self._deadline(JOB_DEADLINE_S)
        proc = subprocess.Popen([sys.executable, "-m", "powmon", *argv],
                                stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        chunks = []
        with proc.stdout:
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                    proc.kill()
                    proc.wait()
                    return None
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = workloads.cli_record(self.workload.name, proc.returncode, b"".join(chunks),
                                      time.perf_counter() - start)
        return {**record, "peak_rss_mb": usage.ru_maxrss / 1024}

    def run_pass(self, rng: random.Random, trace: bool) -> dict:
        """One pass; wall_s excludes the output checks and the reference
        work the workers report."""
        records = []
        start = time.perf_counter()
        for kind, step in self.workload.jobs(rng):
            if kind == "cli":
                record = (self.worker({"kind": "cli", "argv": step, "trace": True})
                          if trace else self.cli(step))
                planned = 1
            else:
                record = self.worker({"kind": "ops", "trace": trace, **step})
                planned = len(step["ops"]) + len(step["warm"])
            if record is None:
                record = {"timings": [], "attempted": planned, "failed": ["crashed"] * planned,
                          "oracle_ok": False, "output_bytes": 0, "check_s": 0.0}
            records.append(record)
        reference = [t for r in records for t in r.get("reference_s", [])]
        self.reference.extend(reference)
        elapsed = time.perf_counter() - start
        wall = elapsed - sum(r["check_s"] for r in records) - sum(reference)
        # REFERENCE_S over the pass's median reference time (1 without samples)
        scale = REFERENCE_S / statistics.median(reference) if reference else 1.0
        return {"wall_s": wall, "elapsed_s": elapsed, "scale": scale, "records": records}


def calibrated(p: dict) -> dict:
    """Pass p with every time it holds scaled by the pass's own scale."""
    scale = p["scale"]
    records = [{
        **r,
        "timings": [[op, phase, t * scale] for op, phase, t in r["timings"]],
        "self_s": {name: t * scale for name, t in r.get("self_s", {}).items()},
        **({"setup_s": r["setup_s"] * scale} if "setup_s" in r else {}),
    } for r in p["records"]]
    return {**p, "wall_s": p["wall_s"] * scale, "records": records}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are not that many samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    index = n - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / n, ordered[index]


def end_to_end(workload, passes: list[dict], setup_samples: list[float]) -> tuple[dict, dict]:
    """Medians over the passes.  The tail is taken within each pass, whose op
    count is fixed, so its percentile does not depend on how many passes fit
    into --seconds."""
    timings = [[t for r in p["records"] for t in r["timings"]] for p in passes]
    latencies = [t[2] for pass_timings in timings for t in pass_timings]
    ops_per_pass = sum(r["attempted"] for r in passes[0]["records"])
    wall = _median([p["wall_s"] for p in passes])

    def median_of(op: str, phase: str = "cold") -> float:
        return _median([t[2] for pt in timings for t in pt if t[0] == op and t[1] == phase])

    tails = [_tail([t[2] for t in pt]) for pt in timings if pt]
    values = {
        "setup_s": _median(setup_samples),
        "wall_s": wall,
        "throughput_ops_s": ops_per_pass / wall,
        "op_p50_ms": 1e3 * _median(latencies),
        "op_tail_ms": 1e3 * _median([value for _, value in tails]),
        "cold_query_s": median_of(workload.query),
        "warm_query_s": median_of(workload.query, "warm"),
        "cli_json_s": median_of("cli"),
        "peak_rss_mb": _median([max(r.get("peak_rss_mb", 0.0) for r in p["records"])
                                for p in passes]),
    }
    labels = {
        "op_tail_percentile": round(tails[0][0], 3) if tails else None,
        "op_samples_per_pass": len(timings[0]),
        "op_samples": len(latencies),
        "setup_samples": len(setup_samples),
        "passes": len(passes),
    }
    return values, labels


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    """Medians over the traced passes.  The workers report self times and
    counts under their metric names; the ratios are derived here."""
    per_pass = []
    for p in traced:
        self_s: Counter[str] = Counter()
        counts: Counter[str] = Counter()
        memo_entries = cli_bytes = 0
        for r in p["records"]:
            self_s.update(r.get("self_s", {}))
            counts.update(r.get("counts", {}))
            memo_entries += sum(e["memo_entries"] for e in r.get("engines", {}).values())
            if any(t[0] == "cli" for t in r["timings"]):
                cli_bytes += r["output_bytes"]
        layer_sum = sum(self_s.values())
        if layer_sum > p["wall_s"]:
            raise RuntimeError(f"layer self times {layer_sum:.3f} s exceed the pass "
                               f"wall {p['wall_s']:.3f} s: a span is double counted")
        calls = counts["kernels.pair_search_calls"]
        engine_calls = counts["decompose.factorizations_calls"] + counts["decompose.is_atom_calls"]
        per_pass.append({
            **self_s,
            **counts,
            "kernels.pair_search_yield":
                counts["kernels.pair_search_nonempty"] / calls if calls else 0.0,
            "decompose.memo_entries": memo_entries,
            "decompose.memo_hit_ratio": 1 - memo_entries / engine_calls if engine_calls else 0.0,
            "cli.output_bytes": cli_bytes,
            "trace.layer_self_sum_s": layer_sum,
            "trace.overhead_ratio": p["wall_s"] / untraced["wall_s"],
        })
    return {name: _median([values.get(name, 0) for values in per_pass])
            for name in {key for values in per_pass for key in values}}


def probe(runner: Runner, workload) -> dict:
    """The known example33 hang, in its own process under a fixed deadline."""
    level, deadline = workload.probe_level, workload.probe_deadline_s
    record = runner.worker({"kind": "probe", "level": level}, deadline=deadline)
    outcome = "no result (deadline passed or crashed)" if record is None else record["outcome"]
    return {"op": f"example33({level})", "deadline_s": deadline, "outcome": outcome,
            "failed": record is None}


def metadata(runner: Runner, passes: list[dict]) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "powmon").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c"):
            src.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                  cwd=ROOT)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    engines: dict = {}  # per ambient: the largest universe any worker built, and its backend
    for p in passes:
        for r in p["records"]:
            for name, e in r.get("engines", {}).items():
                if e["universe_bits"] >= engines.get(name, {}).get("universe_bits", 0):
                    engines[name] = {"universe_bits": e["universe_bits"], "backend": e["backend"]}
    return {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "engines": engines,
        "output_bytes_per_pass": sum(r["output_bytes"] for r in passes[0]["records"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="powmon benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "powmon" / "__init__.py", ROOT / "tests" / "oracles.py",
                   ROOT / "BENCHMARK.json", workloads.EXPECTED_PATH):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a powmon checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    rng = random.Random(args.seed)
    start = time.perf_counter()

    def next_pass_fits(passes: list[dict]) -> bool:
        longest = max(p["elapsed_s"] for p in passes)
        return time.perf_counter() - start + longest <= args.seconds

    untraced = [runner.run_pass(rng, trace=False)]
    traced: list[dict] = []
    if args.trace:
        traced.append(runner.run_pass(rng, trace=True))
        while next_pass_fits(traced):
            traced.append(runner.run_pass(rng, trace=True))
    else:
        while next_pass_fits(untraced):
            untraced.append(runner.run_pass(rng, trace=False))

    passes = untraced + traced
    records = [r for p in passes for r in p["records"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failed"]) for r in records)
    correct = failed == 0 and all(r["oracle_ok"] for r in records)

    lines = [f"workload {workload.name}, seed {args.seed}: {len(untraced)} untraced and "
             f"{len(traced)} traced passes, {attempted} ops, {failed} failed"]
    if args.trace:
        values = per_layer(calibrated(untraced[0]), [calibrated(p) for p in traced])
        metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    else:
        scale = _median([p["scale"] for p in untraced])
        raw_setup = [r["setup_s"] for r in records if "setup_s" in r]
        setup = [r["setup_s"] for p in untraced for r in calibrated(p)["records"]
                 if "setup_s" in r]
        while len(setup) < MIN_SETUP_SAMPLES:  # set-up-only children take the run's scale
            record = runner.worker({"kind": "setup"})
            if record is None:
                correct = False
                break
            raw_setup.append(record["setup_s"])
            setup.append(record["setup_s"] * scale)
        values, labels = end_to_end(workload, [calibrated(p) for p in untraced], setup)
        raw, _ = end_to_end(workload, untraced, raw_setup)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        labels["reference_s"] = round(_median(runner.reference), 6)
        labels["reference_samples"] = len(runner.reference)
        labels["scale"] = round(scale, 6)
        lines.append("raw " + " ".join(f"{m['name']}={raw[m['name']]:.6g}"
                                       for m in spec["end_to_end"]))
        probes = [probe(runner, workload)] if workload.probe_level is not None else []
        probe_failed = sum(p["failed"] for p in probes)
        ratio = (failed + probe_failed) / (attempted + len(probes))
        lines.append(f"ops_failed_ratio = {ratio:.6g} ({failed} of {attempted} ops, "
                     f"{probe_failed} of {len(probes)} known-failure probes)")
        for p in probes:
            lines.append(f"probe {p['op']}: {p['outcome']} (deadline {p['deadline_s']} s)")
        lines.append("labels " + json.dumps(labels, sort_keys=True))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append("meta " + json.dumps(metadata(runner, passes), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
