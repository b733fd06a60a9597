"""One child process of the benchmark.

Reads a job as JSON on stdin, runs it and prints one JSON record as the
last line of stdout.  Jobs:

  {"kind": "ops", "workload": w, "ops": [...], "warm": [...], "trace": b, "seed": n}
      time the reference work (reported as reference_s), import powmon and
      build the workload's inputs (timed as setup), then run each op once;
      an op listed in "warm" is repeated at once on the same engine.
      Outputs are checked after the timed region.
  {"kind": "setup", "workload": w}
      import powmon and build the inputs only: one more setup_s sample.
  {"kind": "cli", "workload": w, "argv": [...]}
      traced runs only: `powmon.cli.main(argv)` in process, stdout captured.
  {"kind": "probe", "level": n}
      build example33(n); the parent kills it at its deadline.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time

import reference
import workloads


def _engines(mods) -> dict:
    out = {}
    for monoid, engine in mods.decompose._ENGINES.items():
        out[str(monoid)] = {
            "universe_bits": engine.built,
            "backend": mods.backend_name(engine.built),
            "memo_entries": len(engine._factor_memo) + len(engine._atom_memo),
        }
    return out


def _layers(tracer) -> dict:
    if tracer is None:
        return {}
    return {"self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}


def _run_ops(job: dict, workload, mods, inputs, tracer, setup_s: float) -> dict:
    expected = workloads.load_expected()
    warm = set(job["warm"])
    clock = time.perf_counter
    timings: list[list] = []
    results: dict = {}
    root = tracer.span("trace.unattributed_s", workload.run) if tracer else workload.run
    failed = []
    for op in job["ops"]:
        for phase in ("cold", "warm") if op in warm else ("cold",):
            start = clock()
            try:
                result = root(mods, inputs, op)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                print(f"{op} ({phase}) raised {exc!r}", file=sys.stderr)
                failed.append(op)
                continue
            timings.append([op, phase, clock() - start])
            results.setdefault(op, []).append(result)

    # engine and tracer state of the timed region only: the checks below
    # call into the library too
    engines = _engines(mods)
    layers = _layers(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_start = clock()
    output_bytes = 0
    for op, outs in results.items():
        want = workloads.expected_digest(expected, workload.name, op)
        for result in outs:
            canonical = workload.canonical(op, result)
            output_bytes += len(json.dumps(canonical, sort_keys=True, separators=(",", ":")))
            if not (want and workloads.digest(canonical).startswith(want)
                    and workload.known_ok(op, result)):
                failed.append(op)
    rng = random.Random(job["seed"])
    oracle_ok = workload.oracle_ok(mods, inputs, {op: outs[0] for op, outs in results.items()}, rng)
    return {
        "setup_s": setup_s,
        "timings": timings,
        "attempted": sum(2 if op in warm else 1 for op in job["ops"]),
        "failed": failed,
        "oracle_ok": oracle_ok,
        "output_bytes": output_bytes,
        "engines": engines,
        "peak_rss_mb": peak_rss_mb,
        "check_s": clock() - check_start,
        **layers,
    }


def _run_cli(job: dict, mods) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(list(job["argv"]))
    elapsed = time.perf_counter() - start
    return workloads.cli_record(job["workload"], code, out.getvalue().encode(), elapsed)


def main() -> int:
    job = json.loads(sys.stdin.read())
    if job["kind"] == "probe":
        mods = workloads.import_powmon()
        try:
            mods.puiseux.example33(job["level"])
        except mods.powmon.MonoidError as exc:
            print(json.dumps({"outcome": "refused", "error": str(exc)}))
        else:
            print(json.dumps({"outcome": "finished"}))
        return 0

    workload = workloads.WORKLOADS[job["workload"]]
    reference_s = reference.sample() if job["kind"] == "ops" else []
    start = time.perf_counter()
    mods = workloads.import_powmon()
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if job["kind"] == "cli":
        record = {**_run_cli(job, mods), **_layers(tracer)}
    else:
        build = tracer.span("trace.unattributed_s", workload.build) if tracer else workload.build
        inputs = build(mods)
        setup_s = time.perf_counter() - start
        if job["kind"] == "setup":
            record = {"setup_s": setup_s}
        else:
            record = {**_run_ops(job, workload, mods, inputs, tracer, setup_s),
                      "reference_s": reference_s}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
