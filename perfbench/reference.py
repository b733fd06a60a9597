"""Reference work that calibrates the benchmark's times to the host's speed.

The benchmark runs on a shared host whose speed drifts as neighbours load
it.  Every worker process that runs ops times `reference_work()` a few
times before it imports powmon; the orchestrator scales every time taken
in a pass by REFERENCE_S over the median of the pass's samples (see
perfbench/README.md).  The work is fixed pure Python of the kinds powmon
spends its time on, and never calls powmon, so no change to the library
moves it.  Sampling it in every worker, rather than in one long-lived
process, averages out the cache layout a single process happens to get.
"""

from __future__ import annotations

import time

# the median of sample() in a worker on an idle 2-vCPU Xeon VM with Python
# 3.11; a fixed constant, so calibrated values from different runs compare
REFERENCE_S = 0.02
CALLS_PER_WORKER = 6

TABLE_BITS = 19


def reference_work(table: bytes) -> int:
    acc = 0
    for m in range(1, 12000):  # bitmask arithmetic, as in the pair search
        acc ^= (m & (m >> 1)) | ((m << 3) & 0xFFFF)
    for rounds in range(6):  # tuple keys and frozensets, as in the engine memo
        memo = {}
        for i in range(2000):
            memo[(i * 7919 + rounds) % 65521, i & 7] = frozenset((i, i >> 1, i >> 2))
        acc += len(sorted(memo, key=lambda k: (k[1], k[0])))
    index, mask = 1, len(table) - 1
    for _ in range(30000):  # scattered reads over a table, as in an Apery walk
        index = (index * 1103515245 + 12345) & mask
        acc += table[index]
    return acc


def sample(calls: int = CALLS_PER_WORKER) -> list[float]:
    """Seconds of each of `calls` calls of reference_work().  The table
    and every object built are freed before this returns, so it never adds to a worker's
    peak RSS."""
    table = bytes(range(256)) * (1 << (TABLE_BITS - 8))
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference_work(table)
        times.append(time.perf_counter() - start)
    return times
