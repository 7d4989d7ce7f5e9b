"""The paper-sweep engine, in a process of its own.

``python -m perfbench.sweep_proc <work dir>`` imports the reproduction,
builds a two-job engine and answers one single-cell sweep (its set-up),
prints ``{"ready": ...}``, then obeys commands on stdin:

* ``sweep <seconds> <seed>`` — run the Figure 5 PHT sweep (all SPEC2000
  benchmarks × :data:`PHT_SIZES`) back to back, each with a fresh result
  cache, until ``seconds`` have passed; answer every sweep's wall time,
  CPU time (engine process, pool workers), cell times, payload digest
  and peak RSS;
* ``stop`` (or end of input, or SIGTERM) — exit.

The seed orders the benchmarks as they are handed to the engine; the
sweep's result must not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time
from random import Random
from typing import Dict, List, Tuple

from repro.analysis.sweeps import sweep_pht_entries
from repro.exec.cache import ResultCache
from repro.exec.engine import make_engine
from repro.exec.progress import CellEvent
from repro.exec.results import SweepResult
from repro.workloads.spec2000 import benchmark_names

from perfbench.common import exit_on_sigterm, vm_hwm_mb

#: Figure 5's PHT capacities.
PHT_SIZES = (1, 64, 128, 1024)

#: Intervals per cell (Figure 5's series length).
N_INTERVALS = 1000

#: Engine worker processes.
JOBS = 2


def payload_digest(result: SweepResult) -> str:
    """SHA-256 of the sweep's comparable payload, in canonical cell order."""
    payload = result.to_payload()
    payload.pop("provenance", None)
    payload["cells"] = sorted(payload["cells"], key=lambda cell: json.dumps(cell["key"]))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Recorder:
    """Progress hook: cell times and the engine processes' peak RSS."""

    def __init__(self) -> None:
        self.cell_seconds: List[float] = []
        self.worker_hwm: Dict[int, float] = {}

    def __call__(self, event: CellEvent) -> None:
        self.cell_seconds.append(event.seconds)
        for child in multiprocessing.active_children():
            self.worker_hwm[child.pid] = vm_hwm_mb([child.pid])


def _cpu_s() -> Tuple[float, float]:
    """CPU time of this process (the engine) and of its exited children
    (the pool workers: the engine joins them before a sweep returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def run_sweep(names: List[str], work: str, jobs: int = JOBS) -> Dict[str, object]:
    """One sweep with a fresh cache; returns its timings and digest."""
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=work)
    recorder = _Recorder()
    try:
        engine = make_engine(jobs=jobs, cache=ResultCache(cache_dir), hooks=(recorder,))
        started, cpu_before = time.perf_counter(), _cpu_s()
        result = sweep_pht_entries(names, PHT_SIZES, n_intervals=N_INTERVALS, engine=engine)
        wall, cpu_after = time.perf_counter() - started, _cpu_s()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "wall_s": wall,
        "engine_cpu_s": cpu_after[0] - cpu_before[0],
        "pool_cpu_s": cpu_after[1] - cpu_before[1],
        "cells": len(result.cells),
        "cell_seconds": recorder.cell_seconds,
        "digest": payload_digest(result),
        "peak_rss_mb": vm_hwm_mb([os.getpid()]) + sum(recorder.worker_hwm.values()),
    }


def main(argv: List[str]) -> int:
    exit_on_sigterm()
    work = argv[1]
    names = list(benchmark_names())
    first = run_sweep(names[:1], work)
    print(json.dumps({"ready": first["cells"]}), flush=True)
    for line in sys.stdin:
        words = line.split()
        if not words or words[0] == "stop":
            break
        seconds, seed = float(words[1]), int(words[2])
        sweeps = []
        rng = Random(seed)
        deadline = time.perf_counter() + seconds
        while not sweeps or time.perf_counter() < deadline:
            order = list(names)
            rng.shuffle(order)
            sweeps.append(run_sweep(order, work))
        print(json.dumps({"sweeps": sweeps}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
