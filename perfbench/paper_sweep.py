"""The paper-sweep workload: Figure 5's PHT sweep through a two-job engine.

The engine runs in a process of its own (:mod:`perfbench.sweep_proc`),
launched several times for ``setup_s``; the last launch runs the sweep
back to back for the timed window.  Every sweep's comparable payload must
match the digest kept in ``perfbench/expected/paper_sweep.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from typing import Dict, List, Tuple

from repro.workloads.spec2000 import benchmark_names

from perfbench.common import (
    SETUP_LAUNCHES,
    SETUPS_BEFORE,
    CHILD_START_TIMEOUT_S,
    BenchError,
    chunked,
    end_process,
    good_side,
    median,
    read_line,
    scratch_dir,
    spawn,
)
from perfbench.report import Report
from perfbench.sweep_proc import N_INTERVALS, PHT_SIZES

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected", "paper_sweep.json")


def expected_digest() -> str:
    with open(EXPECTED, encoding="utf-8") as handle:
        return str(json.load(handle)["digest"])


def _launch(work: str) -> Tuple["subprocess.Popen[str]", float]:
    started = time.perf_counter()
    process = spawn("perfbench.sweep_proc", work)
    try:
        ready = json.loads(read_line(process, CHILD_START_TIMEOUT_S))
        if ready.get("ready") != 4:
            raise BenchError(f"engine set-up answered {ready}")
    except BaseException:
        process.terminate()
        end_process(process)
        raise
    return process, time.perf_counter() - started


def _stop(process: "subprocess.Popen[str]") -> None:
    assert process.stdin is not None
    try:
        process.stdin.write("stop\n")
        process.stdin.close()
    except OSError:
        pass
    end_process(process)


def run_timed(seed: int, seconds: float) -> Tuple[List[float], List[Dict[str, object]]]:
    """Set up :data:`SETUPS_BEFORE` engines and sweep on the last one,
    then set up the rest of :data:`SETUP_LAUNCHES`."""
    work = scratch_dir("sweep-")
    setups: List[float] = []
    try:
        process = None
        for launch in range(SETUPS_BEFORE):
            process, setup = _launch(work)
            setups.append(setup)
            if launch < SETUPS_BEFORE - 1:
                _stop(process)
        assert process is not None and process.stdin is not None
        try:
            process.stdin.write(f"sweep {seconds} {seed}\n")
            process.stdin.flush()
            answer = json.loads(read_line(process, seconds + 120))
        finally:
            _stop(process)
        while len(setups) < SETUP_LAUNCHES:
            process, setup = _launch(work)
            setups.append(setup)
            _stop(process)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, answer["sweeps"]


def paper_sweep(seed: int, seconds: float, report: Report) -> None:
    setups, sweeps = run_timed(seed, seconds)
    expected = expected_digest()
    cells = sum(int(sweep["cells"]) for sweep in sweeps)
    report.counts.sent += cells
    report.counts.ok += cells
    report.note(f"ops [sweep cells]: sent={cells} ok={cells} in {len(sweeps)} sweeps")
    rates = [int(sweep["cells"]) * N_INTERVALS / float(sweep["wall_s"]) for sweep in sweeps]
    pool_cpu = [
        float(sweep["pool_cpu_s"]) * 1e6 / (int(sweep["cells"]) * N_INTERVALS)
        for sweep in sweeps
    ]
    engine_cpu = [
        float(sweep["engine_cpu_s"]) * 1e6 / (int(sweep["cells"]) * N_INTERVALS)
        for sweep in sweeps
    ]
    cell_rates = [int(sweep["cells"]) / float(sweep["wall_s"]) for sweep in sweeps]
    cell_seconds = [value for sweep in sweeps for value in sweep["cell_seconds"]]
    report.setup(setups)
    report.metric("cpu_us_per_sample", median(pool_cpu))
    report.metric("peak_rss_mb", median([float(sweep["peak_rss_mb"]) for sweep in sweeps]))
    report.shown("samples_per_s", good_side(rates, higher_is_better=True), "samples/s")
    report.shown("intervals_per_s", good_side(rates, higher_is_better=True), "intervals/s")
    report.latency(chunked(cell_seconds), label="of one sweep cell in a pool worker")
    report.shown("max_ok_rate", good_side(cell_rates, higher_is_better=True), "requests/s")
    report.shown("engine_cpu_us_per_sample", median(engine_cpu), "us")
    report.note(
        "pool CPU us per interval per sweep: " + ", ".join(f"{value:.3f}" for value in pool_cpu)
    )
    report.note(
        "engine CPU us per interval per sweep: "
        + ", ".join(f"{value:.3f}" for value in engine_cpu)
    )
    grid = len(benchmark_names()) * len(PHT_SIZES)
    wrong = [sweep["digest"] for sweep in sweeps if sweep["digest"] != expected]
    report.check(
        not wrong and all(int(sweep["cells"]) == grid for sweep in sweeps),
        f"sweep payload digests: {len(sweeps) - len(wrong)}/{len(sweeps)} match "
        f"the expected {expected[:12]}",
    )
