"""The serving workload: batch-stream.

It launches the server in a process of its own (several times, for
``setup_s``), drives it from this process, checks every answer against
an in-process :class:`repro.serve.PhaseSession` fed the same series, and
returns the end-to-end metrics.  The gated one is the server's CPU time
per sample, read from the router's and workers' threads at every slice
boundary of the timed window.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve import PhaseSession

from perfbench import inputs
from perfbench.common import (
    BenchError,
    LineClient,
    OpCounts,
    RowDigest,
    ServerHandle,
    good_side,
    later_launches,
    median,
    place_front,
    steal_ticks,
    stolen_share,
    timed_launches,
)
from perfbench.loops import ClosedResult, Runner, closed_loop
from perfbench.report import Report

#: Untimed lead-in before a closed loop's window opens (lazy imports,
#: first sessions, allocator warm-up).
WARMUP_S = 1.0

#: Length of one slice of a closed loop's timed window, in seconds; the
#: server's CPU time, throughput and round trips are taken per slice.
SLICE_S = 1.0

#: Requests each connection keeps out, so the router always has the next
#: line queued (see :func:`perfbench.loops.closed_loop`).
DEPTH = 8

#: Samples per ``feed_batch`` call of batch-stream's in-process reference.
REFERENCE_BATCH = 4096

#: Server configuration (keyword arguments of ``ShardedServer``).
STREAM_SERVER = {"workers": 1, "max_sessions": 256}


def _pairs(values: List[float]) -> List[tuple]:
    return [(value, 0.0) for value in values]


def _close_sessions(port: int, session_ids: List[str], counts: OpCounts) -> None:
    """``bye`` every session, then close the connection."""
    client = LineClient(port)
    try:
        for sid in session_ids:
            counts.sent += 1
            response = client.call({"op": "bye", "session": sid})
            if response.get("ok") is True:
                counts.ok += 1
            else:
                counts.failed += 1
    finally:
        client.close()


def _marks(window_start: float, seconds: float) -> List[float]:
    """The slice boundaries of a window, where the server is probed."""
    parts = max(1, round(seconds / SLICE_S))
    return [window_start + seconds * part / parts for part in range(parts + 1)]


def _probe(handle: ServerHandle) -> Callable[[], Tuple[int, List[int]]]:
    """Reads the server's CPU time and the machine's stolen time."""
    return lambda: (handle.cpu_ns(), steal_ticks())


def _closed_metrics(
    report: Report,
    results: List[ClosedResult],
    window_start: float,
    seconds: float,
    setups: List[float],
    peak_rss_mb: float,
    probes: List[tuple],
) -> None:
    """Per slice of the window (about :data:`SLICE_S` long): the server's
    CPU time per sample answered OK, gated at the median over the slices;
    throughput (upper quartile over the slices) and round trips (as
    :meth:`Report.latency` reads them) are printed by name."""
    parts = max(1, round(seconds / SLICE_S))
    width = seconds / parts
    samples = [0] * parts
    oks = [0] * parts
    rtts: List[List[float]] = [[] for _ in range(parts)]
    for result in results:
        window = result.window
        for finished, rtt, answered in zip(window.finished, window.rtts, window.samples):
            part = min(parts - 1, int((finished - window_start) / width))
            rtts[part].append(rtt)
            if answered >= 0:
                oks[part] += 1
                samples[part] += answered
    if not all(rtts) or not all(samples):
        raise BenchError("a slice of the timed window answered nothing")
    if len(probes) != parts + 1:
        raise BenchError(f"the server was probed {len(probes)} times for {parts} slices")
    cpu = [
        (after[1][0] - before[1][0]) / 1e3 / count
        for before, after, count in zip(probes, probes[1:], samples)
    ]
    stolen = [
        stolen_share(before[1][1], after[1][1], after[0] - before[0])
        for before, after in zip(probes, probes[1:])
    ]
    report.setup(setups)
    report.metric("cpu_us_per_sample", median(cpu))
    report.metric("peak_rss_mb", peak_rss_mb)
    rate = good_side(samples, higher_is_better=True) / width
    report.shown("samples_per_s", rate, "samples/s")
    report.shown("intervals_per_s", rate, "intervals/s")
    report.latency(rtts, label=f"per {width:g} s slice")
    report.shown("max_ok_rate", good_side(oks, higher_is_better=True) / width, "requests/s")
    report.note("samples per slice: " + ", ".join(str(count) for count in samples))
    report.note("server CPU us per sample per slice: " + ", ".join(f"{v:.3f}" for v in cpu))
    report.note(
        "stolen share of the machine's CPU time per slice: "
        + ", ".join(f"{share:.2f}" for share in stolen)
    )
    for result in results:
        if result.aborted:
            report.fail(f"connection aborted: {result.aborted}")


# -- batch-stream ----------------------------------------------------------------


def batch_stream(seed: int, seconds: float, report: Report) -> None:
    place_front()
    sessions = inputs.stream_sessions(seed)
    digests = [RowDigest() for _ in sessions]
    ids: List[Optional[str]] = [None] * len(sessions)
    handle, setups = timed_launches(dict(STREAM_SERVER))
    try:
        def on_response(runner: Runner, response: Dict[str, object], ok: bool) -> None:
            if not ok:
                return
            if response["op"] == "hello":
                ids[runner.key] = response["session"]  # type: ignore[index]
            else:
                digests[runner.key].update(response["outcomes"])  # type: ignore[index,arg-type]

        begin = time.perf_counter()
        window_start = begin + WARMUP_S
        window_end = window_start + seconds

        lanes = [
            [
                Runner(inputs.stream_script(session), key=index)
                for index, session in enumerate(sessions)
                if index % 2 == number
            ]
            for number in range(2)
        ]
        probes: List[tuple] = []
        results = closed_loop(
            handle.router_port, lanes, on_response, window_start, window_end, DEPTH,
            _marks(window_start, seconds), _probe(handle), probes,
        )
        peak = handle.peak_rss_mb()
        closing = OpCounts()
        _close_sessions(handle.router_port, [sid for sid in ids if sid], closing)
    finally:
        handle.stop()
    later_launches(dict(STREAM_SERVER), setups)

    for result in results:
        report.count("closed loop", result.counts)
    report.count("bye", closing)
    _closed_metrics(report, results, window_start, seconds, setups, peak, probes)

    mismatched = 0
    for index, session in enumerate(sessions):
        answered = digests[index].rows
        reference = PhaseSession()
        expected = RowDigest()
        values = _pairs(inputs.stream_values(session, answered))
        # Fed in long batches (same outcomes, by the batching contract),
        # digested in the wire's 64-row responses.
        for start in range(0, answered, REFERENCE_BATCH):
            rows = reference.feed_batch(start, values[start : start + REFERENCE_BATCH]).rows()
            for cut in range(0, len(rows), inputs.STREAM_BATCH):
                expected.update(rows[cut : cut + inputs.STREAM_BATCH])
        if expected.hexdigest() != digests[index].hexdigest():
            mismatched += 1
    report.check(
        mismatched == 0,
        f"outcome digests: {len(sessions) - mismatched}/{len(sessions)} sessions "
        "match an in-process PhaseSession",
    )
