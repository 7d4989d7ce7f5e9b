"""Seeded inputs for the serve traffic: batch-stream's, shared by the
timed and the traced run, and durable-churn's, which only the traced
run replays.

Traffic is a set of *session scripts*: generators that yield request
lines and receive each parsed response.  The wire clients and the
in-process replay drive the same scripts, so the traced run replays
exactly the lines the timed run sends.  The program sees only the
generated lines.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from random import Random
from typing import Dict, Generator, List, Optional, Sequence

from repro.workloads.spec2000 import benchmark, benchmark_names

#: A session script: yields request lines, is sent parsed responses.
Script = Generator[str, Dict[str, object], None]

# -- batch-stream ----------------------------------------------------------------

#: Samples per ``sample_batch`` request on batch-stream.
STREAM_BATCH = 64

#: Intervals generated per batch-stream session; the stream cycles them.
STREAM_PERIOD = 2048

# -- durable-churn --------------------------------------------------------------

#: Samples per ``sample_batch`` request on durable-churn.
CHURN_BATCH = 16

#: Batches each short-lived durable-churn session streams.
CHURN_BATCHES = 4

#: Latency budget every durable-churn session carries (seconds).
CHURN_BUDGET_S = 0.001

#: Governors durable-churn sessions draw from, with their weights.
CHURN_GOVERNORS = (("gpht", 4), ("markov", 2), ("fixed_window", 1), ("reactive", 1))

#: Sessions an earlier phase left in the checkpoint store.
CHURN_STORED_SESSIONS = 256

#: Samples each stored session was fed before it was checkpointed.
CHURN_STORED_SAMPLES = 96

#: Intervals per benchmark in the durable-churn trace pool.
CHURN_POOL_PERIOD = 1024


def derive(seed: int, *parts: int) -> int:
    """A 32-bit seed derived from the workload seed and an index path."""
    text = ",".join(str(part) for part in (seed,) + parts)
    return zlib.crc32(text.encode())


def mem_series(name: str, length: int, seed: int) -> List[float]:
    """Full-precision Mem/Uop of one SPEC2000 benchmark trace."""
    trace = benchmark(name).trace(n_intervals=length, seed=seed)
    return [segment.mem_per_uop for segment in trace.segments]


def _samples_text(values: Sequence[float]) -> str:
    return json.dumps(list(values), separators=(",", ":"))


# -- batch-stream ----------------------------------------------------------------


@dataclass
class StreamSession:
    """One long-lived GPHT session streaming one benchmark's trace."""

    benchmark: str
    series: List[float]
    chunks: List[str]


def stream_sessions(seed: int) -> List[StreamSession]:
    """One session per SPEC2000 benchmark, each with its own seeded trace."""
    sessions = []
    for index, name in enumerate(benchmark_names()):
        series = mem_series(name, STREAM_PERIOD, derive(seed, index))
        chunks = [
            _samples_text(series[start : start + STREAM_BATCH])
            for start in range(0, STREAM_PERIOD, STREAM_BATCH)
        ]
        sessions.append(StreamSession(name, series, chunks))
    return sessions


def stream_script(session: StreamSession, batches: Optional[int] = None) -> Script:
    """hello, then ``sample_batch`` requests cycling the session's trace."""
    hello = yield '{"op":"hello"}'
    if hello.get("ok") is not True:
        return
    sid = hello["session"]
    sent = 0
    while batches is None or sent < batches:
        start = sent * STREAM_BATCH
        chunk = session.chunks[sent % len(session.chunks)]
        yield (
            f'{{"op":"sample_batch","session":"{sid}",'
            f'"start_interval":{start},"samples":{chunk}}}'
        )
        sent += 1


def stream_values(session: StreamSession, count: int) -> List[float]:
    """The first ``count`` samples a stream script sends."""
    period = len(session.series)
    return [session.series[i % period] for i in range(count)]


# -- durable-churn --------------------------------------------------------------


@dataclass
class ChurnSession:
    """One short-lived budgeted session: its config and its samples."""

    governor: str
    benchmark: str
    values: List[float]

    def hello(self) -> str:
        return json.dumps(
            {
                "op": "hello",
                "governor": self.governor,
                "latency_budget_s": CHURN_BUDGET_S,
            },
            separators=(",", ":"),
        )


class ChurnPlan:
    """The seeded, unbounded sequence of durable-churn sessions."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._pool = {
            name: mem_series(name, CHURN_POOL_PERIOD, derive(seed, 7, index))
            for index, name in enumerate(benchmark_names())
        }
        self._governors = [
            governor for governor, weight in CHURN_GOVERNORS for _ in range(weight)
        ]

    def session(self, number: int, samples: int = CHURN_BATCH * CHURN_BATCHES) -> ChurnSession:
        """The ``number``-th session of the plan (same for every run)."""
        rng = Random(derive(self._seed, 11, number))
        governor = self._governors[rng.randrange(len(self._governors))]
        names = benchmark_names()
        name = names[rng.randrange(len(names))]
        series = self._pool[name]
        offset = rng.randrange(len(series) - samples)
        return ChurnSession(governor, name, series[offset : offset + samples])


def churn_script(session: ChurnSession) -> Script:
    """hello, batches of 16, snapshot, restore, predict twin and original,
    bye both."""
    hello = yield session.hello()
    if hello.get("ok") is not True:
        return
    sid = hello["session"]
    for start in range(0, len(session.values), CHURN_BATCH):
        response = yield (
            f'{{"op":"sample_batch","session":"{sid}","start_interval":{start},'
            f'"samples":{_samples_text(session.values[start : start + CHURN_BATCH])}}}'
        )
        if response.get("ok") is not True:
            return
    snapshot = yield f'{{"op":"snapshot","session":"{sid}"}}'
    if snapshot.get("ok") is not True:
        return
    restored = yield json.dumps(
        {"op": "restore", "checkpoint": snapshot["checkpoint"]},
        separators=(",", ":"),
    )
    if restored.get("ok") is not True:
        return
    twin = restored["session"]
    yield f'{{"op":"predict","session":"{twin}"}}'
    yield f'{{"op":"predict","session":"{sid}"}}'
    yield f'{{"op":"bye","session":"{twin}"}}'
    yield f'{{"op":"bye","session":"{sid}"}}'
