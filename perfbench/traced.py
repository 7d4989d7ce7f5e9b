"""The traced run: per-layer metrics, measured apart from the timed runs.

For ``batch-stream`` the run rebuilds the workload's request lines from
the seed and replays them in-process through ``handle_line`` on a
:class:`repro.serve.SessionManager` configured like the server's worker,
without and with span wrappers (their difference is the tracing
overhead).  A second, traced replay drives durable-churn traffic (short
budgeted sessions with snapshot and restore) through a manager with an
idle timeout and a checkpoint store; the session-lifecycle metrics come
from it.  Unloaded wire probes then send a fixed set of ``sample`` and
``sample_batch`` lines one at a time, through the router and straight to
the worker, to split out the router hop and the transport.

For ``paper-sweep`` the same sweep runs serially in-process with
wrappers, and once through the two-job pool with a progress hook.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.exec.cells as cells
import repro.serve.protocol as protocol
from repro.core.phases import PhaseTable
from repro.core.predictors import (
    FixedWindowPredictor,
    GPHTPredictor,
    LastValuePredictor,
)
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine
from repro.learn.predictors import MarkovKPredictor
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.serve import (
    CheckpointStore,
    PhaseSession,
    SessionConfig,
    SessionManager,
    mint_shard_session_id,
    shard_for,
)
from repro.serve.frontends import DEFAULT_CLOCK
from repro.workloads.spec2000 import BenchmarkSpec, benchmark_names

from perfbench import inputs
from perfbench.common import (
    BenchError,
    LineClient,
    OpCounts,
    WORK_DIR,
    launch_server,
    median,
    scratch_dir,
)
from perfbench.loops import Runner
from perfbench.report import Report
from perfbench.serve_workloads import STREAM_SERVER
from perfbench.paper_sweep import expected_digest
from perfbench.spans import Layer, Spans, Target, installed
from perfbench.sweep_proc import JOBS, run_sweep

#: Batches each batch-stream session sends in the replay.
REPLAY_STREAM_BATCHES = 24

#: Durable-churn sessions in the lifecycle replay.
REPLAY_CHURN_SESSIONS = 64

#: The durable-churn server (``ShardedServer`` keyword arguments) whose
#: worker 0 the lifecycle replay's manager is configured like.
CHURN_SERVER = {
    "workers": 2,
    "max_sessions": 1024,
    "idle_timeout_s": 60.0,
    "checkpoint_every": 32,
}

#: Per-layer metrics read from the lifecycle replay rather than the
#: stream replay: the layers only short-lived, budgeted, checkpointed
#: sessions reach.
LIFECYCLE_METRICS = (
    "predictors.scalar.us_per_sample",
    "session.feed.self_us",
    "session.snapshot.us",
    "session.from_snapshot.us",
    "session.degraded_share",
    "manager.evict_idle.us_per_request",
    "manager.maybe_checkpoint.us_per_request",
    "manager.checkpoints_per_1k_samples",
    "manager.close.us",
    "checkpoint.save.us",
    "checkpoint.bytes_per_save",
    "checkpoint.drain_s",
    "checkpoint.load_all_s",
)

#: Probe requests per path (router, direct) and batch size.
PROBES_B1 = 300
PROBES_B64 = 150

#: Untraced/traced replay pairs.  The overhead is the median over the
#: pairs of each pair's difference, so a change in the host's speed
#: between pairs cancels.  A replay lasts well under a second, about as
#: long as the host's speed holds still, hence many pairs.
OVERHEAD_PAIRS = 9

_PREDICTORS = (GPHTPredictor, FixedWindowPredictor, LastValuePredictor, MarkovKPredictor)


def _second_arg_len(args: Tuple[object, ...]) -> int:
    return len(args[1])  # type: ignore[arg-type]


def _third_arg_len(args: Tuple[object, ...]) -> int:
    return len(args[2])  # type: ignore[arg-type]


def _kernel_targets() -> List[Target]:
    targets = [Target(PhaseTable, "classify_batch", "phases.classify_batch", _second_arg_len)]
    for cls in _PREDICTORS:
        if "predict_batch" in cls.__dict__:
            targets.append(
                Target(cls, "predict_batch", "predictors.predict_batch", _second_arg_len)
            )
        for attr in ("observe", "predict"):
            if attr in cls.__dict__:
                targets.append(Target(cls, attr, f"predictors.{attr}"))
    return targets


def serve_targets() -> List[Target]:
    """Every serve-path entry point the per-layer metrics need."""
    return [
        Target(protocol, "handle_line", "protocol.handle_line"),
        Target(protocol, "handle_request", "protocol.handle_request"),
        Target(SessionManager, "evict_idle", "manager.evict_idle"),
        Target(SessionManager, "maybe_checkpoint", "manager.maybe_checkpoint"),
        Target(SessionManager, "open", "manager.open", keep_result=True),
        Target(SessionManager, "close", "manager.close"),
        Target(SessionManager, "restore", "manager.restore", keep_result=True),
        Target(SessionManager, "restore_as", "manager.restore_as", keep_result=True),
        Target(PhaseSession, "feed", "session.feed"),
        Target(PhaseSession, "feed_batch", "session.feed_batch", _third_arg_len),
        Target(PhaseSession, "snapshot", "session.snapshot"),
        Target(PhaseSession, "from_snapshot", "session.from_snapshot"),
        Target(CheckpointStore, "save", "checkpoint.save", keep_args=True),
        Target(CheckpointStore, "load_all", "checkpoint.load_all"),
        Target(CheckpointStore, "flush", "checkpoint.flush"),
        Target(Counter, "inc", "obs.update"),
        Target(Gauge, "set", "obs.update"),
        Target(Histogram, "observe", "obs.update"),
    ] + _kernel_targets()


def sweep_targets() -> List[Target]:
    """Every sweep-path entry point the per-layer metrics need."""
    return [
        Target(ExecutionEngine, "run", "exec.engine.run"),
        Target(ResultCache, "get", "exec.cache"),
        Target(ResultCache, "put", "exec.cache"),
        Target(BenchmarkSpec, "behavior", "workloads.behavior"),
        Target(
            cells, "evaluate_predictor_batch", "analysis.evaluate", _second_arg_len,
            keep_args=True,
        ),
    ] + _kernel_targets()


# -- in-process replay ------------------------------------------------------------

Lane = Callable[[], Optional[Runner]]


@dataclass
class Replay:
    """A workload's replayable traffic on a worker-like manager."""

    manager: SessionManager
    lanes: List[Lane]
    boot: Callable[[], None] = lambda: None
    cleanup: Callable[[], None] = lambda: None


@dataclass
class ReplayStats:
    wall_s: float = 0.0
    requests: int = 0
    samples: int = 0
    degraded: int = 0
    errors: int = 0
    request_bytes: int = 0
    response_bytes: int = 0


def run_replay(replay: Replay, spans: Optional[Spans] = None) -> ReplayStats:
    """Boot, then drive the lanes round-robin through ``handle_line``."""
    stats = ReplayStats()
    started = time.perf_counter()
    replay.boot()
    lanes = list(replay.lanes)
    while lanes:
        for lane in list(lanes):
            runner = lane()
            if runner is None:
                lanes.remove(lane)
                continue
            line = runner.line
            if spans is not None:
                spans.request += 1
            raw = protocol.handle_line(replay.manager, line)  # type: ignore[arg-type]
            response = json.loads(raw)
            stats.requests += 1
            stats.request_bytes += len(line) + 1  # type: ignore[arg-type]
            stats.response_bytes += len(raw) + 1
            if response.get("ok") is not True:
                stats.errors += 1
            elif response["op"] == "sample_batch":
                stats.samples += response["count"]
                stats.degraded += sum(1 for row in response["outcomes"] if row[4])
            elif response["op"] == "sample":
                stats.samples += 1
                stats.degraded += 1 if response["degraded"] else 0
            runner.answer(response)
    stats.wall_s = time.perf_counter() - started
    replay.cleanup()
    return stats


def _round_robin(runners: List[Runner]) -> Lane:
    turn = [0]

    def lane() -> Optional[Runner]:
        live = [runner for runner in runners if not runner.done]
        if not live:
            return None
        runner = live[turn[0] % len(live)]
        turn[0] += 1
        return runner

    return lane


def stream_replay(sessions: List[inputs.StreamSession]) -> Replay:
    manager = SessionManager(max_sessions=STREAM_SERVER["max_sessions"], clock=DEFAULT_CLOCK)
    lanes = []
    for lane in range(2):
        runners = [
            Runner(inputs.stream_script(session, REPLAY_STREAM_BATCHES))
            for index, session in enumerate(sessions)
            if index % 2 == lane
        ]
        lanes.append(_round_robin(runners))
    return Replay(manager, lanes)


def stored_sessions(plan: inputs.ChurnPlan) -> Dict[str, PhaseSession]:
    """The earlier phase: sessions fed and checkpointed before the boot."""
    sessions = {}
    for number in range(1, inputs.CHURN_STORED_SESSIONS + 1):
        spec = plan.session(-number, samples=inputs.CHURN_STORED_SAMPLES)
        session = PhaseSession(
            SessionConfig(governor=spec.governor, latency_budget_s=inputs.CHURN_BUDGET_S),
            session_id=f"s{number}",
        )
        session.feed_batch(0, [(value, 0.0) for value in spec.values])
        sessions[session.session_id] = session
    return sessions


def write_store(directory: str, sessions: Dict[str, PhaseSession]) -> None:
    store = CheckpointStore(directory, synchronous=True)
    for sid, session in sessions.items():
        store.save(sid, session.snapshot(), 2)
    store.close()


def churn_replay(plan: inputs.ChurnPlan, template: str, live: str) -> Replay:
    shutil.rmtree(live, ignore_errors=True)
    shutil.copytree(template, live)
    workers = CHURN_SERVER["workers"]
    store = CheckpointStore(live)
    manager = SessionManager(
        max_sessions=CHURN_SERVER["max_sessions"] // workers,
        idle_timeout_s=CHURN_SERVER["idle_timeout_s"],
        clock=DEFAULT_CLOCK,
        id_minter=lambda seq: mint_shard_session_id(seq, 0, workers),
        checkpoint_store=store,
        checkpoint_every=CHURN_SERVER["checkpoint_every"],
    )

    def boot() -> None:
        # What worker 0 does before it reports its port: adopt its shard.
        for record in store.load_all():
            if shard_for(record.session, workers) == 0:
                manager.restore_as(record.session, record.checkpoint, record.protocol)
        store.flush()

    lanes = []
    for lane_index in range(2):
        numbers = iter(range(lane_index, REPLAY_CHURN_SESSIONS, 2))
        current: List[Optional[Runner]] = [None]

        def lane(numbers=numbers, current=current) -> Optional[Runner]:
            runner = current[0]
            if runner is not None and not runner.done:
                return runner
            number = next(numbers, None)
            if number is None:
                return None
            current[0] = Runner(inputs.churn_script(plan.session(number)))
            return current[0]

        lanes.append(lane)
    return Replay(manager, lanes, boot=boot, cleanup=store.close)


# -- per-layer metrics from spans ---------------------------------------------------


def _pair_order(pair: int) -> Tuple[bool, bool]:
    """Whether each run of an overhead pair has spans: the untraced run
    goes first in even pairs and second in odd ones, so neither side
    always runs first."""
    return (False, True) if pair % 2 == 0 else (True, False)


def _overhead_share(untraced_walls: List[float], traced_walls: List[float]) -> float:
    """Tracing overhead: median over the pairs of (traced − untraced) ÷ traced."""
    return median(
        [_per(traced - untraced, traced) for untraced, traced in zip(untraced_walls, traced_walls)]
    )


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _kernel_totals(spans: Spans) -> Tuple[float, int]:
    """Seconds and samples of the batch kernels, counted where the caller
    calls them (the default scalar loop inside a ``predict_batch`` is not
    a second call)."""
    durations = spans.durations()
    seconds = 0.0
    samples = 0
    for index, name in enumerate(spans.names):
        if name == "predictors.predict_batch" and not spans.has_ancestor(
            index, ("predictors.predict_batch",)
        ):
            seconds += durations[index]
            samples += spans.sizes[index]
    return seconds, samples


class _Values(dict):
    """Collects metrics like a :class:`Report`, for picking among them."""

    def metric(self, name: str, value: float) -> None:
        self[name] = value


def serve_layer_metrics(spans: Spans, stats: ReplayStats, report: "Report | _Values") -> None:
    layers = spans.summary()

    def layer(name: str) -> Layer:
        return layers.get(name, Layer())

    requests = layer("protocol.handle_line").calls
    durations = spans.durations()
    kernel_time, kernel_size = _kernel_totals(spans)
    batch_calls_in_feed = 0
    scalar_time = 0.0
    scalar_samples = 0
    for index, name in enumerate(spans.names):
        if name == "predictors.predict_batch":
            if spans.has_ancestor(index, ("session.feed_batch",)) and not spans.has_ancestor(
                index, ("predictors.predict_batch",)
            ):
                batch_calls_in_feed += 1
        elif name in ("predictors.observe", "predictors.predict"):
            if spans.has_ancestor(index, ("predictors.predict_batch",)):
                continue
            scalar_time += durations[index]
            if name == "predictors.observe":
                scalar_samples += 1
    classify = layer("phases.classify_batch")
    report.metric("phases.classify_batch.us_per_sample", _per(classify.total * 1e6, classify.size))
    report.metric("predictors.predict_batch.us_per_sample", _per(kernel_time * 1e6, kernel_size))
    report.metric("predictors.scalar.us_per_sample", _per(scalar_time * 1e6, scalar_samples))
    feed_batch = layer("session.feed_batch")
    report.metric(
        "predictors.batch_calls_per_feed_batch", _per(batch_calls_in_feed, feed_batch.calls)
    )
    sessions = [
        spans.results[index]
        for index in spans.results
        if spans.names[index] in ("manager.open", "manager.restore", "manager.restore_as")
    ]
    hits = sum(s.predictor.hits for s in sessions if isinstance(s.predictor, GPHTPredictor))
    misses = sum(s.predictor.misses for s in sessions if isinstance(s.predictor, GPHTPredictor))
    report.metric("predictors.gpht.pht_hit_ratio", _per(hits, hits + misses))
    report.metric(
        "session.feed_batch.self_us_per_sample", _per(feed_batch.self_total * 1e6, feed_batch.size)
    )
    feed = layer("session.feed")
    report.metric("session.feed.self_us", _per(feed.self_total * 1e6, feed.calls))
    report.metric("session.snapshot.us", layer("session.snapshot").mean_us())
    report.metric("session.from_snapshot.us", layer("session.from_snapshot").mean_us())
    correct = sum(s.correct for s in sessions)
    scored = sum(s.scored for s in sessions)
    report.metric("session.accuracy", _per(correct, scored))
    report.metric("session.degraded_share", _per(stats.degraded, stats.samples))
    report.metric(
        "manager.evict_idle.us_per_request", _per(layer("manager.evict_idle").total * 1e6, requests)
    )
    report.metric(
        "manager.maybe_checkpoint.us_per_request",
        _per(layer("manager.maybe_checkpoint").total * 1e6, requests),
    )
    saves = layer("checkpoint.save")
    report.metric("manager.checkpoints_per_1k_samples", _per(saves.calls * 1000.0, stats.samples))
    report.metric("manager.open.us", layer("manager.open").mean_us())
    report.metric("manager.close.us", layer("manager.close").mean_us())
    report.metric("checkpoint.save.us", saves.mean_us())
    saved_bytes = [
        len(json.dumps({"session": args[1], "protocol": args[3] if len(args) > 3 else None,
                        "checkpoint": args[2]}, sort_keys=True, separators=(",", ":")))
        for index, args in spans.args.items()
        if spans.names[index] == "checkpoint.save"
    ]
    report.metric("checkpoint.bytes_per_save", _per(sum(saved_bytes), len(saved_bytes)))
    report.metric("checkpoint.drain_s", layer("checkpoint.flush").total)
    report.metric("checkpoint.load_all_s", layer("checkpoint.load_all").total)
    handle_line = layer("protocol.handle_line")
    handle_request = layer("protocol.handle_request")
    report.metric(
        "protocol.handle_line.self_us_per_request", _per(handle_line.self_total * 1e6, requests)
    )
    report.metric(
        "protocol.handle_request.self_us_per_request",
        _per(handle_request.self_total * 1e6, requests),
    )
    report.metric("protocol.request_bytes_per_sample", _per(stats.request_bytes, stats.samples))
    report.metric("protocol.response_bytes_per_sample", _per(stats.response_bytes, stats.samples))
    report.metric("protocol.errors", float(stats.errors))
    updates = layer("obs.update")
    report.metric("obs.metric_updates_per_request", _per(updates.calls, requests))
    report.metric("obs.us_per_request", _per(updates.total * 1e6, requests))
    for name in (
        "exec.cell_ms_p50",
        "exec.pool_idle_share",
        "workloads.trace_ms_per_benchmark",
        "analysis.evaluate.us_per_interval",
    ):
        report.metric(name, 0.0)


def _accounting(spans: Spans, report: Report) -> None:
    """Print how the replay's wall time splits over the layers' self time."""
    layers = spans.summary()
    root = layers["replay"]
    selves = sorted(
        ((layer.self_total, name) for name, layer in layers.items()), reverse=True
    )
    accounted = sum(value for value, _ in selves)
    report.note(
        f"self times sum to {accounted:.4f} s of the traced replay's "
        f"{root.total:.4f} s wall time"
    )
    for value, name in selves:
        report.note(f"  self {name:34s} {value * 1e3:9.2f} ms  {value / root.total:6.1%}")


# -- wire probes -------------------------------------------------------------------


@dataclass
class ProbeTimes:
    router: Dict[str, List[float]] = field(default_factory=lambda: {"b1": [], "b64": []})
    direct: Dict[str, List[float]] = field(default_factory=lambda: {"b1": [], "b64": []})
    inproc: Dict[str, List[float]] = field(default_factory=lambda: {"b1": [], "b64": []})


def _probe_lines(sid: str, kind: str, series: Sequence[float], count: int) -> List[str]:
    if kind == "b1":
        return [
            f'{{"op":"sample","session":"{sid}","interval":{i},'
            f'"mem_per_uop":{series[i % len(series)]!r}}}'
            for i in range(count)
        ]
    batch = inputs.STREAM_BATCH
    return [
        f'{{"op":"sample_batch","session":"{sid}","start_interval":{i * batch},'
        f'"samples":{json.dumps([series[(i * batch + j) % len(series)] for j in range(batch)])}}}'
        for i in range(count)
    ]


def wire_probes(
    config: Dict[str, object], series: Sequence[float], counts: OpCounts, manager: SessionManager
) -> ProbeTimes:
    """Unloaded round trips via the router and straight to the worker."""
    times = ProbeTimes()
    handle = launch_server(config)
    try:
        router = LineClient(handle.router_port)
        try:
            for kind, count in (("b1", PROBES_B1), ("b64", PROBES_B64)):
                counts.sent += 1
                hello = router.call({"op": "hello"})
                if hello.get("ok") is not True:
                    counts.failed += 1
                    raise BenchError(f"probe hello failed: {hello}")
                counts.ok += 1
                sid = str(hello["session"])
                worker = shard_for(sid, len(handle.worker_ports))
                direct = LineClient(handle.worker_ports[worker])
                try:
                    for index, line in enumerate(_probe_lines(sid, kind, series, 2 * count)):
                        client, bucket = (
                            (router, times.router) if index % 2 == 0 else (direct, times.direct)
                        )
                        counts.sent += 1
                        started = time.perf_counter()
                        raw = client.call_line(line)
                        bucket[kind].append(time.perf_counter() - started)
                        if json.loads(raw).get("ok") is True:
                            counts.ok += 1
                        else:
                            counts.failed += 1
                finally:
                    direct.close()
        finally:
            router.close()
    finally:
        handle.stop()
    # The same lines in-process, on a manager configured like the worker.
    for kind, count in (("b1", PROBES_B1), ("b64", PROBES_B64)):
        hello = json.loads(protocol.handle_line(manager, '{"op":"hello"}'))
        for line in _probe_lines(str(hello["session"]), kind, series, 2 * count):
            started = time.perf_counter()
            protocol.handle_line(manager, line)
            times.inproc[kind].append(time.perf_counter() - started)
    return times


# -- entry points ----------------------------------------------------------------


def traced_serve(workload: str, seed: int, report: Report) -> None:
    work = scratch_dir("traced-")
    try:
        _traced_serve(workload, seed, report, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced_serve(workload: str, seed: int, report: Report, work: str) -> None:
    stream = inputs.stream_sessions(seed)
    make = lambda: stream_replay(stream)  # noqa: E731
    run_replay(make())  # warm-up: lazy imports, allocator
    replays: List[ReplayStats] = []
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    for pair in range(OVERHEAD_PAIRS):
        for with_spans in _pair_order(pair):
            if not with_spans:
                untraced = run_replay(make())
                continue
            spans = Spans()
            replay = make()
            with installed(spans, serve_targets()):
                with spans.span("replay"):
                    traced = run_replay(replay, spans)
        replays += [untraced, traced]
        untraced_walls.append(untraced.wall_s)
        traced_walls.append(traced.wall_s)
    spans.dump(os.path.join(WORK_DIR, f"spans-{workload}-{seed}.jsonl"))
    report.note(
        f"stream replay: {traced.requests} requests, {traced.samples} samples; median wall "
        f"untraced {median(untraced_walls):.4f} s, traced {median(traced_walls):.4f} s "
        f"over {OVERHEAD_PAIRS} alternating pairs"
    )
    _accounting(spans, report)

    # The session lifecycle: durable-churn traffic (hello, batches of 16
    # on a latency budget, snapshot, restore, predict, bye) on a manager
    # configured like a checkpointing, idle-timed worker that adopted
    # stored sessions at boot.
    plan = inputs.ChurnPlan(seed)
    template = os.path.join(work, "template")
    write_store(template, stored_sessions(plan))
    live = os.path.join(work, "live")
    run_replay(churn_replay(plan, template, live))  # warm-up
    churn_spans = Spans()
    churn = churn_replay(plan, template, live)
    with installed(churn_spans, serve_targets()):
        with churn_spans.span("replay"):
            churn_stats = run_replay(churn, churn_spans)
    replays.append(churn_stats)
    churn_spans.dump(os.path.join(WORK_DIR, f"spans-{workload}-{seed}-lifecycle.jsonl"))
    report.note(
        f"lifecycle replay: {churn_stats.requests} requests, {churn_stats.samples} samples "
        f"in {REPLAY_CHURN_SESSIONS} durable-churn sessions, {churn_stats.wall_s:.4f} s traced"
    )
    _accounting(churn_spans, report)

    errors = sum(replayed.errors for replayed in replays)
    report.counts.sent += sum(replayed.requests for replayed in replays)
    report.counts.ok += sum(replayed.requests for replayed in replays) - errors
    report.counts.failed += errors
    stream_values, churn_values = _Values(), _Values()
    serve_layer_metrics(spans, traced, stream_values)
    serve_layer_metrics(churn_spans, churn_stats, churn_values)
    for name, value in stream_values.items():
        report.metric(name, churn_values[name] if name in LIFECYCLE_METRICS else value)
    report.note(
        "lifecycle replay (not reported above): predictors.batch_calls_per_feed_batch "
        f"{churn_values['predictors.batch_calls_per_feed_batch']:g}, "
        f"session.feed_batch.self_us_per_sample "
        f"{churn_values['session.feed_batch.self_us_per_sample']:.3f}"
    )
    report.metric("trace.overhead_share", _overhead_share(untraced_walls, traced_walls))

    probes = OpCounts()
    times = wire_probes(
        dict(STREAM_SERVER), stream[0].series, probes, SessionManager(clock=DEFAULT_CLOCK)
    )
    report.count("wire probes", probes)
    hop = {kind: median(times.router[kind]) - median(times.direct[kind]) for kind in ("b1", "b64")}
    report.metric("router.hop_us_per_request.b1", hop["b1"] * 1e6)
    report.metric("router.hop_us_per_request.b64", hop["b64"] * 1e6)
    report.metric(
        "frontends.transport_us_per_request",
        (median(times.direct["b1"]) - median(times.inproc["b1"])) * 1e6,
    )
    report.note(
        "unloaded b1 round trip: router "
        f"{median(times.router['b1']) * 1e6:.1f} us, direct {median(times.direct['b1']) * 1e6:.1f} us, "
        f"in-process handle_line {median(times.inproc['b1']) * 1e6:.1f} us"
    )
    report.check(errors == 0 and probes.bad == 0, "every replayed and probed request answered OK")


def traced_sweep(seed: int, report: Report) -> None:
    names = list(benchmark_names())
    Random(seed).shuffle(names)
    expected = expected_digest()
    work = scratch_dir("traced-sweep-")
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    runs: List[Dict[str, object]] = []
    try:
        pooled = run_sweep(names, work)
        runs.append(pooled)
        for pair in range(OVERHEAD_PAIRS):
            for with_spans in _pair_order(pair):
                cells.clear_workload_memos()
                if not with_spans:
                    untraced = run_sweep(names, work, jobs=1)
                    continue
                spans = Spans()
                with installed(spans, sweep_targets()):
                    with spans.span("replay"):
                        traced = run_sweep(names, work, jobs=1)
            runs += [untraced, traced]
            untraced_walls.append(float(untraced["wall_s"]))
            traced_walls.append(float(traced["wall_s"]))
        spans.dump(os.path.join(WORK_DIR, f"spans-paper-sweep-{seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total_cells = sum(int(run["cells"]) for run in runs)
    report.counts.sent += total_cells
    report.counts.ok += total_cells
    report.check(
        all(run["digest"] == expected for run in runs),
        "pooled, serial and traced sweeps all match the expected payload digest",
    )
    layers = spans.summary()

    def layer(name: str) -> Layer:
        return layers.get(name, Layer())

    kernel_time, kernel_size = _kernel_totals(spans)
    hits = misses = 0
    for index, name in enumerate(spans.names):
        if name == "analysis.evaluate":
            predictor = spans.args[index][0]
            if isinstance(predictor, GPHTPredictor):
                hits += predictor.hits
                misses += predictor.misses
    classify = layer("phases.classify_batch")
    evaluate = layer("analysis.evaluate")
    behavior = layer("workloads.behavior")
    for name in (
        "predictors.scalar.us_per_sample",
        "predictors.batch_calls_per_feed_batch",
        "session.feed_batch.self_us_per_sample",
        "session.feed.self_us",
        "session.snapshot.us",
        "session.from_snapshot.us",
        "session.accuracy",
        "session.degraded_share",
        "manager.evict_idle.us_per_request",
        "manager.maybe_checkpoint.us_per_request",
        "manager.checkpoints_per_1k_samples",
        "manager.open.us",
        "manager.close.us",
        "checkpoint.save.us",
        "checkpoint.bytes_per_save",
        "checkpoint.drain_s",
        "checkpoint.load_all_s",
        "protocol.handle_line.self_us_per_request",
        "protocol.handle_request.self_us_per_request",
        "protocol.request_bytes_per_sample",
        "protocol.response_bytes_per_sample",
        "protocol.errors",
        "obs.metric_updates_per_request",
        "obs.us_per_request",
        "frontends.transport_us_per_request",
        "router.hop_us_per_request.b1",
        "router.hop_us_per_request.b64",
    ):
        report.metric(name, 0.0)
    report.metric("phases.classify_batch.us_per_sample", _per(classify.total * 1e6, classify.size))
    report.metric("predictors.predict_batch.us_per_sample", _per(kernel_time * 1e6, kernel_size))
    report.metric("predictors.gpht.pht_hit_ratio", _per(hits, hits + misses))
    report.metric("exec.cell_ms_p50", median(pooled["cell_seconds"]) * 1e3)  # type: ignore[arg-type]
    cell_total = sum(pooled["cell_seconds"])  # type: ignore[arg-type]
    report.metric("exec.pool_idle_share", 1.0 - cell_total / (JOBS * float(pooled["wall_s"])))
    report.metric("workloads.trace_ms_per_benchmark", _per(behavior.total * 1e3, behavior.calls))
    report.metric("analysis.evaluate.us_per_interval", _per(evaluate.total * 1e6, evaluate.size))
    untraced_wall = median(untraced_walls)
    traced_wall = median(traced_walls)
    report.metric("trace.overhead_share", _overhead_share(untraced_walls, traced_walls))
    report.note(
        f"serial sweep, median of {OVERHEAD_PAIRS}: untraced {untraced_wall:.4f} s, "
        f"traced {traced_wall:.4f} s; pooled ({JOBS} jobs) {float(pooled['wall_s']):.4f} s"
    )
    _accounting(spans, report)
