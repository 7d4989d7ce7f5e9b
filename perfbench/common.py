"""Shared pieces of the benchmark: statistics, accounting, wire client,
server process handle and output digests.

Everything here talks to the program only through its public surface:
the wire protocol over TCP, and the server script
(:mod:`perfbench.server`) that wraps :class:`repro.serve.ShardedServer`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the directory holding
#: ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space for checkpoint stores, result caches and span dumps.
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: How long one wire request may take before it counts as timed out.
WIRE_TIMEOUT_S = 10.0

#: How long a child process (server, sweep engine) may take to report ready.
CHILD_START_TIMEOUT_S = 60.0

#: Set-ups per run, half before the timed window and half after it;
#: ``setup_s`` is their median.  Set-ups on both sides of the window
#: sample the machine at moments tens of seconds apart, so one slow spell
#: of the host cannot own all of them.
SETUP_LAUNCHES = 10

#: Set-ups before the timed window (the last one serves the window).
SETUPS_BEFORE = SETUP_LAUNCHES // 2


class BenchError(Exception):
    """The run cannot produce a valid result (no result; exit code 2)."""


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not values:
        raise BenchError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def good_side(
    values: Sequence[float], higher_is_better: bool, share: float = 0.25
) -> float:
    """The per-slice reading ``share`` of the way in from the good end:
    by default the upper quartile of a rate, the lower quartile of a time.

    Interference from outside the program (other tenants of the host, a
    halted virtual CPU waiting to be scheduled) only ever slows a slice
    down, and on a shared host it comes and goes within a run.  So, as
    with ``timeit``'s minimum, the good side tracks the program and the
    median tracks the host.  A quantile rather than the extreme still
    needs ``share`` of the slices to agree.  Linear interpolation between
    the two nearest readings; never outside the readings.
    """
    ordered = sorted(values, reverse=higher_is_better)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond_p99(count: int) -> int:
    """How many samples lie beyond the nearest-rank p99 of ``count``."""
    return count - max(1, math.ceil(0.99 * count))


#: Requests per chunk when a percentile is taken chunk by chunk; p99 of
#: a chunk then has at least ten samples beyond it.
CHUNK_REQUESTS = 1000


def chunked(values: Sequence[float], size: int = CHUNK_REQUESTS) -> List[Sequence[float]]:
    """Consecutive chunks of at least ``size`` values (the last one absorbs
    the remainder); a single chunk when there are fewer values."""
    count = max(1, len(values) // size)
    bounds = [len(values) * part // count for part in range(count + 1)]
    return [values[bounds[part] : bounds[part + 1]] for part in range(count)]


@contextmanager
def generator_gc_paused() -> Iterator[None]:
    """Keep the load generator's own garbage collector out of the timings.

    The generator allocates no reference cycles while it sends, so
    reference counting frees everything; a collection pass over the
    benchmark's own heap would only stall the schedule.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- failure accounting ---------------------------------------------------------


@dataclass
class OpCounts:
    """Operations attempted and how each ended, for one phase of a run."""

    sent: int = 0
    ok: int = 0
    failed: int = 0
    refused: int = 0
    timed_out: int = 0

    def add(self, other: "OpCounts") -> None:
        self.sent += other.sent
        self.ok += other.ok
        self.failed += other.failed
        self.refused += other.refused
        self.timed_out += other.timed_out

    @property
    def bad(self) -> int:
        """Failed, refused and timed-out operations."""
        return self.failed + self.refused + self.timed_out

    def row(self) -> str:
        return (
            f"sent={self.sent} ok={self.ok} failed={self.failed} "
            f"refused={self.refused} timed_out={self.timed_out}"
        )


#: Error codes that mean the server turned the request away rather than
#: failing it: it is over a limit or a shard cannot answer.
REFUSED_CODES = frozenset(
    {"server_overloaded", "worker_unavailable", "worker_recovering"}
)


def tally(counts: OpCounts, response: Dict[str, object]) -> bool:
    """Count one answered request; returns whether it succeeded."""
    if response.get("ok") is True:
        counts.ok += 1
        return True
    if response.get("error") in REFUSED_CODES:
        counts.refused += 1
    else:
        counts.failed += 1
    return False


# -- output digests -----------------------------------------------------------


class RowDigest:
    """SHA-256 over a session's outcome rows, one update per response."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.rows = 0

    def update(self, rows: Sequence[Sequence[object]]) -> None:
        self._hash.update(json.dumps(rows, separators=(",", ":")).encode())
        self.rows += len(rows)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# -- wire client --------------------------------------------------------------


class WireTimeout(BenchError):
    """A request got no answer within :data:`WIRE_TIMEOUT_S`."""


class LineClient:
    """Blocking one-request-at-a-time client for the line protocol."""

    def __init__(self, port: int, timeout: float = WIRE_TIMEOUT_S) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout)
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")

    def call_line(self, line: str) -> bytes:
        """Send one request line, return the raw response line."""
        data = (line + "\n").encode()
        try:
            self._sock.sendall(data)
            raw = self._file.readline()
        except socket.timeout:
            raise WireTimeout(line[:80]) from None
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw

    def call(self, request: Dict[str, object]) -> Dict[str, object]:
        return json.loads(self.call_line(json.dumps(request, separators=(",", ":"))))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


# -- CPU placement --------------------------------------------------------------

#: Environment variable that hands the CPU split to the server process:
#: the front CPU, a slash, then the worker CPUs.
CPU_SPLIT_ENV = "PERFBENCH_CPU_SPLIT"


def place_front() -> None:
    """Pin this process to the first CPU it may use and leave the others
    to the server's workers (see :func:`place_server`).

    The load generator and each server's router run on the front CPU, so
    the workers, which do the program's work, never wait for a CPU the
    generator holds, and the scheduler cannot deal the processes out
    differently from one run to the next.  With one CPU nothing is
    pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.environ[CPU_SPLIT_ENV] = f"{cpus[0]}/" + ",".join(str(cpu) for cpu in cpus[1:])
    os.sched_setaffinity(0, {cpus[0]})


def _cpu_split() -> Optional[Tuple[set, set]]:
    text = os.environ.get(CPU_SPLIT_ENV)
    if not text:
        return None
    front, workers = text.split("/")
    return {int(front)}, {int(cpu) for cpu in workers.split(",")}


def release_cpus() -> None:
    """Let the server process start on every CPU of the split: a start
    (``setup_s``) is not a phase of the pinned layout."""
    split = _cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[0] | split[1])


def _pin_threads(pid: int, cpus: set) -> None:
    try:
        threads = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return
    for thread in threads:
        try:
            os.sched_setaffinity(int(thread), cpus)
        except ProcessLookupError:
            pass


def place_server(worker_pids: Iterable[int]) -> None:
    """Once the server has started: pin every thread of this process (the
    router) to the front CPU and every thread of the workers to the
    worker CPUs, if :func:`place_front` chose a split."""
    split = _cpu_split()
    if split is None:
        return
    _pin_threads(os.getpid(), split[0])
    for pid in worker_pids:
        _pin_threads(pid, split[1])


# -- server process -------------------------------------------------------------


def repro_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class ServerHandle:
    """A :mod:`perfbench.server` process and the ports it reported."""

    process: "subprocess.Popen[str]"
    router_port: int
    worker_ports: List[int]
    worker_pids: List[int] = field(default_factory=list)
    setup_s: float = 0.0
    stopped: bool = field(default=False)

    def _command(self, word: str) -> Dict[str, object]:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        line = read_line(self.process, CHILD_START_TIMEOUT_S)
        return json.loads(line)

    def cpu_ns(self) -> int:
        """CPU time the server has run so far, summed over every thread of
        the server process (the router) and of its workers (from
        ``/proc/<pid>/task/<tid>/schedstat``, in ns)."""
        return cpu_ns([self.process.pid] + self.worker_pids)

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the server process and its workers."""
        reply = self._command("rss")
        return float(reply["peak_rss_mb"])  # type: ignore[arg-type]

    def stop(self) -> None:
        """Stop the server and wait until its process has exited."""
        if self.stopped:
            return
        self.stopped = True
        try:
            self._command("stop")
        except (BenchError, OSError, ValueError):
            pass
        end_process(self.process)


def end_process(process: "subprocess.Popen[str]") -> None:
    """Wait for a child to exit; ask it with SIGTERM, then force it.

    The benchmark's child scripts turn SIGTERM into a normal exit, so
    they still stop the processes they started themselves.
    """
    try:
        process.wait(timeout=30)
        return
    except subprocess.TimeoutExpired:
        process.terminate()
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)


def read_line(process: "subprocess.Popen[str]", timeout: float) -> str:
    assert process.stdout is not None
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"child process silent for {timeout:.0f}s; see {CHILD_LOG}")
    line = process.stdout.readline()
    if not line:
        raise BenchError(
            f"child process exited (code {process.poll()}) before answering; "
            f"see {CHILD_LOG}"
        )
    return line


#: Where child processes' standard error goes (server shutdown noise
#: stays out of the benchmark's own output).
CHILD_LOG = os.path.join(WORK_DIR, "children.log")


def exit_on_sigterm() -> None:
    """Make SIGTERM raise :class:`SystemExit` in a child script, so its
    ``finally`` blocks stop what it started.

    Processes the script forks inherit the handler; they keep the default
    action (the server stops its workers with SIGTERM).
    """
    owner = os.getpid()

    def handle(signum: int, frame: object) -> None:
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        sys.exit(1)

    signal.signal(signal.SIGTERM, handle)


def spawn(module: str, argument: str) -> "subprocess.Popen[str]":
    """Start ``python -m <module> <argument>`` in the checkout, with pipes
    for its commands and answers and its standard error in
    :data:`CHILD_LOG`."""
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(CHILD_LOG, "a", encoding="utf-8") as log:
        return subprocess.Popen(
            [sys.executable, "-m", module, argument],
            cwd=ROOT,
            env=repro_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )


def launch_server(config: Dict[str, object]) -> ServerHandle:
    """Start a server process and time launch → first correct answer.

    The first answer is a ``hello`` through the router; its session is
    closed again so it does not count toward the workload.
    """
    started = time.perf_counter()
    process = spawn("perfbench.server", json.dumps(config))
    try:
        ready = json.loads(read_line(process, CHILD_START_TIMEOUT_S))
        handle = ServerHandle(
            process,
            int(ready["router_port"]),
            list(ready["worker_ports"]),
            list(ready["worker_pids"]),
        )
        client = LineClient(handle.router_port)
        try:
            hello = client.call({"op": "hello"})
            if hello.get("ok") is not True:
                raise BenchError(f"first hello failed: {hello}")
            handle.setup_s = time.perf_counter() - started
            bye = client.call({"op": "bye", "session": hello["session"]})
            if bye.get("ok") is not True:
                raise BenchError(f"first bye failed: {bye}")
        finally:
            client.close()
    except BaseException:
        process.terminate()
        end_process(process)
        raise
    return handle


def timed_launches(config: Dict[str, object]) -> Tuple[ServerHandle, List[float]]:
    """Launch the server :data:`SETUPS_BEFORE` times; keep the last one."""
    setups: List[float] = []
    handle: Optional[ServerHandle] = None
    for launch in range(SETUPS_BEFORE):
        handle = launch_server(config)
        setups.append(handle.setup_s)
        if launch < SETUPS_BEFORE - 1:
            handle.stop()
    assert handle is not None
    return handle, setups


def later_launches(config: Dict[str, object], setups: List[float]) -> None:
    """After the window: the rest of the run's set-ups, each stopped again."""
    while len(setups) < SETUP_LAUNCHES:
        handle = launch_server(config)
        setups.append(handle.setup_s)
        handle.stop()


# -- files ----------------------------------------------------------------------


def scratch_dir(prefix: str) -> str:
    """A fresh directory under :data:`WORK_DIR` (the caller removes it)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def cpu_ns(pids: Iterable[int]) -> int:
    """Summed on-CPU time of every live thread of the given processes."""
    total = 0
    for pid in pids:
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for thread in threads:
            try:
                with open(f"/proc/{pid}/task/{thread}/schedstat", encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass
    return total


def steal_ticks() -> List[int]:
    """Per-CPU stolen time so far (``/proc/stat``, in clock ticks)."""
    ticks = []
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("cpu") and line[3].isdigit():
                ticks.append(int(line.split()[8]))
    return ticks


def stolen_share(before: Sequence[int], after: Sequence[int], wall_s: float) -> float:
    """Share of the machine's CPU time the host took away between two
    :func:`steal_ticks` readings ``wall_s`` seconds apart."""
    ticks = sum(after) - sum(before)
    return ticks / (os.sysconf("SC_CLK_TCK") * len(after) * wall_s)


def vm_hwm_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak RSS) of the given live processes, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue
    return total_kb / 1024.0

