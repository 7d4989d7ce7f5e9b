"""The closed-loop load generator over the line protocol.

It runs in the benchmark process on one thread, with at most two
connections.  Each connection keeps a fixed number of requests out: a
new one goes as soon as an answer arrives.
"""

from __future__ import annotations

import json
import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from perfbench.common import (
    WIRE_TIMEOUT_S,
    OpCounts,
    generator_gc_paused,
    tally,
)
from perfbench.inputs import Script

#: Called with (runner, parsed response, whether it succeeded).
ResponseHook = Callable[["Runner", Dict[str, object], bool], None]


class Runner:
    """Steps one session script: its pending request line."""

    __slots__ = ("script", "line", "done", "key")

    def __init__(self, script: Script, key: object = None) -> None:
        self.script = script
        self.line: Optional[str] = next(script)
        self.done = False
        self.key = key

    def answer(self, response: Optional[Dict[str, object]]) -> None:
        """Hand the script its answer and fetch the next line."""
        try:
            self.line = self.script.send(response)  # type: ignore[arg-type]
        except StopIteration:
            self.line = None
            self.done = True


def samples_in(response: Dict[str, object]) -> int:
    """Samples a successful response answered."""
    if response.get("op") == "sample_batch":
        return int(response["count"])  # type: ignore[arg-type]
    if response.get("op") == "sample":
        return 1
    return 0


@dataclass
class Window:
    """Every request one connection completed inside the timed window:
    when it finished, its round trip, and the samples it answered OK
    (``-1`` for a failed request)."""

    finished: List[float] = field(default_factory=list)
    rtts: List[float] = field(default_factory=list)
    samples: List[int] = field(default_factory=list)


@dataclass
class ClosedResult:
    counts: OpCounts
    window: Window
    aborted: Optional[str] = None


#: Read at each of ``closed_loop``'s marks, e.g. the server's CPU time.
Probe = Callable[[], object]


class _Lane:
    """One connection of the closed loop and the requests it has out.

    ``idle`` holds runners waiting to send their next line and ``inflight``
    the runners whose line is out, oldest first, with each line's send
    time.  The server answers a connection's lines in order, so the next
    response always belongs to the oldest runner in flight.
    """

    def __init__(self, port: int, runners: Sequence[Runner], depth: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), WIRE_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.idle: Deque[Runner] = deque(runners)
        self.depth = depth
        self.inflight: Deque[Tuple[Runner, float]] = deque()
        self.inbuf = bytearray()
        self.result = ClosedResult(OpCounts(), Window())

    def fill(self, window_end: float) -> None:
        """Send lines until ``depth`` are out, no runner has one, or the
        window has closed."""
        lines = []
        while len(self.inflight) < self.depth and self.idle:
            now = time.perf_counter()
            if now >= window_end:
                break
            runner = self.idle.popleft()
            assert runner.line is not None
            self.inflight.append((runner, now))
            lines.append(runner.line)
        if not lines:
            return
        self.result.counts.sent += len(lines)
        try:
            self.sock.sendall(("\n".join(lines) + "\n").encode())
        except OSError as error:
            self.abort(f"connection lost: {error}")

    def abort(self, why: str) -> None:
        """Count every request still out as failed (or timed out)."""
        lost = max(1, len(self.inflight))
        if why == "wire timeout":
            self.result.counts.timed_out += lost
        else:
            self.result.counts.failed += lost
        self.result.aborted = why
        self.inflight.clear()
        self.idle.clear()


def closed_loop(
    port: int,
    lanes: Sequence[Sequence[Runner]],
    on_response: ResponseHook,
    window_start: float,
    window_end: float,
    depth: int,
    marks: Sequence[float] = (),
    probe: Optional[Probe] = None,
    probes: Optional[List[Tuple[float, object]]] = None,
) -> List[ClosedResult]:
    """Drive one connection per lane (a list of runners), each with up to
    ``depth`` requests out, until the window closes and every answer is
    in; returns each connection's result.

    Keeping several requests out on each connection keeps the router and
    the workers busy, so the window measures how fast the server answers
    rather than how fast the host wakes each process for each message.
    A runner has at most one request out; a new one is sent the moment a
    response frees a slot.  One thread serves every connection.  A
    response's round trip, from its send to the moment the wait that saw
    it returned, includes its time queued behind the requests ahead of
    it.  Requests sent and answered inside [``window_start``,
    ``window_end``] count toward the window.  A wire timeout or a lost
    connection ends that connection and is counted, so the run can never
    hang on the server.  At the first wake-up at or after each of
    ``marks`` the loop appends ``(time, probe())`` to ``probes``.
    """
    pending = deque(marks)
    open_lanes = [_Lane(port, lane, depth) for lane in lanes]
    try:
        with generator_gc_paused():
            for lane in open_lanes:
                lane.fill(window_end)
            busy = [lane for lane in open_lanes if lane.inflight]
            while busy:
                ready, _, _ = select.select([lane.sock for lane in busy], [], [], WIRE_TIMEOUT_S)
                finished = time.perf_counter()
                while pending and finished >= pending[0]:
                    pending.popleft()
                    probes.append((finished, probe()))  # type: ignore[union-attr,misc]
                if not ready:
                    for lane in busy:
                        lane.abort("wire timeout")
                    break
                for lane in list(busy):
                    if lane.sock not in ready:
                        continue
                    try:
                        chunk = lane.sock.recv(1 << 18)
                    except OSError as error:
                        chunk, why = b"", f"connection lost: {error}"
                    else:
                        why = "connection lost: server closed the connection"
                    if not chunk:
                        lane.abort(why)
                        busy.remove(lane)
                        continue
                    lane.inbuf += chunk
                    _answer_lines(lane, finished, window_start, window_end, on_response)
                    lane.fill(window_end)
                    if not lane.inflight:
                        busy.remove(lane)
    finally:
        for lane in open_lanes:
            lane.sock.close()
    return [lane.result for lane in open_lanes]


def _answer_lines(
    lane: _Lane,
    finished: float,
    window_start: float,
    window_end: float,
    on_response: ResponseHook,
) -> None:
    """Count every complete response line and hand each to its runner."""
    cut = lane.inbuf.find(b"\n")
    begin = 0
    while cut >= 0:
        response = json.loads(bytes(lane.inbuf[begin:cut]))
        begin = cut + 1
        runner, started = lane.inflight.popleft()
        ok = tally(lane.result.counts, response)
        if window_start <= started and finished <= window_end:
            window = lane.result.window
            window.finished.append(finished)
            window.rtts.append(finished - started)
            window.samples.append(samples_in(response) if ok else -1)
        on_response(runner, response, ok)
        runner.answer(response)
        if not runner.done:
            lane.idle.append(runner)
        cut = lane.inbuf.find(b"\n", begin)
    del lane.inbuf[:begin]
