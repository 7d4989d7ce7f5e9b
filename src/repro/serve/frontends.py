"""Transport frontends for the serving layer: stdio and asyncio TCP.

Both frontends speak the same line-delimited JSON protocol via
:func:`repro.serve.protocol.handle_line`; they differ only in how bytes
arrive and leave.

**stdio** is a synchronous loop: read a line, answer a line, flush.
It exists for `repro serve stdio`, piping a client over a subprocess
boundary, and for deterministic tests.

**TCP** is an asyncio server with explicit overload protection per
connection: a bounded request queue sits between the socket reader and
the worker that executes requests.  When a client floods requests faster
than the server answers, the reader stops consuming once the queue is
full, TCP flow control pushes back on the sender, and ``writer.drain()``
bounds the outgoing buffer.  Responses stay in request order because a
single worker drains the queue sequentially.

Time is taken from an injectable clock (default ``time.monotonic``,
passed by reference) so idle eviction and latency budgets work on wall
time in production but can run on a fake clock in tests.
"""

from __future__ import annotations

import asyncio
import time
from typing import IO, Awaitable, Callable, Optional

from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    error_response,
    handle_line,
    serialize_response,
)
from repro.serve.session import Clock

#: One request line in, one response line out — the contract both the
#: in-process dispatcher and the shard router's forwarding loop satisfy.
LineHandler = Callable[[str], Awaitable[str]]

#: Wall clock used by production frontends (a reference, so tests can
#: substitute a deterministic callable).
DEFAULT_CLOCK: Clock = time.monotonic

#: Per-connection request-queue depth; when full, the reader stops
#: consuming and TCP flow control throttles the client.
DEFAULT_QUEUE_DEPTH = 64

#: Queue marker for a request line over ``MAX_LINE_BYTES`` (real request
#: lines are never empty: blank ones are skipped before queueing).
_OVERLONG = ""
_OVERLONG_RESPONSE = serialize_response(
    error_response(
        "bad_request", f"request line exceeds {MAX_LINE_BYTES} bytes; split it"
    )
)


def serve_stdio(
    manager: SessionManager,
    stdin: IO[str],
    stdout: IO[str],
) -> int:
    """Serve line-delimited JSON over text streams until EOF.

    Returns the number of requests handled.  Blank lines are ignored so
    interactive use tolerates stray newlines.
    """
    handled = 0
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        stdout.write(handle_line(manager, line) + "\n")
        stdout.flush()
        handled += 1
    return handled


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop the rest of an over-long line, through its newline or EOF."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as overrun:
            await reader.readexactly(overrun.consumed)
        except asyncio.IncompleteReadError:
            return


async def relay_lines(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    answer: LineHandler,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
) -> None:
    """Pump request lines through ``answer`` with bounded buffering.

    The backpressure core shared by the in-process TCP frontend and the
    shard router: a bounded queue sits between the socket reader and the
    single worker that calls ``answer`` in order.  When the queue fills,
    the reader stops consuming and TCP flow control throttles the
    client; ``writer.drain()`` bounds the outgoing buffer.  Responses
    stay in request order because one worker drains the queue.
    """
    queue: "asyncio.Queue[Optional[str]]" = asyncio.Queue(maxsize=queue_depth)

    async def read_requests() -> None:
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    raw = eof.partial  # a last unterminated line, or EOF
                    if not raw:
                        break
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    await queue.put(_OVERLONG)
                    continue
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                # Blocks when the queue is full: the socket stops being
                # read and TCP flow control throttles the client.
                await queue.put(line)
        finally:
            await queue.put(None)

    async def answer_requests() -> None:
        while True:
            line = await queue.get()
            if line is None:
                break
            response = _OVERLONG_RESPONSE if line == _OVERLONG else await answer(line)
            writer.write((response + "\n").encode("utf-8"))
            await writer.drain()

    read_task = asyncio.ensure_future(read_requests())
    try:
        await answer_requests()
    finally:
        read_task.cancel()
        try:
            await read_task
        except (asyncio.CancelledError, Exception):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (asyncio.CancelledError, Exception):
            # Connection teardown races server shutdown; either way the
            # transport is gone and there is nothing left to release.
            pass


async def _handle_connection(
    manager: SessionManager,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    queue_depth: int,
) -> None:
    """One client connection: bounded queue between reader and worker."""

    async def answer(line: str) -> str:
        return handle_line(manager, line)

    await relay_lines(reader, writer, answer, queue_depth)


async def serve_tcp_async(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 0,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    ready: "Optional[asyncio.Future[int]]" = None,
) -> None:
    """Run the asyncio TCP server until cancelled.

    Binds ``host:port`` (``port=0`` picks a free port) and, when
    ``ready`` is given, resolves it with the bound port once the server
    is accepting connections — tests use this instead of polling.
    """

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _handle_connection(manager, reader, writer, queue_depth)
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection handlers;
            # swallowing here keeps asyncio's stream machinery from
            # logging the cancellation as an unhandled error.
            pass

    server = await asyncio.start_server(
        on_connect, host=host, port=port, limit=MAX_LINE_BYTES
    )
    sockets = server.sockets or []
    bound_port = sockets[0].getsockname()[1] if sockets else port
    if ready is not None and not ready.done():
        ready.set_result(bound_port)
    async with server:
        await server.serve_forever()


def serve_tcp(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 8472,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
) -> None:
    """Blocking entry point for ``repro serve tcp``.

    Runs :func:`serve_tcp_async` on a fresh event loop until
    interrupted.
    """
    try:
        asyncio.run(
            serve_tcp_async(
                manager, host=host, port=port, queue_depth=queue_depth
            )
        )
    except KeyboardInterrupt:
        pass
