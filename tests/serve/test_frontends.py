"""Transport frontends: stdio loop and asyncio TCP server."""

import asyncio
import io
import json
import random

from repro.serve import (
    MAX_BATCH_SAMPLES,
    MAX_LINE_BYTES,
    SessionManager,
    serve_stdio,
    serve_tcp_async,
)


def run_stdio(requests, **manager_kwargs):
    manager = SessionManager(**manager_kwargs)
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    stdout = io.StringIO()
    handled = serve_stdio(manager, stdin, stdout)
    responses = [
        json.loads(line) for line in stdout.getvalue().splitlines() if line
    ]
    return handled, responses, manager


class TestStdio:
    def test_full_session_over_stdio(self):
        handled, responses, manager = run_stdio(
            [
                {"op": "hello", "governor": "reactive"},
                {"op": "sample", "session": "s1", "interval": 0, "mem_per_uop": 0.001},
                {"op": "sample", "session": "s1", "interval": 1, "mem_per_uop": 0.001},
                {"op": "bye", "session": "s1"},
            ]
        )
        assert handled == 4
        assert [r["ok"] for r in responses] == [True, True, True, True]
        assert responses[2]["hit"] is True  # constant series: last-value hits
        assert manager.active_sessions == 0

    def test_one_response_line_per_request(self):
        handled, responses, _ = run_stdio(
            [{"op": "stats"}, {"op": "nope"}, {"op": "stats"}]
        )
        assert handled == 3
        assert len(responses) == 3
        assert responses[1]["error"] == "bad_request"

    def test_blank_lines_ignored(self):
        manager = SessionManager()
        stdin = io.StringIO('\n\n{"op":"stats"}\n\n')
        stdout = io.StringIO()
        assert serve_stdio(manager, stdin, stdout) == 1

    def test_errors_do_not_stop_the_loop(self):
        handled, responses, _ = run_stdio(
            [{"op": "sample", "session": "sX", "interval": 0, "mem_per_uop": 1},
             {"op": "hello"}]
        )
        assert handled == 2
        assert responses[0]["error"] == "unknown_session"
        assert responses[1]["ok"] is True


async def _with_server(manager, interact, queue_depth=64):
    """Run the TCP server, call ``interact(reader, writer)``, tear down."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    server = asyncio.ensure_future(
        serve_tcp_async(manager, port=0, queue_depth=queue_depth, ready=ready)
    )
    port = await asyncio.wait_for(ready, timeout=5)
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_LINE_BYTES
    )
    try:
        return await interact(reader, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass


async def _rpc(reader, writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), timeout=5))


class TestTCP:
    def test_full_session_over_tcp(self):
        async def interact(reader, writer):
            response = await _rpc(reader, writer, {"op": "hello"})
            assert response["ok"], response
            session = response["session"]
            for index, value in enumerate([0.001, 0.02, 0.05]):
                response = await _rpc(
                    reader,
                    writer,
                    {
                        "op": "sample",
                        "session": session,
                        "interval": index,
                        "mem_per_uop": value,
                    },
                )
                assert response["ok"], response
            response = await _rpc(reader, writer, {"op": "stats", "session": session})
            assert response["stats"]["samples"] == 3
            return await _rpc(reader, writer, {"op": "bye", "session": session})

        manager = SessionManager()
        response = asyncio.run(_with_server(manager, interact))
        assert response["ok"] is True
        assert manager.active_sessions == 0

    def test_pipelined_requests_answered_in_order(self):
        async def interact(reader, writer):
            # Fire everything without awaiting responses, then read back.
            requests = [{"op": "hello"}] + [
                {
                    "op": "sample",
                    "session": "s1",
                    "interval": index,
                    "mem_per_uop": 0.001,
                }
                for index in range(20)
            ]
            blob = "".join(json.dumps(r) + "\n" for r in requests)
            writer.write(blob.encode())
            await writer.drain()
            responses = []
            for _ in requests:
                responses.append(
                    json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                )
            return responses

        responses = asyncio.run(_with_server(SessionManager(), interact))
        assert responses[0]["session"] == "s1"
        assert [r["interval"] for r in responses[1:]] == list(range(20))

    def test_small_queue_still_serves_a_burst(self):
        # Queue depth 2 with a 40-request burst: backpressure, not loss.
        async def interact(reader, writer):
            requests = [{"op": "stats"} for _ in range(40)]
            writer.write(
                "".join(json.dumps(r) + "\n" for r in requests).encode()
            )
            await writer.drain()
            count = 0
            for _ in requests:
                await asyncio.wait_for(reader.readline(), timeout=5)
                count += 1
            return count

        count = asyncio.run(
            _with_server(SessionManager(), interact, queue_depth=2)
        )
        assert count == 40

    def test_malformed_line_answers_error_and_keeps_connection(self):
        async def interact(reader, writer):
            writer.write(b"this is not json\n")
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
            second = await _rpc(reader, writer, {"op": "hello"})
            return first, second

        first, second = asyncio.run(_with_server(SessionManager(), interact))
        assert first["error"] == "bad_request"
        assert second["ok"] is True

    def test_full_batch_and_overlong_line_keep_the_connection(self):
        rng = random.Random(2006)
        samples = [
            [rng.random() / 16, rng.random() * 2] for _ in range(MAX_BATCH_SAMPLES)
        ]

        async def interact(reader, writer):
            session = (await _rpc(reader, writer, {"op": "hello"}))["session"]
            batch = await _rpc(
                reader,
                writer,
                {
                    "op": "sample_batch",
                    "session": session,
                    "start_interval": 0,
                    "samples": samples,
                },
            )
            writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            await writer.drain()
            overlong = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
            stats = await _rpc(reader, writer, {"op": "stats", "session": session})
            return batch, overlong, stats

        batch, overlong, stats = asyncio.run(_with_server(SessionManager(), interact))
        assert batch["count"] == MAX_BATCH_SAMPLES, batch
        assert overlong["error"] == "bad_request"
        assert stats["stats"]["samples"] == MAX_BATCH_SAMPLES
