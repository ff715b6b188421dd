"""The live stats plane: ServiceStats distributions + the {"op": "stats"} wire.

Covers the request-lifecycle histograms (queue-wait / batch-wall /
total-latency), flush-cause counters, the lock-guarded worker-thread
mutation path, and the TCP admin op end to end (including the
``stats_over_tcp`` client behind ``gpu-aco stats``).
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core import ACOParams
from repro.errors import ACOConfigError, ServeError
from repro.obs import PHASE_HISTOGRAMS
from repro.serve import (
    ServiceStats,
    SolveRequest,
    SolveService,
    request_over_tcp,
    serve_tcp,
    stats_over_tcp,
)
from repro.serve.protocol import MAX_RESPONSE_LINE_BYTES
from repro.serve.service import FLUSH_CAUSES, REQUEST_OUTCOMES
from repro.tsp import uniform_instance


def run_async(coro):
    return asyncio.run(coro)


def _request(n_seed=21, **kwargs):
    kwargs.setdefault("iterations", 3)
    kwargs.setdefault("report_every", 1)
    return SolveRequest(
        instance=uniform_instance(16, seed=n_seed),
        params=ACOParams(seed=5, nn=7),
        **kwargs,
    )


class TestServiceStats:
    def test_observe_flush_counts_cause_and_occupancy(self):
        stats = ServiceStats()
        key = _request().bucket_key
        stats.observe_flush(key, "full", [0.01, 0.02])
        stats.observe_flush(key, "max_wait", [0.03])
        assert stats.flush_causes == {
            "full": 1, "idle": 0, "max_wait": 1, "drain": 0
        }
        assert stats.rows_per_bucket[key] == 3
        assert stats.queue_wait.count == 3
        assert stats.batch_rows.count == 2
        assert stats.batch_rows.max == 2.0

    def test_observe_flush_rejects_unknown_cause(self):
        with pytest.raises(ACOConfigError):
            ServiceStats().observe_flush(_request().bucket_key, "panic", [])

    def test_observe_resolution_outcomes(self):
        stats = ServiceStats()
        for outcome, latency in (
            ("completed", 0.5),
            ("target", 0.1),
            ("deadline", 1.0),
            ("failed", 0.2),
            ("timeout", 0.3),
            ("shed", 0.05),
        ):
            stats.observe_resolution(outcome, latency)
        assert stats.completed == 1
        assert stats.resolved_by_target == 1
        assert stats.resolved_by_deadline == 1
        assert stats.failed == 1
        assert stats.requests_timed_out == 1
        assert stats.requests_shed == 1
        assert stats.request_latency.count == len(REQUEST_OUTCOMES)
        with pytest.raises(ACOConfigError):
            stats.observe_resolution("lost", 0.1)

    def test_snapshot_shape(self):
        stats = ServiceStats()
        stats.observe_submitted()
        stats.observe_resolution("completed", 0.25)
        snap = stats.snapshot()
        json.dumps(snap)  # wire payload must be JSON-friendly
        assert snap["submitted"] == 1
        assert snap["flush_causes"] == dict.fromkeys(FLUSH_CAUSES, 0)
        assert snap["request_latency_seconds"]["count"] == 1
        assert snap["request_latency_seconds"]["p50"] == 0.25
        for dist in (
            "queue_wait_seconds", "batch_wall_seconds", "batch_rows",
        ) + PHASE_HISTOGRAMS:
            assert snap[dist]["count"] == 0

    def test_concurrent_mutation_from_threads(self):
        """Worker threads resolve early riders while the loop thread counts
        completions — the lock must keep every tally exact."""
        stats = ServiceStats()

        def hammer(outcome):
            for _ in range(2000):
                stats.observe_resolution(outcome, 0.001)
                stats.observe_submitted()

        threads = [
            threading.Thread(target=hammer, args=(outcome,))
            for outcome in ("completed", "target", "deadline", "failed")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.submitted == 8000
        assert stats.completed == 2000
        assert stats.resolved_by_target == 2000
        assert stats.resolved_by_deadline == 2000
        assert stats.failed == 2000
        assert stats.request_latency.count == 8000


class TestLifecycleDistributions:
    def test_latency_histograms_cover_every_request(self):
        async def drive():
            async with SolveService(max_batch=2) as service:
                for _ in range(4):
                    handle = await service.submit(_request())
                    await handle.result()
                return service.stats

        stats = run_async(drive())
        snap = stats.snapshot()
        assert snap["submitted"] == 4
        assert snap["request_latency_seconds"]["count"] == 4
        assert snap["queue_wait_seconds"]["count"] == 4
        assert snap["batch_wall_seconds"]["count"] == snap["batches"]
        assert snap["rows_packed"] == 4
        assert snap["request_latency_seconds"]["p95"] > 0.0
        # Queue wait is part of total latency, never more than it.
        assert (
            snap["queue_wait_seconds"]["p50"]
            <= snap["request_latency_seconds"]["max"]
        )

    def test_flush_cause_full_when_bucket_fills(self):
        async def drive():
            async with SolveService(max_batch=2) as service:
                handles = [await service.submit(_request()) for _ in range(2)]
                for h in handles:
                    await h.result()
                return service.stats

        stats = run_async(drive())
        # The dispatcher runs a tick after the submits, so both pack.
        assert stats.flush_causes == {
            "full": 1, "idle": 0, "max_wait": 0, "drain": 0
        }
        assert sum(stats.flush_causes.values()) == stats.batches

    def test_flush_cause_idle_for_partial_bucket(self):
        async def drive():
            async with SolveService(max_batch=8) as service:
                handle = await service.submit(_request())
                await handle.result()
                return service.stats

        stats = run_async(drive())
        assert stats.flush_causes == {
            "full": 0, "idle": 1, "max_wait": 0, "drain": 0
        }
        assert sum(stats.flush_causes.values()) == stats.batches

    def test_flush_cause_drain_on_shutdown(self):
        async def drive():
            service = SolveService(max_batch=8)
            await service.start()
            handle = await service.submit(_request())
            await service.drain()  # flushes the waiting partial bucket
            await handle.result()
            return service.stats

        stats = run_async(drive())
        assert stats.flush_causes == {
            "full": 0, "idle": 0, "max_wait": 0, "drain": 1
        }
        assert sum(stats.flush_causes.values()) == stats.batches


class TestStatsWire:
    def test_stats_op_roundtrip(self):
        async def drive():
            async with SolveService(max_batch=1) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    handle = await service.submit(_request())
                    await handle.result()
                    snap = await stats_over_tcp("127.0.0.1", port)
                finally:
                    server.close()
                    await server.wait_closed()
                return snap

        snap = run_async(drive())
        assert snap["submitted"] == 1
        assert snap["completed"] == 1
        assert snap["request_latency_seconds"]["count"] == 1
        assert snap["flush_causes"]["full"] == 1  # max_batch=1 fills instantly
        # The batch's engine published into the service registry: one
        # observation per report block (3 iterations, report_every=1).
        assert snap["engine.phase.construct"]["count"] == 3
        assert snap["engine.phase.update"]["count"] == 3
        assert snap["engine.phase.construct"]["total"] > 0.0
        assert snap["engine.phase.local-search"]["count"] == 0

    def test_long_lived_stats_line_stays_small(self):
        """Histogram payloads are bounded by the span of the values, not by
        the run: 20,000 observations per histogram still fit well inside
        asyncio's 64 KiB default stream limit."""

        async def drive():
            async with SolveService(max_batch=1) as service:
                registry = service.stats.registry
                for name in list(registry.snapshot()["histograms"]):
                    for i in range(20_000):
                        registry.observe(name, 1e-4 * (1 + i % 5000))
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    return await stats_over_tcp("127.0.0.1", port)
                finally:
                    server.close()
                    await server.wait_closed()

        snap = run_async(drive())
        assert len(json.dumps(snap)) < 1 << 14
        for key in ("queue_wait_seconds",) + PHASE_HISTOGRAMS:
            assert snap[key]["count"] == 20_000
            assert sum(snap[key]["buckets"][1]) == 20_000
            assert snap[key]["min"] == 1e-4 and snap[key]["max"] == 0.5

    @pytest.mark.parametrize("client", ["stats", "request"])
    def test_clients_read_response_lines_past_64_kib(self, client):
        """Result lines grow with the city and iteration counts, so the
        client helpers read lines up to ``MAX_RESPONSE_LINE_BYTES``: a stub
        server answers with a 1 MiB line, 16 times asyncio's default
        stream limit."""
        pad = "x" * (1 << 20)

        async def answer(reader, writer):
            obj = json.loads(await reader.readline())
            if client == "stats":
                reply = {"type": "stats", "id": obj["id"], "stats": {"pad": pad}}
            else:
                reply = {"type": "result", "id": obj["id"], "pad": pad}
            writer.write((json.dumps(reply) + "\n").encode())
            await writer.drain()
            writer.close()

        async def drive():
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                if client == "stats":
                    return await stats_over_tcp("127.0.0.1", port)
                _, final = await request_over_tcp("127.0.0.1", port, _request())
                return final
            finally:
                server.close()
                await server.wait_closed()

        assert MAX_RESPONSE_LINE_BYTES > len(pad) > 1 << 16
        assert run_async(drive())["pad"] == pad

    def test_stats_op_echoes_id_and_interleaves_with_solves(self):
        async def drive():
            async with SolveService(max_batch=1) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(b'{"op": "stats", "id": "s7"}\n')
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), timeout=10)
                    obj = json.loads(line)
                    # The same connection still accepts solve requests.
                    writer.write(
                        b'{"id": "ok", "instance": {"suite": "att48"},'
                        b' "iterations": 1}\n'
                    )
                    await writer.drain()
                    accepted = json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=10)
                    )
                    writer.close()
                    await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()
                return obj, accepted

        obj, accepted = run_async(drive())
        assert obj["type"] == "stats"
        assert obj["id"] == "s7"
        assert "request_latency_seconds" in obj["stats"]
        assert accepted == {"type": "accepted", "id": "ok"}

    def test_unknown_op_gets_error_line(self):
        async def drive():
            async with SolveService(max_batch=1) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(b'{"op": "reboot", "id": "x"}\n')
                    await writer.drain()
                    obj = json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=10)
                    )
                    writer.close()
                    await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()
                return obj

        obj = run_async(drive())
        assert obj["type"] == "error"
        assert "reboot" in obj["message"]

    def test_stats_over_tcp_raises_on_error_response(self):
        async def drive():
            server = await asyncio.start_server(
                _error_responder, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ServeError, match="nope"):
                    await stats_over_tcp("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()

        async def _error_responder(reader, writer):
            await reader.readline()
            writer.write(
                b'{"type": "error", "error": "X", "message": "nope"}\n'
            )
            await writer.drain()
            writer.close()

        run_async(drive())


class TestInProcessClient:
    def test_client_stats_matches_service(self):
        from repro.serve import AsyncSolveClient

        async def drive():
            async with SolveService(max_batch=1) as service:
                client = AsyncSolveClient(service)
                await client.solve_and_wait(
                    uniform_instance(16, seed=21),
                    params=ACOParams(seed=5, nn=7),
                    iterations=2,
                )
                return client.stats(), service.stats.snapshot()

        client_snap, service_snap = run_async(drive())
        assert client_snap["submitted"] == service_snap["submitted"] == 1
        assert client_snap["completed"] == 1
