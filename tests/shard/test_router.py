"""Router tier end-to-end: routing, result parity, folded stats plane.

The e2e tests spawn real worker processes (``multiprocessing`` spawn
context) behind a real TCP front — the same stack ``gpu-aco serve
--shards N`` runs — and pin the acceptance contract: sharded results are
bit-identical to a solo :class:`~repro.core.engine.AntSystem` run, and
the router-aggregated histogram counts equal the sum of the per-shard
counts.  Plain ``asyncio.run`` throughout (no pytest-asyncio here).
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import pytest

from repro.core import ACOParams, AntSystem
from repro.errors import ServeError
from repro.serve import health_over_tcp, request_over_tcp, serve_tcp, stats_over_tcp
from repro.serve.service import SolveRequest
from repro.shard import ShardConfig, ShardRouter, shard_index
from repro.tsp import uniform_instance

ITERATIONS = 5
SIZES = (20, 26)


def _buckets(snap: dict) -> Counter:
    """A histogram snapshot's dense ``[offset, counts]`` buckets, keyed by
    bucket index."""
    offset, counts = snap["buckets"]
    return Counter({offset + i: n for i, n in enumerate(counts) if n})


def _requests() -> list[SolveRequest]:
    reqs = []
    for n in SIZES:
        inst = uniform_instance(n, seed=n)
        for seed in (1, 2, 3):
            reqs.append(
                SolveRequest(
                    instance=inst, params=ACOParams(seed=seed),
                    iterations=ITERATIONS,
                )
            )
    return reqs


def _config() -> ShardConfig:
    return ShardConfig(max_batch=4)


# --------------------------------------------------------------- unit layer


def test_shard_index_is_stable_and_in_range():
    keys = [r.bucket_key for r in _requests()]
    for nshards in (1, 2, 3, 5):
        for key in keys:
            idx = shard_index(key, nshards)
            assert 0 <= idx < nshards
            # Content hash: identical on every evaluation (builtin hash()
            # is salted per process and would not be).
            assert shard_index(key, nshards) == idx
    assert shard_index(keys[0], 1) == 0


def test_known_routing_spread():
    """Sizes 20/26/32 land on three distinct shards of a 3-fleet — the
    layout the chaos test and the CI smoke burst both rely on."""
    assignments = {
        n: shard_index(
            SolveRequest(
                instance=uniform_instance(n, seed=n),
                params=ACOParams(seed=1),
                iterations=6,
            ).bucket_key,
            3,
        )
        for n in (20, 26, 32)
    }
    assert sorted(assignments.values()) == [0, 1, 2], assignments


def test_router_constructor_validation():
    with pytest.raises(ServeError, match="shards must be >= 1"):
        ShardRouter(0)
    with pytest.raises(ServeError, match="max_routed"):
        ShardRouter(2, max_routed=0)


def test_submit_before_start_is_draining_error():
    async def _go():
        router = ShardRouter(2)
        with pytest.raises(ServeError, match="draining"):
            await router.submit_wire({}, "r0", None, None)

    asyncio.run(_go())


# ---------------------------------------------------------------- e2e layer


def test_sharded_burst_bit_identical_with_exact_stats_fold():
    reqs = _requests()

    async def _go():
        async with ShardRouter(2, _config()) as router:
            server = await serve_tcp(router, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                results = await asyncio.gather(
                    *(
                        request_over_tcp(
                            "127.0.0.1", port, r,
                            req_id=f"r{i}", read_timeout=120,
                        )
                        for i, r in enumerate(reqs)
                    )
                )
                stats = await stats_over_tcp("127.0.0.1", port)
                health = await health_over_tcp("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()
            return results, stats, health

    results, stats, health = asyncio.run(_go())

    # Bit-identical to the solo engine, for every request in the burst.
    for (_updates, final), request in zip(results, reqs):
        solo = AntSystem(request.instance, request.params).run(
            request.iterations
        )
        assert final["best_length"] == solo.best_length
        assert final["best_tour"] == [int(c) for c in solo.best_tour]

    # The stats plane is a service-shaped payload stamped as the router's.
    assert stats["source"] == "router"
    assert stats["submitted"] == len(reqs)
    assert stats["completed"] == len(reqs)
    assert stats["router"]["requests_routed"] == len(reqs)
    assert stats["router"]["requests_shed"] == 0
    assert stats["router"]["shards_respawned"] == 0
    assert stats["router"]["outstanding"] == 0

    # Acceptance pin: the folded histogram count equals the sum of the
    # per-shard counts, exactly, for every distribution.
    per_shard = stats["per_shard"]
    for key in (
        "queue_wait_seconds",
        "batch_wall_seconds",
        "request_latency_seconds",
        "batch_rows",
    ):
        assert stats[key]["count"] == sum(
            shard[key]["count"] for shard in per_shard.values()
        )
        # ... and so does every bucket: the fold is a bucket-wise add.
        assert _buckets(stats[key]) == sum(
            (_buckets(shard[key]) for shard in per_shard.values()), Counter()
        )
    assert stats["request_latency_seconds"]["count"] == len(reqs)
    assert sum(s["submitted"] for s in per_shard.values()) == len(reqs)

    # Health fold: every shard alive and accounted for.
    assert health["source"] == "router"
    assert health["shards"] == 2
    assert health["shards_healthy"] == 2
    assert health["accepting"] is True
    assert set(health["per_shard"]) == {"0", "1"}
    for summary in health["per_shard"].values():
        assert summary["state"] == "healthy"
        assert summary["outstanding"] == 0


def test_rolling_restart_keeps_serving():
    inst = uniform_instance(18, seed=18)

    def _request(seed: int) -> SolveRequest:
        return SolveRequest(
            instance=inst, params=ACOParams(seed=seed), iterations=4
        )

    async def _go():
        async with ShardRouter(1, _config()) as router:
            server = await serve_tcp(router, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                _, before = await request_over_tcp(
                    "127.0.0.1", port, _request(1), read_timeout=120
                )
                first_pid = router.shards[0].pid
                await asyncio.wait_for(router.rolling_restart(), 120)
                _, after = await request_over_tcp(
                    "127.0.0.1", port, _request(1), read_timeout=120
                )
                stats = await stats_over_tcp("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()
            return before, after, first_pid, router.shards[0].pid, stats

    before, after, pid_before, pid_after, stats = asyncio.run(_go())
    assert pid_after != pid_before  # genuinely a new worker process
    assert after["best_length"] == before["best_length"]
    assert after["best_tour"] == before["best_tour"]
    # Planned restarts are not failovers.
    assert stats["router"]["shards_respawned"] == 0
    # The replacement worker's stats plane starts fresh: only the second
    # request is visible post-restart.
    assert stats["submitted"] == 1


def test_distinct_instance_stream_forwards_inline():
    """Every request carries a new inline instance, forwarded to its
    worker inside the request line: every result arrives, each equals a
    solo run over the instance the client sent, and nothing stays
    outstanding."""
    from repro.serve.protocol import encode_request

    count = 300
    # Sizes 8 and 9 hash to different shards of a 2-fleet at 1 iteration.
    reqs = [
        SolveRequest(
            instance=uniform_instance(8 + i % 2, seed=1000 + i),
            params=ACOParams(seed=1),
            iterations=1,
        )
        for i in range(count)
    ]
    assert {shard_index(r.bucket_key, 2) for r in reqs} == {0, 1}

    async def _go():
        async with ShardRouter(2, ShardConfig(max_batch=8)) as router:
            server = await serve_tcp(router, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for i, request in enumerate(reqs):
                    writer.write(encode_request(request, f"r{i}"))
                await writer.drain()
                finals: dict[str, dict] = {}
                while len(finals) < count:
                    line = await asyncio.wait_for(reader.readline(), 120)
                    assert line, "router closed the connection mid-stream"
                    obj = json.loads(line)
                    assert obj.get("type") != "error", obj
                    if obj["type"] == "result":
                        finals[obj["id"]] = obj
                writer.close()
                await writer.wait_closed()
                # Before drain/stop, which would answer leftovers anyway.
                left = router.outstanding
            finally:
                server.close()
                await server.wait_closed()
            return finals, left

    finals, left = asyncio.run(_go())
    assert len(finals) == count
    assert left == 0
    for i in (0, 1, count - 1):
        solo = AntSystem(reqs[i].instance, reqs[i].params).run(1)
        assert finals[f"r{i}"]["best_length"] == solo.best_length


def test_failed_submit_leaves_nothing_outstanding(monkeypatch):
    """A submit that raises before or while forwarding takes its request
    back out of the router's books."""
    import repro.shard.router as router_mod
    from repro.errors import ServiceOverloadedError

    request = SolveRequest(
        instance=uniform_instance(12, seed=5), params=ACOParams(seed=1),
        iterations=1,
    )
    raw = {"instance": {"coords": request.instance.coords.tolist()}}
    # No shard is spawned: submit gets past the draining check only.
    router = ShardRouter(1, _config())
    router._accepting = True

    def _encode_fails(*args, **kwargs):
        raise ValueError("unencodable request")

    async def _go():
        with pytest.raises(ServiceOverloadedError):  # no healthy shard
            await router.submit_wire(raw, "r0", request, None)
        assert router.outstanding == 0
        monkeypatch.setattr(router_mod, "encode_request", _encode_fails)
        with pytest.raises(ValueError, match="unencodable"):
            await router.submit_wire(raw, "r1", request, None)
        assert router.outstanding == 0

    asyncio.run(_go())


def test_relayed_and_orphaned_requests_each_finish_their_session_once():
    """A relayed result and a ``stop()`` orphan end through one path: each
    accepted request sends its last line and leaves the client session's
    count exactly once, so the handler's wait for a half-closed client
    ends."""
    from repro.serve.protocol import ClientSession
    from repro.shard.router import _Routed

    class _Writer:
        def __init__(self):
            self.lines = []

        def is_closing(self):
            return False

        def write(self, data):
            self.lines.append(json.loads(data))

        async def drain(self):
            pass

    key = _requests()[0].bucket_key

    async def _go():
        router = ShardRouter(1, _config())  # never started: no processes
        writer = _Writer()
        session = ClientSession(writer)
        for wid, req_id in (("x0", "a"), ("x1", "b")):
            await session.accept(req_id)
            router._outstanding[wid] = _Routed(wid, req_id, key, b"", session)
        await router._relay(
            router.shards[0], b'{"type": "result", "id": "x0", "best_length": 1}\n'
        )
        await router.stop()
        await router.stop()  # idempotent: nothing ends twice
        await asyncio.wait_for(session.wait_idle(), 5)
        return writer.lines, session._open

    lines, still_open = asyncio.run(_go())
    assert [(obj["type"], obj["id"]) for obj in lines] == [
        ("accepted", "a"), ("accepted", "b"), ("result", "a"), ("error", "b"),
    ]
    assert "router stopped" in lines[-1]["message"]
    assert still_open == 0
