"""Deterministic shard-death chaos against the live router tier.

A seeded :class:`~repro.serve.faults.FaultPlan.kill_workers` schedule
makes the router SIGKILL one worker process mid-burst — real process
death, not a mock — after forwarding a scheduled routed-request ordinal.
The acceptance contract: every request in the burst still resolves, every
result is bit-identical to a solo :class:`~repro.core.engine.AntSystem`
run (failover re-runs are full deterministic re-runs), and exactly one
respawn is recorded.  Plain ``asyncio.run`` (no pytest-asyncio).
"""

from __future__ import annotations

import asyncio
import json

from repro.core import ACOParams, AntSystem
from repro.serve import FaultPlan, serve_tcp, stats_over_tcp
from repro.serve.protocol import encode_request
from repro.serve.service import SolveRequest
from repro.shard import ShardConfig, ShardRouter, shard_index
from repro.tsp import uniform_instance

ITERATIONS = 6
#: sizes chosen so the three bucket keys land on three distinct shards of
#: a 3-fleet (pinned by tests/shard/test_router.py::test_known_routing_spread)
SIZES = (20, 26, 32)
SEEDS = (1, 2, 3, 4)
#: ordinal 5 sits mid-burst: requests after it route around the dead
#: shard until the respawn, requests already on it fail over.
KILL_AT = 5


def _requests() -> list[SolveRequest]:
    return [
        SolveRequest(
            instance=uniform_instance(n, seed=n),
            params=ACOParams(seed=seed),
            iterations=ITERATIONS,
        )
        for n in SIZES
        for seed in SEEDS
    ]


def test_kill_one_shard_mid_burst_every_request_resolves_bit_identical():
    reqs = _requests()
    plan = FaultPlan(seed=11, kill_workers=(KILL_AT,))

    async def _go():
        async with ShardRouter(
            3, ShardConfig(max_batch=4), faults=plan
        ) as router:
            server = await serve_tcp(router, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                # One pipelined connection, the whole burst written up
                # front — the kill lands while work is genuinely in
                # flight on every shard.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                for i, request in enumerate(reqs):
                    writer.write(encode_request(request, f"r{i}"))
                await writer.drain()
                finals: dict[str, dict] = {}
                while len(finals) < len(reqs):
                    line = await asyncio.wait_for(reader.readline(), 120)
                    assert line, "router closed the connection mid-burst"
                    obj = json.loads(line)
                    assert obj.get("type") != "error", obj
                    if obj["type"] == "result":
                        finals[obj["id"]] = obj
                writer.close()
                await writer.wait_closed()
                stats = await stats_over_tcp("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()
            return finals, stats

    finals, stats = asyncio.run(_go())

    # Every request resolved, each bit-identical to the solo engine —
    # including the ones that died with the killed worker and re-ran.
    assert len(finals) == len(reqs)
    for i, request in enumerate(reqs):
        solo = AntSystem(request.instance, request.params).run(
            request.iterations
        )
        final = finals[f"r{i}"]
        assert final["best_length"] == solo.best_length, i
        assert final["best_tour"] == [int(c) for c in solo.best_tour], i

    # Exactly the planned failure: one SIGKILL, one respawn.
    assert stats["router"]["shards_respawned"] == 1
    assert stats["router"]["requests_routed"] == len(reqs)
    assert stats["router"]["outstanding"] == 0
    assert stats["router"]["shards_healthy"] == 3


def test_fault_plan_spread_precondition():
    """The scenario above only kills *in-flight* work if the burst spans
    all three shards — keep the routing-spread assumption pinned next to
    the test that depends on it."""
    assignments = {
        n: shard_index(
            SolveRequest(
                instance=uniform_instance(n, seed=n),
                params=ACOParams(seed=1),
                iterations=ITERATIONS,
            ).bucket_key,
            3,
        )
        for n in SIZES
    }
    assert sorted(assignments.values()) == [0, 1, 2], assignments
