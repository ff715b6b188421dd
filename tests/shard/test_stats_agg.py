"""Router stats/health folding: exact sums, lossless histogram merges.

The fold operates on plain snapshot dicts (what the router scrapes off
each worker's wire), so these tests build per-shard payloads from real
:class:`~repro.serve.service.ServiceStats` objects and synthetic
histograms — no worker processes involved.
"""

from __future__ import annotations

import asyncio

from repro.core import ACOParams
from repro.obs import PHASE_HISTOGRAMS, ReservoirHistogram
from repro.serve.service import ServiceStats, SolveRequest, SolveService
from repro.shard import fold_health, fold_stats
from repro.shard.stats import COUNTER_KEYS, HISTOGRAM_KEYS
from repro.tsp import uniform_instance


def _shard_snapshot(shard: int, requests: int) -> dict:
    """A service-shaped snapshot with distinguishable per-shard numbers."""
    stats = ServiceStats()
    snap = stats.snapshot()
    snap["submitted"] = requests
    snap["completed"] = requests
    snap["batches"] = max(1, requests // 2)
    snap["rows_packed"] = requests
    snap["colony_iterations"] = requests * 5
    snap["engine_wall_seconds"] = 0.5 * (shard + 1)
    snap["flush_causes"] = {"max_batch": requests, "drain": 1}
    snap["batches_per_variant"] = {"as": requests}
    snap["rows_per_bucket"] = {f"n{20 + shard}": requests}
    for key in HISTOGRAM_KEYS:
        hist = ReservoirHistogram(key)
        for i in range(requests):
            hist.observe(shard * 100.0 + i)
        snap[key] = hist.snapshot()
    return snap


def test_service_snapshot_stamps_source():
    assert ServiceStats().snapshot()["source"] == "service"


def test_fold_stats_counters_sum_exactly():
    per_shard = {0: _shard_snapshot(0, 4), 1: _shard_snapshot(1, 6),
                 2: _shard_snapshot(2, 2)}
    agg = fold_stats(per_shard, router={"requests_routed": 12})
    assert agg["source"] == "router"
    for key in COUNTER_KEYS:
        assert agg[key] == sum(s[key] for s in per_shard.values()), key
    assert agg["engine_wall_seconds"] == sum(
        s["engine_wall_seconds"] for s in per_shard.values()
    )
    # Derived rates recomputed from summed numerators, not averaged.
    assert agg["mean_batch_size"] == round(
        agg["rows_packed"] / agg["batches"], 3
    )
    assert agg["colonies_per_second"] == round(
        agg["colony_iterations"] / agg["engine_wall_seconds"], 3
    )
    assert agg["router"] == {"requests_routed": 12}


def test_fold_stats_dict_counters_merge_keywise():
    per_shard = {0: _shard_snapshot(0, 4), 1: _shard_snapshot(1, 6)}
    agg = fold_stats(per_shard)
    assert agg["flush_causes"] == {"drain": 2, "max_batch": 10}
    assert agg["batches_per_variant"] == {"as": 10}
    assert agg["rows_per_bucket"] == {"n20": 4, "n21": 6}


def test_fold_stats_histograms_are_lossless():
    """The acceptance pin: aggregate count equals the sum of per-shard
    counts, min/max are the true extremes, quantiles span the union."""
    per_shard = {s: _shard_snapshot(s, 50) for s in range(4)}
    agg = fold_stats(per_shard)
    for key in HISTOGRAM_KEYS:
        assert agg[key]["count"] == sum(
            per_shard[s][key]["count"] for s in per_shard
        )
        assert agg[key]["min"] == 0.0
        assert agg[key]["max"] == 349.0
        assert agg[key]["total"] == sum(
            per_shard[s][key]["total"] for s in per_shard
        )
        # p50 of the union {0..49, 100..149, 200..249, 300..349} sits
        # between the second and third shard's ranges.
        assert 100.0 <= agg[key]["p50"] <= 300.0


def _served_snapshot(requests: int) -> dict:
    """The snapshot of a real service after ``requests`` solves."""

    async def drive():
        async with SolveService(max_batch=1) as service:
            for i in range(requests):
                handle = await service.submit(
                    SolveRequest(
                        instance=uniform_instance(12, seed=i),
                        params=ACOParams(seed=i + 1, nn=5),
                        iterations=2,
                        report_every=1,
                    )
                )
                await handle.result()
            return service.stats.snapshot()

    return asyncio.run(drive())


def test_fold_stats_engine_phases_from_real_services():
    """Engine phase histograms published by real services' engines fold
    losslessly at the router, like the lifecycle ones."""
    per_shard = {0: _served_snapshot(1), 1: _served_snapshot(2)}
    agg = fold_stats(per_shard)
    for key in PHASE_HISTOGRAMS:
        assert agg[key]["count"] == sum(s[key]["count"] for s in per_shard.values())
    # One observation per report block: 2 iterations per request.
    assert agg["engine.phase.construct"]["count"] == 6
    samples = sorted(
        v for s in per_shard.values() for v in s["engine.phase.construct"]["samples"]
    )
    assert agg["engine.phase.construct"]["min"] == round(samples[0], 6)
    assert agg["engine.phase.construct"]["max"] == round(samples[-1], 6)


def test_fold_stats_strips_samples_from_output():
    per_shard = {0: _shard_snapshot(0, 3)}
    agg = fold_stats(per_shard)
    for key in HISTOGRAM_KEYS:
        assert "samples" not in agg[key]
        assert "samples" not in agg["per_shard"]["0"][key]
    # ... without mutating the caller's input payloads.
    assert "samples" in per_shard[0]["queue_wait_seconds"]


def test_fold_stats_empty_fleet():
    agg = fold_stats({})
    assert agg["submitted"] == 0
    assert agg["mean_batch_size"] == 0.0
    assert agg["colonies_per_second"] == 0.0
    for key in HISTOGRAM_KEYS:
        assert agg[key]["count"] == 0


def test_fold_health_counts_dead_shards():
    live = {
        0: {"accepting": True, "queued": 2, "inflight_batches": 1,
            "workers_alive": 1, "last_batch_age_seconds": 4.0},
        2: {"accepting": True, "queued": 0, "inflight_batches": 0,
            "workers_alive": 1, "last_batch_age_seconds": 1.5},
    }
    summaries = {
        0: {"state": "healthy", "pid": 10},
        1: {"state": "dead", "pid": None},
        2: {"state": "healthy", "pid": 12},
    }
    health = fold_health(live, summaries, router={"shards_respawned": 1})
    assert health["source"] == "router"
    assert health["shards"] == 3
    assert health["shards_healthy"] == 2
    assert health["accepting"] is True
    assert health["queued"] == 2
    assert health["inflight_batches"] == 1
    assert health["workers_alive"] == 2
    assert health["last_batch_age_seconds"] == 1.5
    assert set(health["per_shard"]) == {"0", "1", "2"}
    assert health["per_shard"]["1"]["state"] == "dead"
    assert health["router"] == {"shards_respawned": 1}


def test_fold_health_no_live_probes():
    summaries = {0: {"state": "dead", "pid": None}}
    health = fold_health({}, summaries)
    assert health["accepting"] is False
    assert health["shards_healthy"] == 0
    assert health["last_batch_age_seconds"] is None
