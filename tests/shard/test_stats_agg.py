"""Router stats/health folding: exact sums, exact histogram merges.

The fold operates on plain snapshot dicts (what the router scrapes off
each worker's wire), so these tests build per-shard payloads from real
:class:`~repro.serve.service.ServiceStats` objects and synthetic
histograms — no worker processes involved.
"""

from __future__ import annotations

import asyncio
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ACOParams
from repro.obs import PHASE_HISTOGRAMS, LogHistogram
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
        hist = LogHistogram(key)
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


def test_fold_stats_histograms_are_exact():
    """Aggregate count equals the sum of per-shard counts, min/max are the
    true extremes, and the buckets are the per-shard buckets added."""
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
        # p50 of the union {0..49, 100..149, 200..249, 300..349} is the
        # second shard's largest value (rank 100 of 200).
        assert agg[key]["p50"] == pytest.approx(149.0, rel=0.01)
        assert _bucket_map(agg[key]) == _bucket_sum(
            per_shard[s][key] for s in per_shard
        )


def _bucket_map(snap: dict) -> dict[int, int]:
    """A snapshot's dense ``[offset, counts]`` buckets as a sparse map."""
    offset, counts = snap["buckets"]
    return {offset + i: n for i, n in enumerate(counts) if n}


def _bucket_sum(snaps) -> dict[int, int]:
    total: dict[int, int] = {}
    for snap in snaps:
        for key, n in _bucket_map(snap).items():
            total[key] = total.get(key, 0) + n
    return total


def _nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0)) - 1]


def _folded(parts: list[list[float]], key: str = "request_latency_seconds") -> dict:
    """``fold_stats`` over one shard per part, each observing its values
    into ``key``; returns the aggregate histogram snapshot."""
    per_shard = {}
    for sid, values in enumerate(parts):
        snap = ServiceStats().snapshot()
        hist = LogHistogram(key)
        for v in values:
            hist.observe(v)
        # Through the JSON wire, as the router scrapes it.
        snap[key] = json.loads(json.dumps(hist.snapshot()))
        per_shard[sid] = snap
    return fold_stats(per_shard)[key]


def test_fold_stats_weighs_shards_by_their_observations():
    """A busy shard and a quiet one: the fleet's quantiles are those of
    every observation together (a 512-sample reservoir per shard read p50
    55.0 and p95 109.0 ms here, weighing the two shards alike)."""
    rng = random.Random(14)
    busy = [rng.uniform(0.0, 10.0) for _ in range(20_000)]
    quiet = [rng.uniform(100.0, 110.0) for _ in range(1_000)]
    agg = _folded([busy, quiet])
    union = sorted(busy + quiet)
    assert _nearest_rank(union, 50.0) == pytest.approx(5.27, abs=0.05)
    assert _nearest_rank(union, 95.0) == pytest.approx(9.97, abs=0.05)
    for p in (50, 95, 99):
        assert agg[f"p{p}"] == pytest.approx(_nearest_rank(union, p), rel=0.01)
    assert agg["count"] == 21_000
    assert agg["min"] == union[0] and agg["max"] == union[-1]


#: observation values: zeros, sub-microsecond waits up to minutes-long
#: batches, as the serve tier's second-valued histograms see them
_VALUES = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-7, max_value=300.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(_VALUES, min_size=1, max_size=200),
    cuts=st.lists(st.integers(0, 200), max_size=3),
)
def test_fold_of_any_split_equals_one_histogram(values, cuts):
    """Folding any split of the observations across 1-4 shard snapshots
    gives one histogram over all of them: the same buckets and exact
    fields, and quantiles within 1% of the exact nearest-rank ones."""
    bounds = sorted(min(c, len(values)) for c in cuts)
    edges = [0, *bounds, len(values)]
    parts = [values[lo:hi] for lo, hi in zip(edges, edges[1:])]
    agg = _folded(parts)
    whole = LogHistogram()
    for v in values:
        whole.observe(v)
    one = whole.snapshot()
    assert agg["buckets"] == one["buckets"]
    assert agg["count"] == one["count"] == len(values)
    assert agg["min"] == min(values) and agg["max"] == max(values)
    assert agg["total"] == pytest.approx(math.fsum(values), rel=1e-12, abs=1e-300)
    ordered = sorted(values)
    folded = LogHistogram.from_snapshot(agg)
    for p in (50, 95, 99):
        exact = _nearest_rank(ordered, p)
        assert folded.percentile(p) == pytest.approx(exact, rel=0.01 + 1e-9)
        assert agg[f"p{p}"] == folded.percentile(p)
        assert agg["min"] <= agg[f"p{p}"] <= agg["max"]


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
    construct = [s["engine.phase.construct"] for s in per_shard.values()]
    assert agg["engine.phase.construct"]["min"] == min(h["min"] for h in construct)
    assert agg["engine.phase.construct"]["max"] == max(h["max"] for h in construct)
    assert _bucket_map(agg["engine.phase.construct"]) == _bucket_sum(construct)


def test_fold_stats_passes_per_shard_payloads_through():
    """Per-shard snapshots keep their buckets: aggregate and per-shard
    histograms share one shape."""
    per_shard = {0: _shard_snapshot(0, 3), 1: _shard_snapshot(1, 2)}
    agg = fold_stats(per_shard)
    for sid, snap in per_shard.items():
        assert agg["per_shard"][str(sid)] == snap
    for key in HISTOGRAM_KEYS:
        assert set(agg[key]) == set(per_shard[0][key])


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
