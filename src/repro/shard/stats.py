"""Fold per-shard stats/health payloads into one router-level payload.

The router's ``{"op": "stats"}`` answer must look like a single
service's :meth:`~repro.serve.service.ServiceStats.snapshot` — same
keys, same meanings — so dashboards built against one serve process read
a sharded deployment unchanged (the ``source`` field is how they tell
the tiers apart).  Counters sum exactly; per-bucket/per-variant/
flush-cause maps merge key-wise; derived rates are recomputed from the
summed numerators/denominators (never averaged averages); histograms
merge **exactly** via :meth:`~repro.obs.LogHistogram.from_snapshot` +
:meth:`~repro.obs.LogHistogram.merge`: bucket counts add, so the
aggregate is the histogram of every shard's observations together —
``count``/``total``/``min``/``max`` are the exact sums/extremes, and
each quantile lies within 1% of the fleet-wide order statistic however
the traffic split across shards.

Per-shard snapshots pass through under ``per_shard`` with their
``buckets``: a bucket map is bounded by the span of the values, not by
the length of the run, so aggregate and per-shard histograms share one
shape.
"""

from __future__ import annotations

from repro.obs import PHASE_HISTOGRAMS, LogHistogram

__all__ = ["COUNTER_KEYS", "HISTOGRAM_KEYS", "fold_health", "fold_stats"]

#: exact-sum integer counters of ServiceStats.snapshot()
COUNTER_KEYS = (
    "submitted",
    "completed",
    "resolved_by_target",
    "resolved_by_deadline",
    "failed",
    "requests_timed_out",
    "requests_shed",
    "requests_retried",
    "batches_bisected",
    "batches",
    "rows_packed",
    "ls_batches",
    "colony_iterations",
)

#: key-wise summed dict counters
_DICT_KEYS = ("batches_per_variant", "rows_per_bucket", "flush_causes")

#: log-bucket histogram distributions: the request lifecycle, then the
#: engines' per-block phase seconds
HISTOGRAM_KEYS = (
    "queue_wait_seconds",
    "batch_wall_seconds",
    "request_latency_seconds",
    "batch_rows",
) + PHASE_HISTOGRAMS


def fold_stats(per_shard: dict[int, dict], router: dict | None = None) -> dict:
    """One service-shaped aggregate over per-shard snapshot payloads.

    ``per_shard`` maps shard id → that worker's
    :meth:`~repro.serve.service.ServiceStats.snapshot` payload (scraped
    off its wire); ``router`` is the router's own counter block, passed
    through under the ``"router"`` key.
    """
    shards = [per_shard[k] for k in sorted(per_shard)]
    agg: dict = {"source": "router"}
    for key in COUNTER_KEYS:
        agg[key] = sum(int(s.get(key, 0)) for s in shards)
    for key in _DICT_KEYS:
        merged: dict = {}
        for s in shards:
            for k, v in (s.get(key) or {}).items():
                merged[k] = merged.get(k, 0) + v
        agg[key] = dict(sorted(merged.items()))
    engine_wall = sum(float(s.get("engine_wall_seconds", 0.0)) for s in shards)
    agg["engine_wall_seconds"] = round(engine_wall, 6)
    agg["mean_batch_size"] = round(
        agg["rows_packed"] / agg["batches"] if agg["batches"] else 0.0, 3
    )
    agg["colonies_per_second"] = round(
        agg["colony_iterations"] / engine_wall if engine_wall > 0.0 else 0.0, 3
    )
    for key in HISTOGRAM_KEYS:
        folded = LogHistogram(key)
        for s in shards:
            if isinstance(s.get(key), dict):
                folded.merge(LogHistogram.from_snapshot(s[key]))
        agg[key] = folded.snapshot()
    agg["per_shard"] = {str(sid): dict(per_shard[sid]) for sid in sorted(per_shard)}
    agg["router"] = dict(router or {})
    return agg


def fold_health(per_shard: dict[int, dict], shard_summaries: dict[int, dict],
                router: dict | None = None) -> dict:
    """One liveness payload over per-shard health probes.

    ``per_shard`` holds the live ``{"op": "health"}`` answers of the
    shards that responded; ``shard_summaries`` the router-side
    :meth:`~repro.shard.supervisor.WorkerShard.summary` for **every**
    shard (dead ones included — the whole point of a health plane).
    """
    live = [per_shard[k] for k in sorted(per_shard)]
    out: dict = {
        "source": "router",
        "shards": len(shard_summaries),
        "shards_healthy": sum(
            1 for s in shard_summaries.values() if s.get("state") == "healthy"
        ),
        "accepting": any(h.get("accepting") for h in live),
        "queued": sum(int(h.get("queued", 0)) for h in live),
        "inflight_batches": sum(int(h.get("inflight_batches", 0)) for h in live),
        "workers_alive": sum(int(h.get("workers_alive", 0)) for h in live),
    }
    ages = [
        h.get("last_batch_age_seconds")
        for h in live
        if h.get("last_batch_age_seconds") is not None
    ]
    out["last_batch_age_seconds"] = min(ages) if ages else None
    out["per_shard"] = {
        str(sid): dict(shard_summaries[sid]) for sid in sorted(shard_summaries)
    }
    out["router"] = dict(router or {})
    return out
