"""The per-layer metrics of the traced run, with the prediction for each.

Every entry names the end-to-end metric its layer should move and the
workload where that layer does most of the work; on the other workloads
the prediction is no change.  ``BENCHMARK.json`` lists the same names,
units and directions (its schema has no room for the predictions, so they
live here and are printed with every traced run).

A traced run reports every metric below.  A layer a workload never enters
reads 0 there (for example the router counters on the engine workloads).
"""

from __future__ import annotations

#: name -> (unit, better, end-to-end metric it should move, workload)
PER_LAYER = {
    "rng.uniform_block_s": ("s", "lower", "colony_iters_per_s", "solve-as-att48"),
    "rng.draws": ("count", "lower", "colony_iters_per_s", "solve-as-att48"),
    "rng.draws_per_ant_step": ("count", "lower", "colony_iters_per_s", "solve-as-att48"),
    "rng.bytes_computed": ("B", "lower", "colony_iters_per_s", "solve-as-att48"),
    "core.choice.run_batch_s": ("s", "lower", "colony_iters_per_s", "solve-as-att48"),
    "core.construction.build_batch_self_s": (
        "s", "lower", "colony_iters_per_s", "solve-as-att48"),
    "core.variant.choice_build_self_s": (
        "s", "lower", "colony_iters_per_s", "solve-as-att48 solve-mmas-ls-a280"),
    "core.variant.update_batch_s": (
        "s", "lower", "colony_iters_per_s", "solve-as-att48 solve-mmas-ls-a280"),
    "core.variant.ls_improve_s": ("s", "lower", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "tsp.local_search.exchanges": (
        "count", "higher", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "tsp.local_search.gain": ("count", "higher", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "tsp.tour_lengths_batch_s": (
        "s", "lower", "colony_iters_per_s", "solve-as-att48 solve-mmas-ls-a280"),
    "backend.to_host_calls": ("count", "lower", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "backend.to_host_bytes": ("B", "lower", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "backend.to_host_s": ("s", "lower", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "backend.workbuf_nbytes": ("B", "lower", "peak_rss_mb", "solve-mmas-ls-a280"),
    "core.batch.engine_init_count": ("count", "lower", "setup_s", "serve-open"),
    "core.batch.engine_init_s": (
        "s", "lower", "setup_s latency_p50_ms", "solve-mmas-ls-a280 serve-open"),
    "core.batch.run_s": ("s", "lower", "colony_iters_per_s", "solve-as-att48 solve-mmas-ls-a280"),
    "core.batch.loop_other_s": ("s", "lower", "colony_iters_per_s", "solve-mmas-ls-a280"),
    "serve.protocol.decode_s": ("s", "lower", "latency_p50_ms", "serve-open"),
    "serve.wire_overhead_ms": ("ms", "lower", "latency_p50_ms", "serve-open"),
    "serve.service.queue_wait_ms_p50": ("ms", "lower", "latency_p50_ms", "serve-open"),
    "serve.service.queue_wait_ms_p99": ("ms", "lower", "latency_p90_ms", "serve-open"),
    "serve.service.flush_full": ("count", "higher", "latency_p50_ms", "serve-open"),
    "serve.service.flush_max_wait": ("count", "lower", "latency_p50_ms", "serve-open"),
    "serve.service.batch_wall_ms_p50": (
        "ms", "lower", "goodput_rps latency_p50_ms", "serve-sharded serve-open"),
    "serve.service.batch_wall_ms_p99": (
        "ms", "lower", "goodput_rps latency_p90_ms", "serve-sharded serve-open"),
    "serve.service.pack_ratio": (
        "ratio", "higher", "goodput_rps latency_p50_ms", "serve-sharded serve-open"),
    "serve.service.colonies_per_s": ("1/s", "higher", "goodput_rps", "serve-sharded"),
    "serve.service.shed": ("count", "lower", "failures", "serve-open serve-sharded"),
    "serve.service.timed_out": ("count", "lower", "failures", "serve-open serve-sharded"),
    "serve.service.retried": ("count", "lower", "failures", "serve-open serve-sharded"),
    "shard.router.requests_routed": ("count", "higher", "goodput_rps", "serve-sharded"),
    "shard.router.spillovers": ("count", "lower", "goodput_rps", "serve-sharded"),
    "shard.router.shards_respawned": ("count", "lower", "goodput_rps", "serve-sharded"),
    "shard.router.imbalance": ("ratio", "lower", "goodput_rps", "serve-sharded"),
    "shard.router.forward_overhead_ms": ("ms", "lower", "latency_p50_ms", "serve-sharded"),
    "loadgen.lag_p99_ms": ("ms", "lower", "run validity", "serve-open"),
    "trace.overhead_frac": ("ratio", "lower", "run validity", "all"),
}

PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}


def as_metrics(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, in table order; absent layers read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def predictions() -> list[str]:
    """One line per layer: which end-to-end metric it moves, and where."""
    return [
        f"{name} -> {spec[2]} on {spec[3]}" for name, spec in PER_LAYER.items()
    ]
