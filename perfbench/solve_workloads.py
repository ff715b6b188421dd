"""Engine workloads: ``BatchEngine`` driven the way ``gpu-aco solve --replicas`` does.

One run builds a fresh engine per repetition (instance load + engine build
is the set-up, timed on its own), then times ``BatchEngine.run`` until the
measured time reaches ``--seconds``.  Colony seeds come from ``--seed``.
Report-boundary callbacks give the streaming latency a ``solve`` user sees
between best-so-far updates.  Every timing is taken against the host clock
of :func:`harness.host_factor`, sampled just before each repetition.  Tour
validation, the B=1 equivalence check and the digest happen outside the
timed spans.

The traced run alternates untraced and traced repetitions (wrappers
installed but switched off, then on), so ``trace.overhead_frac`` compares
neighbours in time rather than two windows of a drifting clock.
"""

from __future__ import annotations

from time import perf_counter

from harness import (
    Outcome,
    beyond,
    digest,
    host_block,
    host_factor,
    median,
    out_path,
    percentile,
    self_peak_rss_mb,
)

#: per-workload engine configuration
SOLVE_WORKLOADS = {
    "solve-as-att48": {
        "instance": "att48",
        "replicas": 16,
        "iterations": 50,
        "report_every": 10,
        "engine": {"variant": "as", "construction": 8, "pheromone": 1},
        "latency_limit_ms": 2000.0,
    },
    "solve-mmas-ls-a280": {
        "instance": "a280",
        "replicas": 4,
        "iterations": 10,
        "report_every": 1,
        "engine": {"variant": "mmas", "construction": 6, "local_search": "2opt"},
        "latency_limit_ms": 2000.0,
    },
}


def _build(cfg: dict, seed: int):
    """Instance load + engine build: one set-up sample."""
    from repro.core import BatchEngine
    from repro.core.params import ACOParams
    from repro.tsp.suite import load_instance

    t0 = perf_counter()
    inst = load_instance(cfg["instance"], use_cache=False)
    engine = BatchEngine.replicas(
        inst, ACOParams(seed=seed), replicas=cfg["replicas"], **cfg["engine"]
    )
    return engine, perf_counter() - t0


def _timed_run(engine, cfg: dict):
    """``engine.run`` with boundary timestamps; returns (result, wall, blocks)."""
    marks: list[float] = []

    def on_boundary(update) -> None:
        marks.append(perf_counter())

    t0 = perf_counter()
    result = engine.run(
        cfg["iterations"], report_every=cfg["report_every"], on_boundary=on_boundary
    )
    wall = perf_counter() - t0
    blocks = [b - a for a, b in zip([t0] + marks[:-1], marks)]
    return result, wall, blocks


def _wrong_rows(engine, result) -> int:
    """Rows whose best tour is not a closed permutation, or whose
    recomputed length differs from ``best_length``."""
    from repro.errors import InvalidTourError
    from repro.tsp.tour import tour_length, validate_tour

    bad = 0
    for b, row in enumerate(result.results):
        inst = engine.state.instances[b]
        try:
            tour = validate_tour(row.best_tour, inst.n)
        except InvalidTourError:
            bad += 1
            continue
        if tour_length(tour, inst.distance_matrix()) != row.best_length:
            bad += 1
    return bad


def _solo_matches(cfg: dict, engine, result, row: int) -> bool:
    """Row ``row`` of a batch run equals a B=1 run seeded like that row."""
    import numpy as np

    from repro.core import BatchEngine

    solo = BatchEngine(
        engine.state.instances[row], engine.state.params[row], **cfg["engine"]
    ).run(cfg["iterations"], report_every=cfg["report_every"])
    got, want = result.results[row], solo.results[0]
    return (
        got.best_length == want.best_length
        and np.array_equal(got.best_tour, want.best_tour)
        and list(got.iteration_best_lengths) == list(want.iteration_best_lengths)
    )


def run_solve(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.backend import resolve_backend

    cfg = SOLVE_WORKLOADS[name]
    B = cfg["replicas"]
    base_seed = 1 + seed * 100_003
    limit_ms = cfg["latency_limit_ms"]

    rec = None
    if trace:
        from tracing import SpanRecorder, installed

        rec = SpanRecorder()
        rec.enabled = False
        ctx = installed(rec)
        ctx.__enter__()

    setups: list[float] = []
    rates: list[float] = []
    walls: list[float] = []
    #: each timed run's wall on the host clock, and the factor it took
    host_walls: list[float] = []
    factors: list[float] = []
    work = 0
    blocks_ms: list[float] = []
    traced_rates: list[float] = []
    traced_walls: list[float] = []
    phases: dict[str, float] = {}
    rows = wrong = good = 0
    bests: list[int] = []
    solo_ok = True
    rep = 0
    try:
        # Warm-up (first touch of the import graph, allocator and arena)
        # counts as set-up, never as measured time.
        h = host_factor()
        engine, dt = _build(cfg, base_seed)
        setups.append(dt / h)
        _timed_run(engine, dict(cfg, iterations=1))
        # A traced run splits its time between traced and untraced runs.
        while sum(walls) + sum(traced_walls) < seconds or len(rates) < 3:
            traced = rec is not None and rep % 2 == 1
            if rec is not None:
                rec.enabled, rec.request = traced, f"rep{rep}"
            h = host_factor()
            engine, dt = _build(cfg, base_seed + rep * B)
            setups.append(dt / h)
            result, wall, blocks = _timed_run(engine, cfg)
            if rec is not None:
                rec.enabled = False
            # the host clock over the run: before and after, geometric mean
            h = (h * host_factor()) ** 0.5
            rate = B * result.iterations_run / wall * h
            bad = _wrong_rows(engine, result)
            rows += B
            wrong += bad
            bests.extend(int(v) for v in result.best_lengths)
            if rep == 0:
                solo_ok = _solo_matches(cfg, engine, result, seed % B)
            if traced:
                traced_rates.append(rate)
                traced_walls.append(wall)
                for phase, secs in result.phase_breakdown.items():
                    phases[phase] = phases.get(phase, 0.0) + secs
            else:
                rates.append(rate)
                walls.append(wall)
                host_walls.append(wall / h)
                factors.append(h)
                work += B * result.iterations_run
                blocks_ms.extend(b * 1e3 / h for b in blocks)
                good += bad == 0 and max(blocks) * 1e3 / h <= limit_ms
            rep += 1
    finally:
        if rec is not None:
            ctx.__exit__(None, None, None)

    failed = wrong + (0 if solo_ok else 1)
    outcome = Outcome(
        workload=name,
        attempted=rows + 1,
        failed=failed,
        correct=failed == 0,
        metrics={
            "colony_iters_per_s": (work / sum(host_walls), "1/s"),
            "latency_p50_ms": (median(blocks_ms), "ms"),
            "latency_p90_ms": (percentile(blocks_ms, 90.0), "ms"),
            "goodput_rps": (good / sum(host_walls), "req/s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        },
        host=host_block(seed, resolve_backend(None).name, limit_ms),
        digest=digest(bests),
        notes=[
            f"{len(rates)} timed runs of {cfg['iterations']} iterations x "
            f"B={B} on {cfg['instance']} (K={cfg['report_every']}); "
            f"{len(blocks_ms)} report blocks, {beyond(blocks_ms, 90.0)} beyond p90",
            f"host factor median {median(factors):.3f} "
            f"(range {min(factors):.3f}-{max(factors):.3f})",
            f"{len(setups)} set-up samples; B=1 row check "
            f"{'ok' if solo_ok else 'MISMATCH'}; {wrong} wrong rows of {rows}",
        ],
    )
    if rec is not None:
        _apply_trace(outcome, rec, median(rates) / median(traced_rates) - 1.0, phases)
    return outcome


def _apply_trace(outcome: Outcome, rec, overhead: float, phases: dict) -> None:
    """Replace the end-to-end metrics by the per-layer ones and run the
    trace self-checks: spans against ``phase_breakdown``, and whether the
    workload isolates the layers it is meant to."""
    from layers import as_metrics
    from tracing import engine_layer_metrics

    layers = engine_layer_metrics(rec)
    layers["trace.overhead_frac"] = overhead
    outcome.metrics = as_metrics(layers)

    times = rec.layer_times()
    run_s = layers["core.batch.run_s"]
    tol = max(abs(overhead), 0.05)
    spans = {
        "construct": "core.variant.choice_build",
        "local-search": "core.variant.ls_improve",
        "update": "core.variant.update_batch",
    }
    for phase, span_name in spans.items():
        span = times.get(span_name, {}).get("total", 0.0)
        engine_phase = phases.get(phase, 0.0)
        agree = abs(span - engine_phase) <= tol * engine_phase + 1e-3
        outcome.notes.append(
            f"cross-check {phase}: span {span:.4f}s vs phase_breakdown "
            f"{engine_phase:.4f}s (tolerance {tol:.3f}) "
            f"{'ok' if agree else 'DISAGREE'}"
        )
        if not agree:
            outcome.correct = False
            outcome.failed += 1

    rng = layers["rng.uniform_block_s"] / run_s
    construct = (
        layers["rng.uniform_block_s"]
        + layers["core.choice.run_batch_s"]
        + layers["core.construction.build_batch_self_s"]
        + layers["core.variant.choice_build_self_s"]
    ) / run_s
    ls = layers["core.variant.ls_improve_s"] / run_s
    outcome.notes.append(
        f"shares of run wall: rng {rng:.3f}, rng+choice+construction "
        f"{construct:.3f}, local search {ls:.3f}"
    )
    if outcome.workload == "solve-as-att48":
        separated = construct >= 0.80 and ls == 0.0 and rng >= 0.30
    else:
        separated = ls >= 0.25 and rng <= 0.05
    outcome.notes.append(f"layer separation {'holds' if separated else 'DOES NOT hold'}")
    path = out_path(f"trace-{outcome.workload}.json")
    rec.write_chrome_trace(path)
    outcome.notes.append(f"chrome trace written to {path}")
