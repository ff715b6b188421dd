"""A run's memory is flat in its length.

``BatchEngine.run`` keeps one :class:`~repro.core.report.IterationReport`
per row per report boundary.  Those reports hold lengths, stage records
and 2-opt counters but no tours, so a run at ``report_every=1`` must not
grow by a ``(B, m, n + 1)`` tour batch per iteration.  ``run_iteration()``
still hands out each iteration's tours.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.batch import BatchEngine
from repro.core.params import ACOParams
from repro.tsp import uniform_instance
from repro.tsp.tour import tour_lengths, validate_tour

N = 60
B = 4
SHORT, LONG = 15, 60

#: variant, construction kernel and local search of each covered engine
ENGINES = {
    "as-v8": dict(variant="as", construction=8),
    "mmas-v6-2opt": dict(variant="mmas", construction=6, local_search="2opt"),
    "acs": dict(variant="acs"),
}

#: per-boundary growth allowed, as a fraction of one tour batch.  Stage
#: ledgers are shared across boundaries, so a boundary adds only its
#: reports and lengths; the nn-list rule's fallback counts differ per
#: boundary, so its ledgers keep rotating through the bounded cache.
GROWTH_DIVISOR = {"as-v8": 8, "mmas-v6-2opt": 4, "acs": 8}


def _engine(options: dict) -> BatchEngine:
    return BatchEngine.replicas(
        uniform_instance(N, seed=60), ACOParams(seed=7), replicas=B, **options
    )


def _held_bytes(options: dict, iterations: int) -> int:
    """Traced bytes still held once a K=1 run of ``iterations`` returns,
    with the engine and the run's result alive."""
    gc.collect()
    tracemalloc.start()
    try:
        engine = _engine(options)
        result = engine.run(iterations, report_every=1)
        assert len(result.results[0].reports) == iterations
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del engine, result
    return held


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_run_memory_does_not_grow_with_its_length(name):
    options = ENGINES[name]
    engine = _engine(options)
    # Untraced warm-up: process-wide caches filled by a first run would
    # otherwise count against whichever traced run came first.
    engine.run(2)
    m = engine.state.m
    tour_batch = B * m * (N + 1) * np.dtype(np.int32).itemsize
    short = _held_bytes(options, SHORT)
    growth = _held_bytes(options, LONG) - short
    per_boundary = growth / (LONG - SHORT)
    # Pinning every boundary's tours costs one whole batch per boundary.
    assert per_boundary < tour_batch / GROWTH_DIVISOR[name], (
        name, per_boundary, tour_batch,
    )


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_run_reports_carry_no_tours(name):
    result = _engine(ENGINES[name]).run(3, report_every=1)
    for row in result.results:
        assert [r.iteration for r in row.reports] == [1, 2, 3]
        assert all(r.tours is None for r in row.reports)
        assert all(r.stages for r in row.reports)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_run_iteration_reports_carry_valid_tours(name):
    engine = _engine(ENGINES[name])
    dist = engine.state.dist
    for it in (1, 2):
        reports = engine.run_iteration()
        assert len(reports) == B
        for b, rep in enumerate(reports):
            assert rep.iteration == it
            assert rep.tours is not None
            assert rep.tours.shape == (engine.state.m, N + 1)
            for t in rep.tours:
                validate_tour(t, N)
            np.testing.assert_array_equal(
                rep.lengths, tour_lengths(rep.tours, dist[b])
            )
