"""Generated inputs for the single run loop.

``BatchEngine.run(N, report_every=K)`` is one loop for every K: each
iteration is a step, and every K-th one (plus the last) is a report
boundary; ``run_iteration()`` is that same step taken as a boundary.  For
any iteration count, K, kernel pair and batch size, ``run(N, K)`` must
therefore equal N manual ``run_iteration()`` calls bit for bit —
per-iteration bests, best tours, pheromone stack and RNG state — and its
reports and boundary callbacks must land exactly on iterations
``{K, 2K, ..., N}`` (N always included).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ACOParams, BatchEngine
from repro.tsp import uniform_instance

INSTANCE = uniform_instance(12, seed=808)


def _engine(construction: int, pheromone: int, B: int) -> BatchEngine:
    return BatchEngine(
        INSTANCE,
        [ACOParams(seed=31 + 5 * b, nn=5) for b in range(B)],
        construction=construction,
        pheromone=pheromone,
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    iterations=st.integers(1, 7),
    report_every=st.integers(1, 8),
    construction=st.integers(1, 8),
    pheromone=st.integers(1, 5),
    B=st.integers(1, 3),
)
def test_run_equals_manual_steps(
    iterations, report_every, construction, pheromone, B
):
    looped = _engine(construction, pheromone, B)
    seen: list[int] = []
    result = looped.run(
        iterations,
        report_every=report_every,
        on_boundary=lambda update: seen.append(update.iteration),
    )
    stepped = _engine(construction, pheromone, B)
    steps = [stepped.run_iteration() for _ in range(iterations)]

    for b, row in enumerate(result.results):
        assert row.iteration_best_lengths == [s[b].best_length for s in steps]
        assert row.best_length == int(stepped.state.best_lengths[b])
        np.testing.assert_array_equal(row.best_tour, stepped.state.best_tours[b])
    np.testing.assert_array_equal(looped.state.pheromone, stepped.state.pheromone)
    np.testing.assert_array_equal(looped.state.tours, stepped.state.tours)
    got_rng, want_rng = looped.rng.state_arrays(), stepped.rng.state_arrays()
    assert got_rng.keys() == want_rng.keys()
    for key in got_rng:
        np.testing.assert_array_equal(got_rng[key], want_rng[key])
    assert looped.rng.samples_drawn == stepped.rng.samples_drawn

    boundaries = sorted(
        {*range(report_every, iterations + 1, report_every), iterations}
    )
    assert seen == boundaries
    for row in result.results:
        assert [r.iteration for r in row.reports] == boundaries
