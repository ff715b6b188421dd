"""``report_every=K`` equivalence: the amortized loop's defining invariant.

``run(iterations=N, report_every=K)`` must return the **bit-identical** best
tour, best length, per-iteration best lengths and final pheromone stack as
``report_every=1``, for every construction kernel (1-8) x every pheromone
strategy (1-5).  Between K-boundaries the loop keeps tours, lengths and the
best-so-far record backend-resident, so this suite is what licenses raising
K without any numerical caveat.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem, BatchEngine
from repro.errors import ACOConfigError
from repro.tsp import uniform_instance

ITERATIONS = 5
#: K=3 exercises interior boundaries plus the forced final-iteration one
#: (5 % 3 != 0); K=50 exercises the single-boundary whole-run case.
SEEDS = [11, 19]


@pytest.fixture(scope="module")
def instance():
    # Small but not trivial; nn=7 keeps candidate-list fallbacks exercised.
    return uniform_instance(16, seed=2024)


def _engine(instance, construction, pheromone, **kwargs):
    return BatchEngine(
        instance,
        [ACOParams(seed=s, nn=7) for s in SEEDS],
        construction=construction,
        pheromone=pheromone,
        **kwargs,
    )


@pytest.mark.parametrize("construction", range(1, 9))
@pytest.mark.parametrize("pheromone", range(1, 6))
def test_report_every_bit_identical(instance, construction, pheromone):
    ref_engine = _engine(instance, construction, pheromone)
    ref = ref_engine.run(ITERATIONS, report_every=1)
    for K in (3, 50):
        engine = _engine(instance, construction, pheromone)
        got = engine.run(ITERATIONS, report_every=K)
        for b in range(len(SEEDS)):
            assert got.results[b].best_length == ref.results[b].best_length
            np.testing.assert_array_equal(
                got.results[b].best_tour, ref.results[b].best_tour
            )
            assert (
                got.results[b].iteration_best_lengths
                == ref.results[b].iteration_best_lengths
            )
        np.testing.assert_array_equal(
            engine.state.pheromone, ref_engine.state.pheromone
        )
        np.testing.assert_array_equal(engine.state.tours, ref_engine.state.tours)
        np.testing.assert_array_equal(
            engine.state.lengths, ref_engine.state.lengths
        )


def test_reports_thin_to_boundaries(instance):
    engine = _engine(instance, 8, 1)
    batch = engine.run(7, report_every=3)
    # Boundaries at iterations 3, 6 and the forced final one at 7.
    assert len(batch.results[0].reports) == 3
    assert [r.iteration for r in batch.results[0].reports] == [3, 6, 7]
    # Per-iteration best lengths are still complete.
    assert len(batch.results[0].iteration_best_lengths) == 7


def test_report_every_resumes_across_runs(instance):
    """A second run() continues the best record the first one left."""
    a = _engine(instance, 8, 1)
    a.run(3, report_every=1)
    first = a.run(4, report_every=2)
    b = _engine(instance, 8, 1)
    b.run(3, report_every=1)
    second = b.run(4, report_every=1)
    assert first.results[0].best_length == second.results[0].best_length
    np.testing.assert_array_equal(
        first.results[0].best_tour, second.results[0].best_tour
    )


def test_antsystem_report_every(instance):
    ref = AntSystem(instance, ACOParams(seed=5, nn=7)).run(6)
    amo = AntSystem(instance, ACOParams(seed=5, nn=7)).run(6, report_every=4)
    assert amo.best_length == ref.best_length
    np.testing.assert_array_equal(amo.best_tour, ref.best_tour)
    assert amo.iteration_best_lengths == ref.iteration_best_lengths
    assert len(amo.reports) == 2  # boundaries at 4 and 6


def test_report_every_validation(instance):
    engine = _engine(instance, 8, 1)
    with pytest.raises(ACOConfigError):
        engine.run(3, report_every=0)
    with pytest.raises(ACOConfigError):
        AntSystem(instance, ACOParams(seed=1, nn=7)).run(3, report_every=-1)
