"""Figure 5 — pheromone-update speed-up (atomic + shared kernel vs ACOTSP)."""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit_result
from benchmarks.conftest import update_inputs as make_update_inputs
from repro.core.pheromone import make_pheromone
from repro.experiments.harness import run_experiment
from repro.seq import SequentialAntSystem
from repro.simt.device import TESLA_M2050
from repro.tsp.tour import edge_indices

pytestmark = pytest.mark.benchmark(group="fig5")


def test_regenerate_fig5(benchmark):
    result = benchmark.pedantic(run_experiment, args=("fig5",), rounds=1, iterations=1)
    emit_result(result)
    for dev in ("c1060", "m2050"):
        assert result.metrics[dev]["peak_instance_match"]
        assert result.metrics[dev]["crossover_match"]
    # The emulation asymmetry: M2050 dominates C1060 everywhere.
    c = result.model_rows["Tesla C1060"]
    m = result.model_rows["Tesla M2050"]
    assert all(b > a for a, b in zip(c, m))


@pytest.fixture(scope="module")
def update_inputs(a280):
    return make_update_inputs(a280, TESLA_M2050, 44)


def test_gpu_atomic_update_a280(benchmark, update_inputs):
    state, tours, lengths = update_inputs
    strategy = make_pheromone(1)
    benchmark.extra_info["side"] = "gpu_v1"
    benchmark(strategy.update_batch, state, edge_indices(tours[None]), lengths[None])


def test_sequential_update_a280(benchmark, a280, update_inputs):
    _, tours, lengths = update_inputs
    engine = SequentialAntSystem(a280, seed=1234, nn=30)
    benchmark.extra_info["side"] = "sequential"
    benchmark(engine.update_pheromone, tours, lengths)
