"""Table III — pheromone-update kernel versions 1-5 (Tesla C1060)."""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit_result
from benchmarks.conftest import update_inputs as make_update_inputs
from repro.core.pheromone import make_pheromone
from repro.experiments.harness import run_experiment
from repro.tsp.tour import edge_indices
from repro.simt.device import TESLA_C1060

pytestmark = pytest.mark.benchmark(group="table3")


def test_regenerate_table3(benchmark):
    result = benchmark.pedantic(run_experiment, args=("table3",), rounds=1, iterations=1)
    emit_result(result)
    assert result.metrics["ordering"]["mean"] >= 0.9
    assert result.metrics["slowdown_grows_with_n"]


@pytest.fixture(scope="module")
def update_inputs(att48):
    return make_update_inputs(att48, TESLA_C1060, 42)


@pytest.mark.parametrize("version", range(1, 6))
def test_pheromone_update_att48(benchmark, update_inputs, version):
    """Functional simulation of one pheromone update, per version."""
    state, tours, lengths = update_inputs
    strategy = make_pheromone(version)
    benchmark.extra_info["version"] = version
    benchmark.extra_info["label"] = strategy.label
    benchmark(strategy.update_batch, state, edge_indices(tours[None]), lengths[None])
