"""Table IV — pheromone-update kernel versions 1-5 (Tesla M2050)."""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit_result
from benchmarks.conftest import update_inputs as make_update_inputs
from repro.core.pheromone import make_pheromone
from repro.experiments.harness import run_experiment
from repro.tsp.tour import edge_indices
from repro.simt.device import TESLA_M2050

pytestmark = pytest.mark.benchmark(group="table4")


def test_regenerate_table4(benchmark):
    result = benchmark.pedantic(run_experiment, args=("table4",), rounds=1, iterations=1)
    emit_result(result)
    assert result.metrics["ordering"]["mean"] >= 0.9
    assert result.metrics["mean_abs_log_ratio"] < 0.35


def test_atomics_native_vs_emulated_model():
    """The C1060/M2050 atomic gap (Table III row 1 vs Table IV row 1)."""
    from repro.experiments.harness import pheromone_model_time
    from repro.simt.device import TESLA_C1060

    for name in ("pcb442", "pr1002"):
        t_c = pheromone_model_time(1, name, TESLA_C1060)
        t_m = pheromone_model_time(1, name, TESLA_M2050)
        assert t_c > 2.0 * t_m


@pytest.fixture(scope="module")
def update_inputs(kroC100):
    return make_update_inputs(kroC100, TESLA_M2050, 43)


@pytest.mark.parametrize("version", range(1, 6))
def test_pheromone_update_kroC100(benchmark, update_inputs, version):
    state, tours, lengths = update_inputs
    strategy = make_pheromone(version)
    benchmark.extra_info["version"] = version
    benchmark(strategy.update_batch, state, edge_indices(tours[None]), lengths[None])
