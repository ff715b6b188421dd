"""Ablation — the tile size θ of the scatter-to-gather pheromone kernels.

The paper's formula ``γ = 2 n^4 / θ`` says global traffic falls inversely
with θ; the shared-memory stream does not.  This bench sweeps θ through the
model (a280/pcb442 on the C1060) and times the functional path at two sizes.
"""

from __future__ import annotations

import sys

import pytest

from benchmarks.conftest import update_inputs
from repro.core.pheromone import ScatterGatherTiledPheromone
from repro.experiments.harness import pheromone_model_time
from repro.simt.device import TESLA_C1060
from repro.tsp.tour import edge_indices
from repro.util.tables import Table

pytestmark = pytest.mark.benchmark(group="ablation-tiling")

THETAS = (32, 64, 128, 256, 512)


def test_theta_sweep_model():
    table = Table(
        ["theta"] + [f"{name} (ms)" for name in ("a280", "pcb442")],
        title="scatter-to-gather + tiling: modeled update time vs theta (C1060)",
    )
    times = {}
    for theta in THETAS:
        row = [theta]
        for name in ("a280", "pcb442"):
            t = pheromone_model_time(4, name, TESLA_C1060, theta=theta) * 1e3
            times[(theta, name)] = t
            row.append(f"{t:.1f}")
        table.add_row(row)
    print("\n" + table.render(), file=sys.stderr)
    # Larger tiles reduce global traffic: time must not increase with theta.
    for name in ("a280", "pcb442"):
        series = [times[(t, name)] for t in THETAS]
        assert all(a >= b * 0.999 for a, b in zip(series, series[1:]))


def test_untiled_always_worst_at_scale():
    t_untiled = pheromone_model_time(5, "pcb442", TESLA_C1060)
    for theta in THETAS:
        assert pheromone_model_time(4, "pcb442", TESLA_C1060, theta=theta) < t_untiled


@pytest.mark.parametrize("theta", [64, 256])
def test_functional_tiled_update(benchmark, att48, theta):
    state, tours, lengths = update_inputs(att48, TESLA_C1060, 9)
    strategy = ScatterGatherTiledPheromone(theta=theta)
    benchmark.extra_info["theta"] = theta
    benchmark(strategy.update_batch, state, edge_indices(tours[None]), lengths[None])
