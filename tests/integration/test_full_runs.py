"""Integration: full colony runs across the strategy matrix and devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.tsp import uniform_instance
from repro.tsp.tour import tour_lengths, validate_tour


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(50, seed=505)


class TestStrategyMatrix:
    @pytest.mark.parametrize("cv", range(1, 9))
    @pytest.mark.parametrize("pv", range(1, 6))
    def test_every_combination_runs(self, instance, cv, pv):
        colony = AntSystem(
            instance,
            ACOParams(seed=4, nn=10),
            device=TESLA_C1060,
            construction=cv,
            pheromone=pv,
        )
        rep = colony.run_iteration()
        for t in rep.tours:
            validate_tour(t, instance.n)
        np.testing.assert_array_equal(
            rep.lengths, tour_lengths(rep.tours, colony.state.dist)
        )
        assert np.all(colony.state.pheromone >= 0)
        assert np.all(np.isfinite(colony.state.pheromone))

    @pytest.mark.parametrize("device", [TESLA_C1060, TESLA_M2050], ids=["c1060", "m2050"])
    def test_devices_functionally_equivalent(self, instance, device):
        """The device changes the cost model, never the algorithm."""
        colony = AntSystem(
            instance, ACOParams(seed=6, nn=10), device=device, construction=8
        )
        result = colony.run(3)
        assert result.device is device
        validate_tour(result.best_tour, instance.n)

    def test_same_seed_same_tours_across_devices(self, instance):
        runs = []
        for device in (TESLA_C1060, TESLA_M2050):
            colony = AntSystem(
                instance, ACOParams(seed=17, nn=10), device=device, construction=7
            )
            runs.append(colony.run_iteration().tours)
        np.testing.assert_array_equal(runs[0], runs[1])


class TestModeledTimeShapes:
    def test_construction_stage_orderings_on_small_instance(self, instance):
        """On a 50-city instance the data-parallel kernels must model faster
        than the task-based ones (Table II's left columns)."""
        cost = {}
        for cv in (1, 3, 8):
            colony = AntSystem(
                instance, ACOParams(seed=4, nn=10), device=TESLA_C1060, construction=cv
            )
            result = colony.run(1)
            p = colony.cost_params()
            # Table II rows include the choice kernel's cost.
            cost[cv] = result.mean_stage_time("construction", p) + result.mean_stage_time(
                "choice", p
            )
        assert cost[8] < cost[3] < cost[1]

    def test_pheromone_stage_orderings(self, instance):
        cost = {}
        for pv in (1, 4, 5):
            colony = AntSystem(
                instance, ACOParams(seed=4, nn=10), device=TESLA_C1060, pheromone=pv
            )
            result = colony.run(1)
            cost[pv] = result.mean_stage_time("pheromone", colony.cost_params())
        # At n = 50 both scatter-to-gather variants are compute-bound with
        # identical instruction streams, so v4 == v5; the strict v4 < v5 gap
        # at scale is asserted in tests/core/pheromone (n = 657).
        assert cost[1] < cost[4] <= cost[5]

    def test_iteration_time_decomposition(self, instance):
        colony = AntSystem(instance, ACOParams(seed=4, nn=10))
        result = colony.run(1)
        p = colony.cost_params()
        total = result.mean_iteration_time(p)
        parts = sum(
            result.mean_stage_time(stage, p)
            for stage in ("choice", "construction", "pheromone")
        )
        assert total == pytest.approx(parts)


class TestLongRunStability:
    def test_thirty_iterations_stay_finite(self, instance):
        colony = AntSystem(instance, ACOParams(seed=2, nn=10, rho=0.5))
        result = colony.run(30)
        tau = colony.state.pheromone
        assert np.all(np.isfinite(tau))
        assert np.all(tau >= 0)
        assert result.best_length > 0

    def test_high_evaporation_does_not_collapse(self, instance):
        colony = AntSystem(instance, ACOParams(seed=2, nn=10, rho=0.99))
        colony.run(10)
        off = colony.state.pheromone[~np.eye(instance.n, dtype=bool)]
        assert off.max() > 0
