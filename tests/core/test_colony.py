"""Tests for the AntSystem colony orchestrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem
from repro.core.pheromone import make_pheromone
from repro.errors import ACOConfigError
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.tsp.tour import validate_tour


class TestConstruction:
    def test_defaults(self, small_instance):
        colony = AntSystem(small_instance)
        assert colony.construction.version == 8
        assert colony.pheromone.version == 1
        assert colony.device is TESLA_M2050

    def test_strategy_selection_by_key(self, small_instance):
        colony = AntSystem(small_instance, construction="nnlist", pheromone="atomic")
        assert colony.construction.version == 4
        assert colony.pheromone.version == 2

    def test_strategy_options(self, small_instance):
        colony = AntSystem(
            small_instance,
            construction=7,
            construction_options={"tile": 64},
            pheromone=4,
            pheromone_options={"theta": 128},
        )
        assert colony.construction.tile == 64
        assert colony.pheromone.theta == 128

    def test_pheromone_instance_passthrough(self, small_instance):
        ph = make_pheromone(3)
        colony = AntSystem(small_instance, pheromone=ph)
        assert colony.pheromone is ph

    def test_rng_streams_sized_for_strategy(self, small_instance):
        task = AntSystem(small_instance, construction=3)
        data = AntSystem(small_instance, construction=7)
        assert task.rng.n_streams == small_instance.n  # m = n
        assert data.rng.n_streams == small_instance.n ** 2

    def test_curand_for_versions_1_2(self, small_instance):
        from repro.rng import XorwowRNG

        colony = AntSystem(small_instance, construction=2)
        assert isinstance(colony.rng, XorwowRNG)


class TestIteration:
    @pytest.mark.parametrize("cv", [1, 3, 4, 6, 7, 8])
    def test_iteration_produces_valid_tours(self, small_instance, cv):
        colony = AntSystem(
            small_instance, ACOParams(seed=5, nn=10), construction=cv, pheromone=1
        )
        rep = colony.run_iteration()
        assert rep.tours.shape == (small_instance.n, small_instance.n + 1)
        for t in rep.tours:
            validate_tour(t, small_instance.n)

    def test_stage_families_present(self, small_instance):
        colony = AntSystem(small_instance, construction=8, pheromone=1)
        rep = colony.run_iteration()
        stages = [s.stage for s in rep.stages]
        assert stages == ["choice", "construction", "pheromone"]

    def test_v1_has_no_choice_stage(self, small_instance):
        colony = AntSystem(small_instance, construction=1)
        rep = colony.run_iteration()
        assert [s.stage for s in rep.stages] == ["construction", "pheromone"]

    def test_stage_lookup(self, small_instance):
        colony = AntSystem(small_instance)
        rep = colony.run_iteration()
        assert rep.stage("pheromone").kernel == "atomic_shared"
        with pytest.raises(KeyError):
            rep.stage("warp_shuffle")

    def test_pheromone_evolves(self, small_instance):
        colony = AntSystem(small_instance, ACOParams(seed=5))
        before = colony.state.pheromone.copy()
        colony.run_iteration()
        assert not np.allclose(colony.state.pheromone, before)


class TestRun:
    def test_run_tracks_best(self, small_instance):
        colony = AntSystem(small_instance, ACOParams(seed=5, nn=10))
        result = colony.run(iterations=5)
        assert len(result.iteration_best_lengths) == 5
        # The best-so-far record keeps the shortest tour seen and is never
        # worsened by a later, longer iteration.
        assert result.best_length == min(result.iteration_best_lengths)
        assert max(result.iteration_best_lengths) > result.best_length
        validate_tour(result.best_tour, small_instance.n)

    def test_run_invalid_iterations(self, small_instance):
        with pytest.raises(ACOConfigError):
            AntSystem(small_instance).run(0)

    def test_deterministic_given_seed(self, small_instance):
        a = AntSystem(small_instance, ACOParams(seed=9)).run(3)
        b = AntSystem(small_instance, ACOParams(seed=9)).run(3)
        assert a.iteration_best_lengths == b.iteration_best_lengths

    def test_modeled_times_positive(self, small_instance):
        colony = AntSystem(small_instance, device=TESLA_C1060)
        result = colony.run(2)
        cost = colony.cost_params()
        assert result.mean_stage_time("construction", cost) > 0
        assert result.mean_stage_time("pheromone", cost) > 0
        assert result.mean_iteration_time(cost) >= result.mean_stage_time(
            "construction", cost
        )

    def test_quality_improves_over_iterations(self, clustered_small):
        """AS should, on average, improve over the first iterations."""
        colony = AntSystem(clustered_small, ACOParams(seed=13, nn=12), construction=8)
        result = colony.run(10)
        first = result.iteration_best_lengths[0]
        assert result.best_length <= first
