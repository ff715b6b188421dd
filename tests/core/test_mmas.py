"""Tests for the MAX-MIN Ant System extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOParams
from repro.core.mmas import MaxMinAntSystem, MMASParams
from repro.errors import ACOConfigError
from repro.simt.device import TESLA_C1060
from repro.tsp.generator import uniform_instance
from repro.tsp.tour import validate_tour


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(32, seed=3232)


def _ring_trails(mmas, n: int) -> None:
    """Converge the trails onto one ring tour: ``tau_max`` on its edges,
    ``tau_min`` elsewhere."""
    tau = mmas.state.pheromone
    tau[:, :] = mmas.tau_min
    ring = np.arange(n)
    tau[ring, np.roll(ring, -1)] = mmas.tau_max
    tau[np.roll(ring, -1), ring] = mmas.tau_max
    np.fill_diagonal(tau, 0.0)


class TestParams:
    def test_validation(self):
        MMASParams(use_best_so_far_every=0)
        with pytest.raises(ACOConfigError):
            MMASParams(use_best_so_far_every=-1)
        with pytest.raises(ACOConfigError):
            MMASParams(tau_min_divisor=0)


class TestLimits:
    def test_initialised_at_tau_max(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=1))
        off = mmas.state.pheromone[~np.eye(instance.n, dtype=bool)]
        assert np.allclose(off, mmas.tau_max)
        assert mmas.tau_min < mmas.tau_max

    def test_limits_follow_best(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=2, nn=10))
        before = mmas.tau_max
        mmas.run(5)
        # a better tour than greedy must have been found -> tau_max rose
        assert mmas.tau_max >= before

    def test_trails_always_inside_limits(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=3, nn=10))
        mmas.run(8)
        tau = mmas.state.pheromone
        off = tau[~np.eye(instance.n, dtype=bool)]
        assert np.all(off >= mmas.tau_min - 1e-15)
        assert np.all(off <= mmas.tau_max + 1e-15)

    def test_reinitialise(self, instance):
        """A row whose branching factor is below the threshold has every
        trail reset to ``tau_max`` and its reset counted."""
        mmas = MaxMinAntSystem(instance, ACOParams(seed=4, nn=10))
        mmas.run(3)
        policy = mmas.engine.variant.update
        policy.reinit_branching = 2.5
        _ring_trails(mmas, instance.n)
        policy._maybe_reinitialise(mmas.engine.state)
        off = mmas.state.pheromone[~np.eye(instance.n, dtype=bool)]
        assert np.allclose(off, mmas.tau_max)
        assert mmas.trail_reinitialisations == 1


class TestUpdate:
    def test_single_tour_deposit(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=5, nn=10, rho=0.2))
        best, stages = mmas.run_iteration()
        pher = [s for s in stages if s.stage == "pheromone"][0]
        # one tour deposits: 2n atomics, not 2mn
        assert pher.stats.atomics_fp == pytest.approx(2.0 * instance.n)

    def test_evaporation_dominates_ledger(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=6, nn=10))
        _, stages = mmas.run_iteration()
        pher = [s for s in stages if s.stage == "pheromone"][0]
        # evaporation + clamp sweeps: two full-matrix loads and two stores
        assert pher.stats.gmem_load_bytes >= 2 * 4 * instance.n**2
        assert pher.stats.gmem_store_bytes >= 2 * 4 * instance.n**2

    def test_best_so_far_schedule(self, instance):
        mmas = MaxMinAntSystem(
            instance, ACOParams(seed=7, nn=10), MMASParams(use_best_so_far_every=1)
        )
        mmas.run(3)  # every iteration deposits best-so-far; must not crash
        assert mmas.state.best_length is not None


class TestRuns:
    def test_run_improves_and_validates(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=8, nn=10))
        res = mmas.run(10)
        validate_tour(res.best_tour, instance.n)
        assert res.best_length <= res.iteration_best_lengths[0]

    def test_deterministic(self, instance):
        a = MaxMinAntSystem(instance, ACOParams(seed=9, nn=10)).run(4)
        b = MaxMinAntSystem(instance, ACOParams(seed=9, nn=10)).run(4)
        assert a.iteration_best_lengths == b.iteration_best_lengths

    def test_invalid_iterations(self, instance):
        with pytest.raises(ACOConfigError):
            MaxMinAntSystem(instance).run(0)

    def test_works_with_task_based_kernel(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=10, nn=10), construction=3)
        res = mmas.run(3)
        validate_tour(res.best_tour, instance.n)

    def test_works_on_c1060(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=11, nn=10), device=TESLA_C1060)
        _, stages = mmas.run_iteration()
        from repro.experiments.calibration import gpu_cost_params

        total = sum(
            s.modeled_time(TESLA_C1060, gpu_cost_params(TESLA_C1060)) for s in stages
        )
        assert total > 0

    def test_reinit_on_stagnation(self, instance):
        """Aggressive convergence + reinit threshold triggers at least one
        trail reset."""
        mmas = MaxMinAntSystem(
            instance,
            ACOParams(seed=12, nn=10, rho=0.9, beta=5.0),
            MMASParams(use_best_so_far_every=1),
        )
        res = mmas.run(20, reinit_branching=2.5)
        assert res.trail_reinitialisations >= 1


class TestBranchingFactor:
    @staticmethod
    def _branching(mmas) -> float:
        return float(mmas.engine.variant.update.branching_factors(mmas.engine.state)[0])

    def test_uniform_trails_have_high_branching(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=13))
        # all trails equal tau_max -> every edge passes the threshold
        assert self._branching(mmas) == pytest.approx(instance.n - 1)

    def test_converged_trails_have_low_branching(self, instance):
        mmas = MaxMinAntSystem(instance, ACOParams(seed=14))
        _ring_trails(mmas, instance.n)
        assert self._branching(mmas) <= 2.5
