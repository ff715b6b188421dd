"""Tests for the Ant Colony System extension.

Construction/update internals are exercised on the engine's ACS policies
(:class:`~repro.core.variant.PseudoProportionalChoice`,
:class:`~repro.core.variant.GlobalBestUpdate`) through a B=1
:class:`AntColonySystem` view; run-level behaviour on the view itself,
which ``tests/property/test_solo_golden.py`` pins to the recorded solo
ACS loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOParams
from repro.core.acs import ACSParams, AntColonySystem
from repro.core.variant import IterationContext
from repro.errors import ACOConfigError
from repro.simt.device import TESLA_C1060
from repro.tsp.generator import uniform_instance
from repro.tsp.tour import validate_tour


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(35, seed=3535)


def construct(view: AntColonySystem):
    """One ACS construction pass (choice kernel + pseudo-random-proportional
    picks with local updates) on the view's engine; row 0's tours and
    construction report."""
    engine = view.engine
    tours, _, reports = engine.variant.choice.build_batch(
        engine.state, engine.construction, engine.choice_kernel, engine.rng, True
    )
    return tours[0], reports[0]


def global_update(view: AntColonySystem):
    """The ACS global update on the view's best-so-far record; row 0's
    report."""
    bs = view.engine.state
    ctx = IterationContext(
        iteration=bs.iteration,
        it_best=np.zeros(1, dtype=np.int64),
        it_best_lengths=bs.best_lengths,
        best_lengths=bs.best_lengths,
        best_tours=bs.best_tours,
        improved=np.zeros(1, dtype=bool),
        edges=np.zeros((1, bs.m, bs.n), dtype=np.int64),
    )
    update = view.engine.variant.update
    return update.update_batch(bs, view.engine.pheromone, None, None, ctx, True)[0]


class TestParams:
    def test_defaults(self):
        p = ACSParams()
        assert p.q0 == 0.9
        assert p.xi == 0.1

    def test_q0_bounds(self):
        ACSParams(q0=0.0)
        ACSParams(q0=1.0)
        with pytest.raises(ACOConfigError):
            ACSParams(q0=1.5)

    def test_xi_bounds(self):
        with pytest.raises(ACOConfigError):
            ACSParams(xi=0.0)
        with pytest.raises(ACOConfigError):
            ACSParams(xi=1.2)


class TestInitialisation:
    def test_acs_tau0_smaller_than_as(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=1))
        # ACS tau0 = 1/(n C_nn) << AS tau0 = m/C_nn
        assert acs.tau0 < acs.state.tau0
        off = acs.state.pheromone[~np.eye(instance.n, dtype=bool)]
        assert np.allclose(off, acs.tau0)


class TestConstruction:
    def test_valid_tours(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=2))
        tours, report = construct(acs)
        for t in tours:
            validate_tour(t, instance.n)
        assert report.stage == "construction"
        assert report.stats.rng_lcg > 0

    def test_q0_one_is_greedy(self, instance):
        """q0 = 1: every ant's first move is the greedy argmax of its start
        row (local updates touch the trails, never this iteration's
        ``choice_info``)."""
        acs = AntColonySystem(instance, ACOParams(seed=7), ACSParams(q0=1.0))
        tours, _ = construct(acs)
        choice = acs.engine.state.choice_info[0]
        for t in tours:
            row = choice[t[0]].copy()
            row[t[0]] = -np.inf
            assert t[1] == int(np.argmax(row))

    def test_local_update_decays_toward_tau0(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=3), ACSParams(xi=0.5))
        # inflate every trail, then run a construction pass
        acs.state.pheromone[:, :] = acs.tau0 * 100
        np.fill_diagonal(acs.state.pheromone, 0.0)
        before = acs.state.pheromone.copy()
        construct(acs)
        # every visited edge moved toward tau0 (decreased)
        changed = acs.state.pheromone < before - 1e-18
        assert changed.any()
        assert np.all(acs.state.pheromone[changed] >= acs.tau0 - 1e-18)

    def test_local_update_touches_exactly_the_crossed_edges(self, instance):
        """Every cell of an edge an ant crossed, in either direction and
        the closing edge back to its start city included, decays; every
        cell off the tours keeps its value bit for bit."""
        acs = AntColonySystem(instance, ACOParams(seed=5), ACSParams(xi=0.3))
        acs.state.pheromone[:, :] = acs.tau0 * 100
        np.fill_diagonal(acs.state.pheromone, 0.0)
        before = acs.state.pheromone.copy()
        tours, _ = construct(acs)
        crossed = np.zeros_like(before, dtype=bool)
        crossed[tours[:, :-1], tours[:, 1:]] = True
        crossed |= crossed.T
        after = acs.state.pheromone
        np.testing.assert_array_equal(after[~crossed], before[~crossed])
        assert np.all(after[crossed] < before[crossed])

    def test_local_update_one_ant_decays_each_edge_once(self, instance):
        """A lone ant crosses each edge of its tour once, the closing edge
        included, so each decays exactly once: ``(1 - xi) tau + xi tau0``
        on both triangle cells."""
        acs = AntColonySystem(instance, ACOParams(seed=6, n_ants=1), ACSParams(xi=0.25))
        high = acs.tau0 * 100
        acs.state.pheromone[:, :] = high
        np.fill_diagonal(acs.state.pheromone, 0.0)
        tours, _ = construct(acs)
        a, b = tours[0, :-1], tours[0, 1:]
        want = 0.75 * high + 0.25 * acs.tau0
        np.testing.assert_allclose(acs.state.pheromone[a, b], want, rtol=1e-12)
        np.testing.assert_allclose(acs.state.pheromone[b, a], want, rtol=1e-12)

    def test_local_update_preserves_symmetry(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=4))
        construct(acs)
        np.testing.assert_allclose(acs.state.pheromone, acs.state.pheromone.T)


class TestGlobalUpdate:
    def test_only_best_edges_touched(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=5), ACSParams(xi=0.01))
        acs.run_iteration()
        tau_before = acs.state.pheromone.copy()
        report = global_update(acs)
        assert report.stage == "pheromone"
        diff = ~np.isclose(acs.state.pheromone, tau_before, rtol=1e-15, atol=0)
        # changed cells must be exactly the best tour's (symmetric) edges
        bt = acs.state.best_tour
        expected = np.zeros_like(diff)
        for a, b in zip(bt[:-1], bt[1:]):
            expected[a, b] = expected[b, a] = True
        assert diff.any()
        assert not np.any(diff & ~expected)

    def test_deposit_strength(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=6, rho=0.5))
        acs.run_iteration()
        bt = acs.state.best_tour
        a, b = int(bt[0]), int(bt[1])
        tau_before = float(acs.state.pheromone[a, b])
        global_update(acs)
        expected = 0.5 * tau_before + 0.5 / acs.state.best_length
        assert acs.state.pheromone[a, b] == pytest.approx(expected)
        assert acs.state.pheromone[b, a] == acs.state.pheromone[a, b]


class TestRuns:
    def test_run_improves(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=8, nn=10))
        res = acs.run(12)
        assert res.best_length <= res.iteration_best_lengths[0]
        validate_tour(res.best_tour, instance.n)

    def test_run_invalid_iterations(self, instance):
        with pytest.raises(ACOConfigError):
            AntColonySystem(instance).run(0)

    def test_deterministic(self, instance):
        a = AntColonySystem(instance, ACOParams(seed=9)).run(4)
        b = AntColonySystem(instance, ACOParams(seed=9)).run(4)
        assert a.iteration_best_lengths == b.iteration_best_lengths

    def test_quality_comparable_to_as(self, instance):
        """ACS with exploitation should match or beat AS early on."""
        from repro.core import AntSystem

        acs = AntColonySystem(instance, ACOParams(seed=10, nn=10)).run(10)
        as_ = AntSystem(
            instance, ACOParams(seed=10, nn=10), construction=8, pheromone=1
        ).run(10)
        assert acs.best_length <= as_.best_length * 1.15

    def test_device_ledger_on_c1060(self, instance):
        acs = AntColonySystem(instance, ACOParams(seed=11), device=TESLA_C1060)
        _, reports = acs.run_iteration()
        assert all(r.stats.kernel_launches >= 1 for r in reports)
        from repro.experiments.calibration import gpu_cost_params

        t = sum(r.modeled_time(TESLA_C1060, gpu_cost_params(TESLA_C1060)) for r in reports)
        assert t > 0
