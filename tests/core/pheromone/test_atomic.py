"""Tests for the atomic pheromone-update kernels (versions 1-2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchColonyState
from repro.core.params import ACOParams
from repro.core.pheromone.atomic import AtomicPheromone, AtomicSharedPheromone
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.tsp import uniform_instance
from repro.tsp.tour import edge_indices, random_tour, tour_lengths, tour_lengths_batch
from tests.helpers import one_row_state


def colony(instance, **params):
    return one_row_state(instance, ACOParams(seed=3, **params), TESLA_M2050, choice=False)


def update(strategy, state, tours, lengths):
    """One update of the one-row state from an ``(m, n + 1)`` tour set;
    row 0's report."""
    return strategy.update_batch(state, edge_indices(tours[None]), lengths[None])[0]


@pytest.fixture
def state(small_instance):
    return colony(small_instance, rho=0.5)


@pytest.fixture
def tours_and_lengths(state):
    rng = np.random.default_rng(8)
    tours = np.stack([random_tour(state.n, rng) for _ in range(state.m)])
    return tours, tour_lengths(tours, state.dist[0])


class TestFunctional:
    def test_update_changes_matrix(self, state, tours_and_lengths):
        tours, lengths = tours_and_lengths
        before = state.pheromone.copy()
        update(AtomicSharedPheromone(), state, tours, lengths)
        assert not np.allclose(state.pheromone, before)

    def test_symmetry_preserved(self, state, tours_and_lengths):
        tours, lengths = tours_and_lengths
        update(AtomicSharedPheromone(), state, tours, lengths)
        np.testing.assert_allclose(state.pheromone[0], state.pheromone[0].T)

    def test_exact_update_semantics(self, state, tours_and_lengths):
        tours, lengths = tours_and_lengths
        rho = state.params[0].rho
        expected = state.pheromone[0] * (1 - rho)
        for k in range(state.m):
            delta = 1.0 / lengths[k]
            for a, b in zip(tours[k, :-1], tours[k, 1:]):
                expected[a, b] += delta
                expected[b, a] += delta
        update(AtomicSharedPheromone(), state, tours, lengths)
        np.testing.assert_allclose(state.pheromone[0], expected, rtol=1e-12)

    def test_v1_v2_functionally_identical(self, small_instance, tours_and_lengths):
        tours, lengths = tours_and_lengths
        s1, s2 = colony(small_instance), colony(small_instance)
        update(AtomicSharedPheromone(), s1, tours, lengths)
        update(AtomicPheromone(), s2, tours, lengths)
        np.testing.assert_array_equal(s1.pheromone, s2.pheromone)

    def test_nonnegative(self, state, tours_and_lengths):
        tours, lengths = tours_and_lengths
        for _ in range(5):
            update(AtomicSharedPheromone(), state, tours, lengths)
        assert np.all(state.pheromone >= 0)


class TestDeposit:
    """The deposit is an atomic sum: every crossing of a cell adds its
    ant's ``1/C_k`` to both triangle cells, and nothing else moves."""

    def test_repeated_edges_accumulate(self, state):
        tour = random_tour(state.n, np.random.default_rng(2))
        tours = np.repeat(tour[None], state.m, axis=0)
        lengths = np.full(state.m, 500, dtype=np.int64)
        before = state.pheromone[0].copy()
        update(AtomicSharedPheromone(), state, tours, lengths)
        a, b = tour[0], tour[1]
        assert state.pheromone[0, a, b] == pytest.approx(
            0.5 * before[a, b] + state.m / 500.0, rel=1e-12
        )
        assert state.pheromone[0, b, a] == state.pheromone[0, a, b]

    def test_untouched_cells_only_evaporate(self, state, tours_and_lengths):
        tours, lengths = tours_and_lengths
        before = state.pheromone[0].copy()
        update(AtomicPheromone(), state, tours, lengths)
        fw = edge_indices(tours).ravel()
        crossed = np.zeros(state.n * state.n, dtype=bool)
        crossed[fw] = True
        crossed |= crossed.reshape(state.n, state.n).T.ravel()
        after = state.pheromone[0].ravel()
        np.testing.assert_array_equal(after[~crossed], 0.5 * before.ravel()[~crossed])
        assert np.all(after[crossed] > 0.5 * before.ravel()[crossed])

    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(1, 10_000), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_sum(self, seed, lengths):
        n = 7
        instance = uniform_instance(n, seed=77)
        m = len(lengths)
        state = colony(instance, n_ants=m, rho=0.25)
        rng = np.random.default_rng(seed)
        tours = np.stack([random_tour(n, rng) for _ in range(m)])
        lengths = np.array(lengths, dtype=np.int64)
        fw = edge_indices(tours).ravel()
        dense = np.bincount(fw, weights=np.repeat(1.0 / lengths, n), minlength=n * n)
        dense = dense.reshape(n, n)
        expected = 0.75 * state.pheromone[0] + dense + dense.T
        update(AtomicSharedPheromone(), state, tours, lengths)
        np.testing.assert_allclose(state.pheromone[0], expected, rtol=1e-12)

    def test_hot_degree_is_per_colony(self, small_instance):
        """Each row's report carries its own colony's hottest cell."""
        params = ACOParams(seed=3)
        bstate = BatchColonyState.create(
            [small_instance, small_instance], [params, params], TESLA_M2050
        )
        n, m = bstate.n, bstate.m
        rng = np.random.default_rng(4)
        shared = np.repeat(random_tour(n, rng)[None], m, axis=0)
        spread = np.stack([random_tour(n, rng) for _ in range(m)])
        tours = np.stack([shared, spread])
        lengths, edges = tour_lengths_batch(tours, bstate.dist, work=bstate.work)
        reps = AtomicSharedPheromone().update_batch(bstate, edges, lengths)
        assert reps[0].stats.atomic_hot_degree == m
        want = np.bincount(edge_indices(spread).ravel(), minlength=n * n).max()
        assert reps[1].stats.atomic_hot_degree == want < m


class TestLedgers:
    def test_atomics_counted(self, state, tours_and_lengths):
        tours, lengths = tours_and_lengths
        rep = update(AtomicSharedPheromone(), state, tours, lengths)
        assert rep.stats.atomics_fp == pytest.approx(2.0 * state.m * state.n)

    def test_hot_degree_from_functional_run(self, state, tours_and_lengths):
        """The report's hot degree is the measured hottest-cell multiplicity
        of this update's deposits (forward and backward alike)."""
        tours, lengths = tours_and_lengths
        rep = update(AtomicSharedPheromone(), state, tours, lengths)
        counts = np.bincount(edge_indices(tours).ravel(), minlength=state.n**2)
        assert rep.stats.atomic_hot_degree == counts.max() >= 1.0

    def test_v1_uses_smem_v2_does_not(self):
        s1, _ = AtomicSharedPheromone().predict_stats(100, 100, TESLA_C1060)
        s2, _ = AtomicPheromone().predict_stats(100, 100, TESLA_C1060)
        assert s1.smem_accesses > 0
        assert s2.smem_accesses == 0
        assert s2.gmem_load_bytes > s1.gmem_load_bytes

    def test_two_launches_evap_plus_deposit(self):
        s, _ = AtomicSharedPheromone().predict_stats(100, 100, TESLA_C1060)
        assert s.kernel_launches == 2

    def test_same_atomics_both_versions(self):
        s1, _ = AtomicSharedPheromone().predict_stats(100, 100, TESLA_C1060)
        s2, _ = AtomicPheromone().predict_stats(100, 100, TESLA_C1060)
        assert s1.atomics_fp == s2.atomics_fp

    def test_modeled_time_c1060_pays_emulation(self, state, tours_and_lengths):
        """Same ledger, both devices: CC 1.3 emulation makes C1060 slower
        despite its higher core count — the paper's Figure 5 asymmetry."""
        from repro.experiments.calibration import gpu_cost_params
        from repro.simt.timing import estimate_time

        s, launch = AtomicSharedPheromone().predict_stats(1002, 1002, TESLA_C1060)
        t_c = estimate_time(s, TESLA_C1060, gpu_cost_params(TESLA_C1060))
        s_m, _ = AtomicSharedPheromone().predict_stats(1002, 1002, TESLA_M2050)
        t_m = estimate_time(s_m, TESLA_M2050, gpu_cost_params(TESLA_M2050))
        assert t_c > 2.0 * t_m
