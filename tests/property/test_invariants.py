"""Property-based tests on the core invariants (hypothesis).

These cover the data structures and algorithms whose correctness everything
else leans on: tours, roulette selection, pheromone updates, ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ACOParams
from repro.core.construction.dataparallel import DataParallelConstruction
from repro.core.construction.taskbased import construct_exact_batch
from repro.core.pheromone import PHEROMONE_VERSIONS
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_M2050
from repro.tsp.generator import uniform_instance
from repro.tsp.tour import tour_lengths_batch, validate_tour
from tests.helpers import one_row_state

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _state(n, seed, nn=30, rho=0.5):
    inst = uniform_instance(n, seed=seed)
    return one_row_state(inst, ACOParams(seed=seed, nn=nn, rho=rho), TESLA_M2050)


def _exact_tours(stt, seed, nn_list=None):
    """One exact-rule build of the one-row state: ``(1, m, n + 1)`` tours
    and the colony's fallback count."""
    rng = ParkMillerLCG(n_streams=stt.m, seed=seed)
    tours, fb = construct_exact_batch(
        stt.choice_info, nn_list, rng, 1, stt.m, stt.n, work=stt.work
    )
    return tours, float(fb[0])


class TestConstructionInvariants:
    @SLOW
    @given(
        n=st.integers(8, 36),
        seed=st.integers(0, 10_000),
        nn=st.integers(2, 12),
        use_nn=st.booleans(),
    )
    def test_exact_rule_always_yields_hamiltonian_tours(self, n, seed, nn, use_nn):
        stt = _state(n, seed, nn)
        tours, fb = _exact_tours(stt, seed + 1, stt.nn_list if use_nn else None)
        assert fb >= 0
        for t in tours[0]:
            validate_tour(t, n)

    @SLOW
    @given(n=st.integers(8, 30), seed=st.integers(0, 10_000), tile=st.sampled_from([32, 64]))
    def test_iroulette_always_yields_hamiltonian_tours(self, n, seed, tile):
        stt = _state(n, seed, 5)
        strategy = DataParallelConstruction(tile=tile)
        rng = ParkMillerLCG(n_streams=stt.m * stt.n, seed=seed + 2)
        res = strategy.build_batch(stt, rng, collect=False)
        for t in res.tours[0]:
            validate_tour(t, n)


class TestPheromoneInvariants:
    @SLOW
    @given(
        n=st.integers(8, 28),
        seed=st.integers(0, 10_000),
        version=st.sampled_from(sorted(PHEROMONE_VERSIONS)),
        rho=st.floats(0.05, 1.0),
    )
    def test_update_preserves_symmetry_and_positivity(self, n, seed, version, rho):
        stt = _state(n, seed, rho=rho)
        tours, _ = _exact_tours(stt, seed)
        lengths, edges = tour_lengths_batch(tours, stt.dist, work=stt.work)
        PHEROMONE_VERSIONS[version]().update_batch(stt, edges, lengths)
        tau = stt.pheromone[0]
        assert np.all(tau >= 0)
        assert np.all(np.isfinite(tau))
        np.testing.assert_allclose(tau, tau.T, rtol=1e-12)

    @SLOW
    @given(n=st.integers(8, 24), seed=st.integers(0, 10_000))
    def test_total_deposit_mass_conserved(self, n, seed):
        """After evaporation, total pheromone rises by exactly
        2 * sum_k (n edges * 1/C_k) — eq. 3 aggregated."""
        stt = _state(n, seed, rho=0.5)
        tours, _ = _exact_tours(stt, seed)
        lengths, edges = tour_lengths_batch(tours, stt.dist, work=stt.work)
        before = stt.pheromone.sum()
        PHEROMONE_VERSIONS[1]().update_batch(stt, edges, lengths)
        expected = before * 0.5 + 2.0 * n * (1.0 / lengths.astype(float)).sum()
        assert stt.pheromone.sum() == pytest.approx(expected, rel=1e-9)


class TestLedgerAlgebra:
    @given(
        st.lists(
            st.tuples(st.floats(0, 1e9), st.floats(0, 1e9)), min_size=1, max_size=8
        )
    )
    def test_kernel_stats_merge_associative(self, pairs):
        from repro.simt.counters import KernelStats

        ledgers = [KernelStats(flops=a, atomic_hot_degree=b) for a, b in pairs]
        left = ledgers[0]
        for led in ledgers[1:]:
            left = left + led
        right = ledgers[-1]
        for led in reversed(ledgers[:-1]):
            right = led + right
        assert left.approx_equal(right)

    @given(st.floats(0, 1e6), st.floats(0, 16), st.floats(0, 16))
    def test_cpu_ops_scaling_distributes(self, base, f1, f2):
        from repro.seq.counts import CpuOps

        ops = CpuOps(arith_ops=base, rng_samples=base / 2)
        a = ops.scaled(f1).scaled(f2)
        b = ops.scaled(f1 * f2)
        assert a.approx_equal(b, rtol=1e-9)
