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
from repro.core.choice import ChoiceKernel
from repro.core.construction.dataparallel import DataParallelConstruction
from repro.core.construction.taskbased import construct_exact
from repro.core.pheromone import PHEROMONE_VERSIONS
from repro.core.state import ColonyState
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_M2050
from repro.tsp.generator import uniform_instance
from repro.tsp.tour import tour_lengths, validate_tour

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _state(n, seed, nn):
    inst = uniform_instance(n, seed=seed)
    stt = ColonyState.create(inst, ACOParams(seed=seed, nn=nn), TESLA_M2050)
    ChoiceKernel().run(stt)
    return stt


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
        rng = ParkMillerLCG(n_streams=stt.m, seed=seed + 1)
        tours, fb = construct_exact(
            stt.choice_info, stt.nn_list if use_nn else None, rng, stt.m, stt.n,
            work=stt.work,
        )
        assert fb >= 0
        for t in tours:
            validate_tour(t, n)

    @SLOW
    @given(n=st.integers(8, 30), seed=st.integers(0, 10_000), tile=st.sampled_from([32, 64]))
    def test_iroulette_always_yields_hamiltonian_tours(self, n, seed, tile):
        stt = _state(n, seed, 5)
        strategy = DataParallelConstruction(tile=tile)
        rng = ParkMillerLCG(n_streams=stt.m * stt.n, seed=seed + 2)
        res = strategy.build(stt, rng)
        for t in res.tours:
            validate_tour(t, n)

    @SLOW
    @given(n=st.integers(8, 30), seed=st.integers(0, 10_000))
    def test_dataparallel_predict_equals_simulate(self, n, seed):
        stt = _state(n, seed, 5)
        strategy = DataParallelConstruction(tile=32)
        rng = ParkMillerLCG(n_streams=stt.m * stt.n, seed=seed + 3)
        res = strategy.build(stt, rng)
        pred, _ = strategy.predict_stats(stt.n, stt.m, stt.nn, TESLA_M2050)
        assert res.report.stats.approx_equal(pred), res.report.stats.diff(pred)


class TestPheromoneInvariants:
    @SLOW
    @given(
        n=st.integers(8, 28),
        seed=st.integers(0, 10_000),
        version=st.sampled_from(sorted(PHEROMONE_VERSIONS)),
        rho=st.floats(0.05, 1.0),
    )
    def test_update_preserves_symmetry_and_positivity(self, n, seed, version, rho):
        inst = uniform_instance(n, seed=seed)
        stt = ColonyState.create(inst, ACOParams(seed=seed, rho=rho), TESLA_M2050)
        ChoiceKernel().run(stt)
        rng = ParkMillerLCG(n_streams=stt.m, seed=seed)
        tours, _ = construct_exact(
            stt.choice_info, None, rng, stt.m, stt.n, work=stt.work
        )
        lengths = tour_lengths(tours, stt.dist)
        PHEROMONE_VERSIONS[version]().update(stt, tours, lengths)
        assert np.all(stt.pheromone >= 0)
        assert np.all(np.isfinite(stt.pheromone))
        np.testing.assert_allclose(stt.pheromone, stt.pheromone.T, rtol=1e-12)

    @SLOW
    @given(n=st.integers(8, 24), seed=st.integers(0, 10_000))
    def test_total_deposit_mass_conserved(self, n, seed):
        """After evaporation, total pheromone rises by exactly
        2 * sum_k (n edges * 1/C_k) — eq. 3 aggregated."""
        inst = uniform_instance(n, seed=seed)
        stt = ColonyState.create(inst, ACOParams(seed=seed, rho=0.5), TESLA_M2050)
        ChoiceKernel().run(stt)
        rng = ParkMillerLCG(n_streams=stt.m, seed=seed)
        tours, _ = construct_exact(
            stt.choice_info, None, rng, stt.m, stt.n, work=stt.work
        )
        lengths = tour_lengths(tours, stt.dist)
        before = stt.pheromone.sum()
        PHEROMONE_VERSIONS[1]().update(stt, tours, lengths)
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
