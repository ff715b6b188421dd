"""Tests for the task-based construction kernels (versions 1-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import WorkBuffers
from repro.core.construction.taskbased import (
    BaselineTaskConstruction,
    ChoiceKernelTaskConstruction,
    DeviceRngTaskConstruction,
    construct_exact_batch,
)
from repro.core.params import ACOParams
from repro.rng import ParkMillerLCG, XorwowRNG
from repro.simt.device import TESLA_C1060
from repro.tsp.tour import validate_tour
from tests.helpers import one_row_state


@pytest.fixture
def state(small_instance):
    return one_row_state(small_instance, ACOParams(seed=3, nn=10), TESLA_C1060)


def construct(choice, nn_list, rng, m, n):
    """One colony through the task-based kernel: ``(m, n + 1)`` tours and
    its fallback count."""
    tours, fallbacks = construct_exact_batch(
        choice[None], None if nn_list is None else nn_list[None], rng, 1, m, n,
        work=WorkBuffers(),
    )
    return tours[0], float(fallbacks[0])


class TestConstructExact:
    def test_full_rule_valid_tours(self, state):
        rng = ParkMillerLCG(n_streams=state.m, seed=1)
        tours, fb = construct(state.choice_info[0], None, rng, state.m, state.n)
        assert fb == 0.0
        for t in tours:
            validate_tour(t, state.n)

    def test_nnlist_rule_valid_tours(self, state):
        rng = ParkMillerLCG(n_streams=state.m, seed=1)
        tours, fb = construct(
            state.choice_info[0], state.nn_list[0], rng, state.m, state.n
        )
        assert fb >= 0.0
        for t in tours:
            validate_tour(t, state.n)

    def test_deterministic(self, state):
        choice = state.choice_info[0]
        a, _ = construct(choice, None, ParkMillerLCG(state.m, 7), state.m, state.n)
        b, _ = construct(choice, None, ParkMillerLCG(state.m, 7), state.m, state.n)
        np.testing.assert_array_equal(a, b)

    def test_full_rule_falls_back_on_zero_weight_rows(self):
        """Weights into cities 5-7 are 0: once 0-4 are visited the full rule
        has no mass and must take the first unvisited city, not city 0."""
        n = 8
        choice = np.random.default_rng(1).uniform(0.5, 1.5, (n, n))
        np.fill_diagonal(choice, 0.0)
        choice[:, 5:] = 0.0
        tours, fb = construct(choice, None, ParkMillerLCG(n, 3), n, n)
        fallbacks = 0
        for t in tours:
            validate_tour(t, n)
            rest = [c for c in (5, 6, 7) if c != t[0]]
            assert list(t[n - len(rest) : n]) == rest
            fallbacks += len(rest)
        assert fb == fallbacks

    def test_prefers_high_choice_values(self, state):
        """With an overwhelming weight on one edge, ants at city i choose j."""
        choice = np.full((state.n, state.n), 1e-12)
        np.fill_diagonal(choice, 0.0)
        choice[:, 5] = 1e6  # city 5 overwhelms from everywhere
        rng = ParkMillerLCG(n_streams=state.m, seed=2)
        tours, _ = construct(choice, None, rng, state.m, state.n)
        # Every ant that does not start at 5 must visit 5 second.
        for t in tours:
            if t[0] != 5:
                assert t[1] == 5


class TestVersions:
    @pytest.mark.parametrize(
        "cls",
        [BaselineTaskConstruction, ChoiceKernelTaskConstruction, DeviceRngTaskConstruction],
    )
    def test_build_produces_valid_tours(self, cls, state):
        strategy = cls()
        rng_cls = XorwowRNG if strategy.rng_kind == "curand" else ParkMillerLCG
        res = strategy.build_batch(state, rng_cls(n_streams=state.m, seed=5))
        assert res.tours.shape == (1, state.m, state.n + 1)
        for t in res.tours[0]:
            validate_tour(t, state.n)
        assert res.reports[0].stage == "construction"

    def test_v1_works_without_choice_info(self, small_instance):
        st = one_row_state(small_instance, ACOParams(seed=3), TESLA_C1060, choice=False)
        assert st.choice_info is None
        res = BaselineTaskConstruction().build_batch(st, XorwowRNG(st.m, 1))
        for t in res.tours[0]:
            validate_tour(t, st.n)

    def test_v2_requires_choice_info(self, small_instance):
        from repro.errors import ACOConfigError

        st = one_row_state(small_instance, ACOParams(seed=3), TESLA_C1060, choice=False)
        with pytest.raises(ACOConfigError, match="choice_info"):
            ChoiceKernelTaskConstruction().build_batch(st, XorwowRNG(st.m, 1))


class TestLedgers:
    def test_v1_charges_special_ops_v2_does_not(self):
        n, m, nn = 100, 100, 30
        s1, _ = BaselineTaskConstruction().predict_stats(n, m, nn, TESLA_C1060)
        s2, _ = ChoiceKernelTaskConstruction().predict_stats(n, m, nn, TESLA_C1060)
        assert s1.special_ops > 0
        assert s2.special_ops == 0

    def test_v1_loads_more_than_v2(self):
        n, m, nn = 100, 100, 30
        s1, _ = BaselineTaskConstruction().predict_stats(n, m, nn, TESLA_C1060)
        s2, _ = ChoiceKernelTaskConstruction().predict_stats(n, m, nn, TESLA_C1060)
        assert s1.gmem_load_bytes > s2.gmem_load_bytes

    def test_v2_v3_differ_only_in_rng_class(self):
        n, m, nn = 100, 100, 30
        s2, _ = ChoiceKernelTaskConstruction().predict_stats(n, m, nn, TESLA_C1060)
        s3, _ = DeviceRngTaskConstruction().predict_stats(n, m, nn, TESLA_C1060)
        assert s2.rng_curand > 0 and s2.rng_lcg == 0
        assert s3.rng_lcg > 0 and s3.rng_curand == 0
        assert s2.rng_curand == s3.rng_lcg
        assert s2.gmem_load_bytes == s3.gmem_load_bytes

    def test_candidate_scaling_is_cubic(self):
        s_small, _ = DeviceRngTaskConstruction().predict_stats(50, 50, 10, TESLA_C1060)
        s_big, _ = DeviceRngTaskConstruction().predict_stats(100, 100, 10, TESLA_C1060)
        # m*(n-1)*n grows ~8x when n doubles (m = n)
        ratio = s_big.flops / s_small.flops
        assert 7.5 < ratio < 8.5

    def test_build_records_prediction(self, state):
        strategy = DeviceRngTaskConstruction()
        res = strategy.build_batch(state, ParkMillerLCG(state.m, 5))
        pred, _ = strategy.predict_stats(
            state.n, state.m, state.nn, TESLA_C1060,
            fallback_steps=float(res.fallback_steps[0]),
        )
        report = res.reports[0]
        assert report.stats.approx_equal(pred), report.stats.diff(pred)

    def test_launch_one_thread_per_ant(self):
        _, launch = DeviceRngTaskConstruction().predict_stats(
            100, 100, 30, TESLA_C1060
        )
        assert launch.total_threads >= 100
        assert launch.block == 128
