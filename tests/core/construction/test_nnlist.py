"""Tests for the NN-list construction kernels (versions 4-6)."""

from __future__ import annotations

import math

import pytest

from repro.core.construction.base import expected_fallback_steps
from repro.core.construction.nnlist import (
    NNListConstruction,
    NNListSharedConstruction,
    NNListTextureConstruction,
    tabu_layout,
)
from repro.core.params import ACOParams
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.tsp.tour import validate_tour
from tests.helpers import one_row_state


@pytest.fixture
def state(small_instance):
    return one_row_state(small_instance, ACOParams(seed=3, nn=10), TESLA_C1060)


class TestTabuLayout:
    def test_small_instances_use_word_layout(self):
        layout = tabu_layout(48, TESLA_C1060)
        assert layout.mode == "word"
        assert layout.ants_per_block == 128

    def test_large_instances_go_bitwise_on_c1060(self):
        layout = tabu_layout(1002, TESLA_C1060)
        assert layout.mode == "bitwise"
        assert layout.ants_per_block >= 32

    def test_pr2392_fits_bitwise(self):
        layout = tabu_layout(2392, TESLA_C1060)
        assert layout.mode == "bitwise"
        assert layout.smem_per_block <= TESLA_C1060.shared_mem_per_sm

    def test_m2050_keeps_word_longer(self):
        # 48 KB shared: word layout still viable at a280
        assert tabu_layout(280, TESLA_M2050).mode == "word"
        assert tabu_layout(280, TESLA_C1060).mode == "bitwise"

    def test_bitwise_bytes_exact(self):
        layout = tabu_layout(100, TESLA_M2050)
        if layout.mode == "bitwise":  # pragma: no cover - device dependent
            assert layout.smem_per_block == layout.ants_per_block * 4 * math.ceil(100 / 32)


class TestFunctional:
    @pytest.mark.parametrize(
        "cls", [NNListConstruction, NNListSharedConstruction, NNListTextureConstruction]
    )
    def test_valid_tours(self, cls, state):
        res = cls().build_batch(state, ParkMillerLCG(state.m, 5))
        for t in res.tours[0]:
            validate_tour(t, state.n)

    def test_all_three_versions_same_tours(self, state):
        """Versions 4-6 share functional semantics; only the ledgers differ."""
        import numpy as np

        tours = [
            cls().build_batch(state, ParkMillerLCG(state.m, 77)).tours
            for cls in (NNListConstruction, NNListSharedConstruction, NNListTextureConstruction)
        ]
        np.testing.assert_array_equal(tours[0], tours[1])
        np.testing.assert_array_equal(tours[1], tours[2])

    def test_fallbacks_counted(self, state):
        res = NNListConstruction().build_batch(state, ParkMillerLCG(state.m, 5))
        assert res.fallback_steps[0] > 0  # nn=10 on n=40 always exhausts eventually


class TestLedgers:
    def test_v4_tabu_in_gmem_v5_in_smem(self):
        n, m, nn = 280, 280, 30
        s4, _ = NNListConstruction().predict_stats(n, m, nn, TESLA_C1060)
        s5, _ = NNListSharedConstruction().predict_stats(n, m, nn, TESLA_C1060)
        assert s5.smem_accesses > s4.smem_accesses
        assert s5.gmem_load_bytes < s4.gmem_load_bytes

    def test_bitwise_mode_charges_extra_int_ops(self):
        # a280 on C1060 is bitwise; on M2050 it is word-mode
        s_c, _ = NNListSharedConstruction().predict_stats(280, 280, 30, TESLA_C1060)
        s_m, _ = NNListSharedConstruction().predict_stats(280, 280, 30, TESLA_M2050)
        assert s_c.int_ops > s_m.int_ops

    def test_v6_moves_rng_to_texture(self):
        n, m, nn = 280, 280, 30
        s5, _ = NNListSharedConstruction().predict_stats(n, m, nn, TESLA_C1060)
        s6, _ = NNListTextureConstruction().predict_stats(n, m, nn, TESLA_C1060)
        assert s6.tex_bytes > 0
        assert s5.tex_bytes == 0
        # the fill kernel is an extra launch
        assert s6.kernel_launches == s5.kernel_launches + 1

    def test_fallback_term_scales(self):
        s_none, _ = NNListConstruction().predict_stats(
            280, 280, 30, TESLA_C1060, fallback_steps=0
        )
        s_many, _ = NNListConstruction().predict_stats(
            280, 280, 30, TESLA_C1060, fallback_steps=1000
        )
        assert s_many.gmem_load_bytes > s_none.gmem_load_bytes

    def test_nn_width_scales_candidates(self):
        s10, _ = NNListConstruction().predict_stats(300, 300, 10, TESLA_C1060)
        s30, _ = NNListConstruction().predict_stats(300, 300, 30, TESLA_C1060)
        assert s30.rng_lcg > 2.5 * s10.rng_lcg

    def test_build_matches_prediction(self, state):
        strategy = NNListSharedConstruction()
        res = strategy.build_batch(state, ParkMillerLCG(state.m, 5))
        pred, _ = strategy.predict_stats(
            state.n, state.m, state.nn, TESLA_C1060,
            fallback_steps=float(res.fallback_steps[0]),
        )
        report = res.reports[0]
        assert report.stats.approx_equal(pred), report.stats.diff(pred)

    def test_shared_block_sized_by_tabu(self):
        _, launch = NNListSharedConstruction().predict_stats(1002, 1002, 30, TESLA_C1060)
        assert launch.smem_per_block <= TESLA_C1060.shared_mem_per_sm
        assert launch.smem_per_block > 0


class TestFallbackModel:
    def test_measured_band(self, state):
        """The 0.62 * n / nn model holds within a factor band on real runs."""
        import numpy as np

        # warm the pheromone for two iterations, then measure
        strategy = NNListConstruction()
        rng = ParkMillerLCG(state.m, 5)
        measured = []
        for _ in range(4):
            res = strategy.build_batch(state, rng, collect=False)
            measured.append(float(res.fallback_steps[0]))
        mean = float(np.mean(measured[1:]))
        model = expected_fallback_steps(state.n, state.m, state.nn)
        assert 0.3 * model <= mean <= 3.0 * model

    def test_model_shrinks_with_nn(self):
        assert expected_fallback_steps(500, 500, 40) < expected_fallback_steps(
            500, 500, 10
        )

    def test_model_clipped_by_steps(self):
        assert expected_fallback_steps(10, 10, 1) <= 10 * 9

    def test_degenerate_n(self):
        assert expected_fallback_steps(1, 1, 1) == 0.0
