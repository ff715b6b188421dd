"""Tests for the data-parallel construction kernels (versions 7-8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEngine
from repro.core.choice import ChoiceKernel
from repro.core.construction.dataparallel import (
    DataParallelConstruction,
    DataParallelTextureConstruction,
)
from repro.core.params import ACOParams
from repro.core.state import ColonyState
from repro.errors import ACOConfigError
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_C1060
from repro.tsp import uniform_instance
from repro.tsp.tour import validate_tour


def make_state(instance, device=TESLA_C1060, nn=10, seed=3):
    st = ColonyState.create(instance, ACOParams(seed=seed, nn=nn), device)
    ChoiceKernel().run(st)
    return st


def make_rng(state, seed=5):
    return ParkMillerLCG(n_streams=state.m * state.n, seed=seed)


class TestConfig:
    def test_tile_validation(self):
        with pytest.raises(ACOConfigError):
            DataParallelConstruction(tile=16)
        with pytest.raises(ACOConfigError):
            DataParallelConstruction(tile_rule="roulette")

    def test_rng_streams_one_per_thread(self):
        s = DataParallelConstruction()
        assert s.rng_streams(100, 100) == 10_000

    def test_tile_width_clipped(self):
        s = DataParallelConstruction(tile=512)
        assert s.tile_width(TESLA_C1060, 2392) == 512
        assert s.tile_width(TESLA_C1060, 100) == 128  # rounded to warps

    def test_launch_block_per_ant(self, small_instance):
        s = DataParallelConstruction()
        cfg = s.launch_config(TESLA_C1060, n=40, m=40)
        assert cfg.grid == 40


class TestFunctional:
    def test_valid_tours_single_tile(self, small_instance):
        st = make_state(small_instance)
        res = DataParallelConstruction(tile=64).build(st, make_rng(st))
        for t in res.tours:
            validate_tour(t, st.n)

    def test_valid_tours_multi_tile(self, medium_instance):
        st = make_state(medium_instance)
        res = DataParallelConstruction(tile=64).build(st, make_rng(st))
        assert st.n > 64  # really tiled
        for t in res.tours:
            validate_tour(t, st.n)

    def test_texture_variant_same_tours(self, small_instance):
        st = make_state(small_instance)
        a = DataParallelConstruction(tile=64).build(st, make_rng(st, 9)).tours
        b = DataParallelTextureConstruction(tile=64).build(st, make_rng(st, 9)).tours
        np.testing.assert_array_equal(a, b)

    def test_product_rule_tile_invariant(self, medium_instance):
        """With the product rule, the winner is the global argmax — the tile
        partition must not change the tours."""
        st = make_state(medium_instance)
        a = DataParallelConstruction(tile=32).build(st, make_rng(st, 4)).tours
        b = DataParallelConstruction(tile=128).build(st, make_rng(st, 4)).tours
        np.testing.assert_array_equal(a, b)

    def test_heuristic_rule_differs_under_tiling(self, medium_instance):
        st = make_state(medium_instance)
        prod = DataParallelConstruction(tile=32, tile_rule="product")
        heur = DataParallelConstruction(tile=32, tile_rule="heuristic")
        a = prod.build(st, make_rng(st, 4)).tours
        b = heur.build(st, make_rng(st, 4)).tours
        assert not np.array_equal(a, b)

    def test_insufficient_streams_raises(self, small_instance):
        st = make_state(small_instance)
        with pytest.raises(ACOConfigError, match="rng streams"):
            DataParallelConstruction().build(st, ParkMillerLCG(st.m, 1))

    def test_prefers_high_choice(self, small_instance):
        st = make_state(small_instance)
        st.choice_info[:, :] = 1e-9
        st.choice_info[:, 7] = 1e9
        np.fill_diagonal(st.choice_info, 0.0)
        res = DataParallelConstruction(tile=64).build(st, make_rng(st, 11))
        for t in res.tours:
            if t[0] != 7:
                assert t[1] == 7


class TestSingleTileFastPath:
    """Under the product rule ``build_batch`` takes one argmax over the
    whole row at any tile count; it must pick the same cities as the solo
    tiled ``build``, which still elects per-tile winners (block_argmax)."""

    @staticmethod
    def _pair(n, seed):
        """A B=1 engine at tile=32 and its row as a solo state + RNG."""
        engine = BatchEngine(
            uniform_instance(n, seed=n), ACOParams(seed=seed, nn=10),
            construction=8, construction_options={"tile": 32},
        )
        kernel = engine.construction
        assert kernel.tile_width(engine.state.device, n) < n  # really tiled
        engine.choice_kernel.run_batch(engine.state, collect=False)
        solo = engine.state.colony_view(0)
        engine.state.sync_colony_view(solo)  # choice_info: a view of row 0
        rng = ParkMillerLCG(n_streams=kernel.rng_streams(n, solo.m), seed=seed)
        return engine, solo, rng

    @pytest.mark.parametrize("seed", [2, 17])
    @pytest.mark.parametrize("n", [33, 48, 64, 300])
    def test_row_argmax_equals_solo_tiled_build(self, n, seed):
        engine, solo, rng = self._pair(n, seed)
        kernel = engine.construction
        for _ in range(3):  # the RNG advances: three different tour sets
            batch = kernel.build_batch(engine.state, engine.rng, collect=False)
            tiled = kernel.build(solo, rng).tours
            np.testing.assert_array_equal(batch.tours[0], tiled)
        for t in tiled:
            validate_tour(t, n)

    def test_zero_choice_ties_resolve_alike(self):
        """Tied +0.0 products and all-zero rows: both paths take the best
        unvisited city (the lowest, as all remaining weights are 0), count
        the same fallbacks and build valid tours."""
        engine, solo, rng = self._pair(48, 5)
        # Cities 20+ always tie at +0.0; once an ant has visited the first
        # 20, its whole product row is zero.
        engine.state.choice_info[:, :, 20:] = 0.0
        batch = engine.construction.build_batch(engine.state, engine.rng, collect=False)
        tiled = engine.construction.build(solo, rng)
        np.testing.assert_array_equal(batch.tours[0], tiled.tours)
        assert batch.fallback_steps[0] == tiled.fallback_steps > 0
        for t in tiled.tours:
            validate_tour(t, 48)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 5e-324, 1e-300, 0.25, 0.5, 0.5, 1.0, 3e10]),
                min_size=8, max_size=8,
            ),
            min_size=1, max_size=6,
        )
    )
    def test_int_view_argmax_equals_float_argmax(self, rows):
        """Finite doubles >= +0.0 order like their int64 bit patterns, so
        the fast path's argmax (ties to the lowest index) is unchanged."""
        w = np.array(rows, dtype=np.float64)
        w[0] = 0.0  # always include an all-zero row
        np.testing.assert_array_equal(
            np.argmax(w.view(np.int64), axis=1), np.argmax(w, axis=1)
        )


class TestPredictMatchesSimulate:
    """The core cross-validation: independent closed forms == recorded runs."""

    @pytest.mark.parametrize("tile", [32, 64, 128])
    @pytest.mark.parametrize("cls", [DataParallelConstruction, DataParallelTextureConstruction])
    def test_exact_ledger_match(self, cls, tile, medium_instance):
        st = make_state(medium_instance)
        strategy = cls(tile=tile)
        res = strategy.build(st, make_rng(st))
        pred, launch = strategy.predict_stats(st.n, st.m, st.nn, TESLA_C1060)
        assert res.report.stats.approx_equal(pred), res.report.stats.diff(pred)
        assert res.report.launch == launch

    def test_heuristic_rule_ledger_match(self, medium_instance):
        st = make_state(medium_instance)
        strategy = DataParallelConstruction(tile=32, tile_rule="heuristic")
        res = strategy.build(st, make_rng(st))
        pred, _ = strategy.predict_stats(st.n, st.m, st.nn, TESLA_C1060)
        assert res.report.stats.approx_equal(pred), res.report.stats.diff(pred)


class TestLedgers:
    def test_v8_reads_choice_via_texture(self):
        s7, _ = DataParallelConstruction().predict_stats(100, 100, 30, TESLA_C1060)
        s8, _ = DataParallelTextureConstruction().predict_stats(
            100, 100, 30, TESLA_C1060
        )
        assert s8.tex_bytes > 0
        assert s8.gmem_load_bytes < s7.gmem_load_bytes
        assert s7.tex_bytes == 0

    def test_rng_one_per_thread_per_step(self):
        s, _ = DataParallelConstruction().predict_stats(100, 100, 30, TESLA_C1060)
        assert s.rng_lcg == pytest.approx(100 + 99 * 100 * 100)

    def test_serial_barriers_scale_with_steps_and_tiles(self):
        one_tile, _ = DataParallelConstruction(tile=256).predict_stats(
            200, 200, 30, TESLA_C1060
        )
        four_tiles, _ = DataParallelConstruction(tile=64).predict_stats(
            200, 200, 30, TESLA_C1060
        )
        assert four_tiles.serial_barriers > one_tile.serial_barriers

    def test_no_divergent_branches(self):
        """The design point of Fig. 1: flag multiply instead of branching."""
        s, _ = DataParallelConstruction().predict_stats(100, 100, 30, TESLA_C1060)
        assert s.divergent_branches == 0
