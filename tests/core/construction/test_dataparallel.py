"""Tests for the data-parallel construction kernels (versions 7-8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction.dataparallel import (
    DataParallelConstruction,
    DataParallelTextureConstruction,
)
from repro.core.params import ACOParams
from repro.errors import ACOConfigError
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_C1060
from repro.tsp.tour import validate_tour
from tests.helpers import one_row_state


def make_state(instance, device=TESLA_C1060, nn=10, seed=3):
    return one_row_state(instance, ACOParams(seed=seed, nn=nn), device)


def make_rng(state, seed=5):
    return ParkMillerLCG(n_streams=state.m * state.n, seed=seed)


def build(strategy, state, rng):
    """One collected build of the one-row state: row 0's tours and report."""
    res = strategy.build_batch(state, rng)
    return res.tours[0], res.reports[0]


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
        tours, _ = build(DataParallelConstruction(tile=64), st, make_rng(st))
        for t in tours:
            validate_tour(t, st.n)

    def test_valid_tours_multi_tile(self, medium_instance):
        st = make_state(medium_instance)
        tours, _ = build(DataParallelConstruction(tile=64), st, make_rng(st))
        assert st.n > 64  # really tiled
        for t in tours:
            validate_tour(t, st.n)

    def test_texture_variant_same_tours(self, small_instance):
        st = make_state(small_instance)
        a, _ = build(DataParallelConstruction(tile=64), st, make_rng(st, 9))
        b, _ = build(DataParallelTextureConstruction(tile=64), st, make_rng(st, 9))
        np.testing.assert_array_equal(a, b)

    def test_product_rule_tile_invariant(self, medium_instance):
        """With the product rule, the winner is the global argmax — the tile
        partition must not change the tours."""
        st = make_state(medium_instance)
        a, _ = build(DataParallelConstruction(tile=32), st, make_rng(st, 4))
        b, _ = build(DataParallelConstruction(tile=128), st, make_rng(st, 4))
        np.testing.assert_array_equal(a, b)

    def test_heuristic_rule_differs_under_tiling(self, medium_instance):
        st = make_state(medium_instance)
        prod = DataParallelConstruction(tile=32, tile_rule="product")
        heur = DataParallelConstruction(tile=32, tile_rule="heuristic")
        a, _ = build(prod, st, make_rng(st, 4))
        b, _ = build(heur, st, make_rng(st, 4))
        assert not np.array_equal(a, b)

    def test_insufficient_streams_raises(self, small_instance):
        st = make_state(small_instance)
        with pytest.raises(ACOConfigError, match="rng streams"):
            DataParallelConstruction().build_batch(st, ParkMillerLCG(st.m, 1))

    def test_prefers_high_choice(self, small_instance):
        st = make_state(small_instance)
        choice = st.choice_info[0]
        choice[:, :] = 1e-9
        choice[:, 7] = 1e9
        np.fill_diagonal(choice, 0.0)
        tours, _ = build(DataParallelConstruction(tile=64), st, make_rng(st, 11))
        for t in tours:
            if t[0] != 7:
                assert t[1] == 7


class TestSingleTileFastPath:
    """Under the product rule ``build_batch`` takes one argmax over the
    whole row at any tile count; the tours it must build — those of the
    per-tile argmax kernel — are pinned by
    ``tests/property/test_solo_golden.py``."""

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


class TestPredictMatchesReports:
    def test_report_is_closed_form(self, medium_instance):
        """Per-colony reports carry the closed-form ledger, which
        ``tests/property/test_solo_golden.py`` holds equal to the ledgers a
        per-step simulation measured."""
        st = make_state(medium_instance)
        strategy = DataParallelConstruction(tile=64)
        _, report = build(strategy, st, make_rng(st))
        pred, launch = strategy.predict_stats(st.n, st.m, st.nn, TESLA_C1060)
        assert report.stats == pred
        assert report.launch == launch


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
