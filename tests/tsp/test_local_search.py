"""Tests for the 2-opt local search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ACOConfigError
from repro.tsp.generator import uniform_instance
from repro.tsp.local_search import (
    BatchTwoOptResult,
    TwoOptResult,
    best_exchange,
    two_opt,
    two_opt_batch,
)
from repro.tsp.tour import (
    nearest_neighbor_tour,
    random_tour,
    tour_length,
    validate_tour,
)

_SQUARE = np.array(
    [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=np.int64
)


class TestBasics:
    def test_uncrosses_square(self):
        # unit square, crossed diagonals tour
        d = np.array(
            [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=np.int64
        )
        crossed = np.array([0, 2, 1, 3, 0], dtype=np.int32)
        res = two_opt(crossed, d)
        assert res.length == 4
        assert res.improvement > 0
        validate_tour(res.tour, 4)

    def test_optimal_tour_untouched(self):
        d = np.array(
            [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=np.int64
        )
        good = np.array([0, 1, 2, 3, 0], dtype=np.int32)
        res = two_opt(good, d)
        assert res.length == 4
        assert res.exchanges == 0

    def test_result_fields(self):
        inst = uniform_instance(25, seed=77)
        d = inst.distance_matrix()
        t = random_tour(25, np.random.default_rng(1))
        res = two_opt(t, d)
        assert isinstance(res, TwoOptResult)
        assert res.initial_length == tour_length(t, d)
        assert res.length == tour_length(res.tour, d)
        assert res.improvement >= 0

    def test_max_passes_cap(self):
        inst = uniform_instance(40, seed=78)
        t = random_tour(40, np.random.default_rng(2))
        res = two_opt(t, inst.distance_matrix(), max_passes=1)
        assert res.passes <= 1


class TestOptimality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_improving_exchange_remains(self, seed):
        inst = uniform_instance(30, seed=seed)
        d = inst.distance_matrix()
        res = two_opt(random_tour(30, np.random.default_rng(seed)), d)
        _, _, gain = best_exchange(res.tour[:-1].astype(np.int64), d)
        assert gain < 0.5

    def test_improves_random_tours_substantially(self):
        inst = uniform_instance(60, seed=4)
        d = inst.distance_matrix()
        t = random_tour(60, np.random.default_rng(5))
        res = two_opt(t, d)
        assert res.length < 0.7 * res.initial_length

    def test_improves_or_matches_nn_tour(self):
        inst = uniform_instance(60, seed=6)
        d = inst.distance_matrix()
        nn = nearest_neighbor_tour(d)
        res = two_opt(nn, d)
        assert res.length <= tour_length(nn, d)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(5, 30), seed=st.integers(0, 5000))
    def test_always_valid_and_never_worse(self, n, seed):
        inst = uniform_instance(n, seed=seed)
        d = inst.distance_matrix()
        t = random_tour(n, np.random.default_rng(seed))
        res = two_opt(t, d)
        validate_tour(res.tour, n)
        assert res.length <= res.initial_length


class TestSweepMode:
    def test_sweep_matches_best_mode_quality_class(self):
        """Sweep mode ends 2-opt-optimal and valid, in far fewer passes."""
        inst = uniform_instance(50, seed=91)
        d = inst.distance_matrix()
        t = random_tour(50, np.random.default_rng(9))
        res = two_opt(t, d, mode="sweep")
        validate_tour(res.tour, 50)
        assert res.length == tour_length(res.tour, d)
        _, _, gain = best_exchange(res.tour[:-1].astype(np.int64), d)
        assert gain < 0.5
        best = two_opt(t, d, mode="best")
        assert res.passes <= best.passes

    def test_sweep_never_worse_and_max_passes_zero(self):
        inst = uniform_instance(20, seed=92)
        d = inst.distance_matrix()
        t = random_tour(20, np.random.default_rng(10))
        assert two_opt(t, d, mode="sweep").length <= tour_length(t, d)
        res = two_opt(t, d, mode="sweep", max_passes=0)
        assert res.exchanges == 0
        np.testing.assert_array_equal(res.tour, t)

    def test_bad_mode_rejected(self):
        from repro.errors import ACOConfigError

        t = np.array([0, 1, 2, 3, 0], dtype=np.int32)
        with pytest.raises(ACOConfigError, match="mode"):
            two_opt(t, _SQUARE, mode="first")
        with pytest.raises(ACOConfigError, match="max_passes"):
            two_opt(t, _SQUARE, max_passes=-1)


class TestEdgeCases:
    def test_n3_is_noop(self):
        """Every 3-city tour is 2-opt-optimal; both kernels must agree."""
        d = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]], dtype=np.int64)
        t = np.array([0, 2, 1, 0], dtype=np.int32)
        res = two_opt(t, d)
        assert res.exchanges == 0 and res.length == res.initial_length
        nn = np.argsort(d, axis=1)[:, 1:3].astype(np.int32)
        bres = two_opt_batch(t[None], d[None], nn_list=nn[None])
        assert int(bres.exchanges[0]) == 0
        np.testing.assert_array_equal(bres.tours[0], t)

    def test_already_optimal_untouched_nn_and_batch(self):
        good = np.array([0, 1, 2, 3, 0], dtype=np.int32)
        nn = np.argsort(_SQUARE, axis=1)[:, 1:4].astype(np.int32)
        res = two_opt(good, _SQUARE, nn_list=nn)
        assert res.exchanges == 0 and res.length == 4
        bres = two_opt_batch(good[None], _SQUARE[None], nn_list=nn[None])
        assert int(bres.lengths[0]) == 4 and int(bres.exchanges[0]) == 0

    def test_max_passes_zero_returns_input(self):
        inst = uniform_instance(15, seed=93)
        d = inst.distance_matrix()
        t = random_tour(15, np.random.default_rng(11))
        nn = inst.nn_lists(7)
        for res in (
            two_opt(t, d, max_passes=0),
            two_opt(t, d, max_passes=0, nn_list=nn),
        ):
            assert res.exchanges == 0
            np.testing.assert_array_equal(res.tour, t)
        bres = two_opt_batch(t[None], d[None], nn_list=nn[None], max_passes=0)
        np.testing.assert_array_equal(bres.tours[0], t)

    def test_full_width_nn_matches_full_matrix(self):
        """With nn = n-1 the candidate restriction is vacuous: the
        nn-kernel must reach the full-matrix result length."""
        for seed in (1, 2, 3, 4, 5):
            inst = uniform_instance(12, seed=seed)
            d = inst.distance_matrix()
            t = random_tour(12, np.random.default_rng(seed))
            full = two_opt(t, d)
            nn = two_opt(t, d, nn_list=inst.nn_lists(11))
            assert nn.length == full.length, seed

    def test_wall_seconds_populated(self):
        inst = uniform_instance(20, seed=94)
        d = inst.distance_matrix()
        t = random_tour(20, np.random.default_rng(12))
        assert two_opt(t, d).wall_seconds >= 0.0
        bres = two_opt_batch(t[None], d[None], nn_list=inst.nn_lists(7)[None])
        assert isinstance(bres, BatchTwoOptResult)
        assert bres.wall_seconds >= 0.0
        assert int(bres.improvement[0]) >= 0


class TestBatchKernel:
    def test_batch_uncrosses_square(self):
        crossed = np.array([0, 2, 1, 3, 0], dtype=np.int32)
        nn = np.argsort(_SQUARE, axis=1)[:, 1:4].astype(np.int32)
        res = two_opt_batch(crossed[None], _SQUARE[None], nn_list=nn[None])
        assert int(res.lengths[0]) == 4
        validate_tour(res.tours[0], 4)
        assert int(res.exchanges[0]) >= 1

    def test_batch_rows_never_worse_and_valid(self):
        inst = uniform_instance(22, seed=95)
        d = inst.distance_matrix()
        rng = np.random.default_rng(13)
        tours = np.stack([random_tour(22, rng) for _ in range(4)])
        nn = inst.nn_lists(7)
        B = tours.shape[0]
        res = two_opt_batch(
            tours,
            np.broadcast_to(d, (B,) + d.shape),
            nn_list=np.broadcast_to(nn, (B,) + nn.shape),
        )
        for b in range(B):
            validate_tour(res.tours[b], 22)
            assert int(res.lengths[b]) == tour_length(res.tours[b], d)
            assert int(res.lengths[b]) <= int(res.initial_lengths[b])


class TestBatchGuards:
    """Shape and range checks at entry: the kernel gathers with
    ``mode="clip"``, so a bad input must fail here, not clamp silently."""

    def _inputs(self, B=2, n=9):
        inst = uniform_instance(n, seed=96)
        rng = np.random.default_rng(14)
        tours = np.stack([random_tour(n, rng) for _ in range(B)])
        d = np.broadcast_to(inst.distance_matrix(), (B, n, n))
        nn = np.broadcast_to(inst.nn_lists(4), (B, n, 4))
        return tours, d, nn

    def test_dist_shape_rejected(self):
        tours, d, nn = self._inputs()
        with pytest.raises(ACOConfigError, match="dist must be"):
            two_opt_batch(tours, d[:1], nn_list=nn)
        with pytest.raises(ACOConfigError, match="dist must be"):
            two_opt_batch(tours, d[:, :-1], nn_list=nn)
        with pytest.raises(ACOConfigError, match="integers"):
            two_opt_batch(tours, d.astype(np.float64), nn_list=nn)

    def test_nn_list_shape_rejected(self):
        tours, d, nn = self._inputs()
        with pytest.raises(ACOConfigError, match="nn_list must be"):
            two_opt_batch(tours, d, nn_list=nn[0])
        with pytest.raises(ACOConfigError, match="nn_list must be"):
            two_opt_batch(tours, d, nn_list=nn[:, :-1])

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_nn_list_out_of_range_rejected(self, bad):
        tours, d, nn = self._inputs()
        nn = nn.copy()
        nn[1, 3, 2] = bad
        with pytest.raises(ACOConfigError, match=r"\[0, 9\)"):
            two_opt_batch(tours, d, nn_list=nn)

    def test_lengths_shape_rejected(self):
        tours, d, nn = self._inputs()
        with pytest.raises(ACOConfigError, match="lengths must be"):
            two_opt_batch(tours, d, nn_list=nn, lengths=np.zeros(3, np.int64))


class TestWithColony:
    def test_polishes_aco_tours(self, small_instance):
        from repro.core import ACOParams, AntSystem

        colony = AntSystem(small_instance, ACOParams(seed=3, nn=10), construction=8)
        result = colony.run(5)
        res = two_opt(result.best_tour, small_instance.distance_matrix())
        assert res.length <= result.best_length
        validate_tour(res.tour, small_instance.n)
