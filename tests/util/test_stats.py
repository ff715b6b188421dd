"""Tests for repro.util.stats."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    crossover_index,
    log_ratio,
    monotone_fraction,
    spearman_rank_correlation,
)


class TestErrors:
    def test_log_ratio_symmetry(self):
        assert log_ratio(2.0, 1.0) == pytest.approx(-log_ratio(1.0, 2.0))

    def test_log_ratio_identity(self):
        assert log_ratio(5.0, 5.0) == pytest.approx(0.0)

    def test_log_ratio_requires_positive(self):
        with pytest.raises(ValueError):
            log_ratio(-1.0, 2.0)

    def test_log_ratio_known_value(self):
        assert log_ratio(2.0, 1.0) == pytest.approx(0.6931471805599453)

    def test_log_ratio_zero_reference_raises(self):
        with pytest.raises(ValueError):
            log_ratio(1.0, 0.0)


class TestSpearman:
    def test_identical_order(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap_of_four(self):
        # 1 - 6 * sum(d^2) / (n (n^2 - 1)) = 1 - 6 * 2 / 60
        assert spearman_rank_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_sequences_agree(self):
        assert spearman_rank_correlation([2, 2, 2], [5, 5, 5]) == pytest.approx(1.0)

    def test_ties_handled(self):
        rho = spearman_rank_correlation([1, 1, 2], [1, 1, 2])
        assert rho == pytest.approx(1.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 2], [1, 2, 3])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1], [1])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20, unique=True))
    def test_self_correlation_is_one(self, values):
        assert spearman_rank_correlation(values, values) == pytest.approx(1.0)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=15, unique=True),
        st.randoms(use_true_random=False),
    )
    def test_bounded(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        rho = spearman_rank_correlation(values, shuffled)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9


class TestMonotoneFraction:
    def test_strictly_increasing(self):
        assert monotone_fraction([1, 2, 3, 4]) == pytest.approx(1.0)

    def test_strictly_decreasing(self):
        assert monotone_fraction([4, 3, 2], increasing=False) == pytest.approx(1.0)

    def test_mixed(self):
        assert monotone_fraction([1, 2, 1]) == pytest.approx(0.5)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            monotone_fraction([1.0])

    def test_flat_steps_do_not_count(self):
        assert monotone_fraction([1, 1, 2]) == pytest.approx(0.5)
        assert monotone_fraction([2, 2, 1], increasing=False) == pytest.approx(0.5)


class TestCrossoverIndex:
    def test_finds_first_above(self):
        assert crossover_index([0.5, 0.9, 1.2, 2.0]) == 2

    def test_none_when_never_crossing(self):
        assert crossover_index([0.1, 0.5, 0.9]) is None

    def test_first_element(self):
        assert crossover_index([2.0, 0.5]) == 0

    def test_custom_threshold(self):
        assert crossover_index([1.0, 2.0, 5.0], threshold=4.0) == 2

    def test_empty_curve(self):
        assert crossover_index([]) is None

    def test_exact_threshold_not_counted(self):
        # strictly above
        assert crossover_index([1.0, 1.0]) is None
