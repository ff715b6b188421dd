"""Tests for the Park-Miller device-function LCG."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rng.lcg import LCG_IA, LCG_IM, ParkMillerLCG, lcg_step


class TestLcgStep:
    def test_known_sequence_from_seed_one(self):
        # Park-Miller from state 1: 16807, 282475249, 1622650073, ...
        state = np.array([1], dtype=np.int64)
        state = lcg_step(state)
        assert state[0] == 16807
        state = lcg_step(state)
        assert state[0] == 282475249
        state = lcg_step(state)
        assert state[0] == 1622650073

    def test_matches_direct_modmul(self):
        # Schrage's method must equal (a * s) mod m computed in wide ints.
        states = np.array([1, 2, 12345, LCG_IM - 1], dtype=np.int64)
        out = lcg_step(states.copy())
        expected = (LCG_IA * states.astype(object)) % LCG_IM
        assert list(out) == list(expected)

    @given(st.integers(1, LCG_IM - 1))
    def test_state_stays_in_range(self, s):
        out = lcg_step(np.array([s], dtype=np.int64))
        assert 1 <= out[0] <= LCG_IM - 1


class TestParkMillerLCG:
    def test_uniform_in_unit_interval(self):
        rng = ParkMillerLCG(n_streams=64, seed=42)
        for _ in range(10):
            u = rng.uniform()
            assert u.shape == (64,)
            assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_deterministic_given_seed(self):
        a = ParkMillerLCG(n_streams=8, seed=5).uniform_block(4)
        b = ParkMillerLCG(n_streams=8, seed=5).uniform_block(4)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ParkMillerLCG(n_streams=8, seed=5).uniform()
        b = ParkMillerLCG(n_streams=8, seed=6).uniform()
        assert not np.array_equal(a, b)

    def test_streams_are_distinct(self):
        u = ParkMillerLCG(n_streams=256, seed=1).uniform()
        # distinct states give (almost surely) distinct values
        assert len(np.unique(u)) > 250

    def test_samples_drawn_accounting(self):
        rng = ParkMillerLCG(n_streams=10, seed=1)
        rng.uniform()
        rng.uniform_block(3)
        assert rng.samples_drawn == 10 + 30

    def test_mean_is_roughly_half(self):
        rng = ParkMillerLCG(n_streams=512, seed=9)
        block = rng.uniform_block(50)
        assert abs(block.mean() - 0.5) < 0.02

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            ParkMillerLCG(n_streams=0, seed=1)

    def test_block_rounds_negative_raises(self):
        rng = ParkMillerLCG(n_streams=2, seed=1)
        with pytest.raises(ValueError):
            rng.uniform_block(-1)

    def test_uniform_advances_every_stream(self):
        rng = ParkMillerLCG(n_streams=4, seed=3)
        before = rng.state.copy()
        rng.uniform()
        assert np.all(rng.state != before)

    @pytest.mark.parametrize("rounds", [1, 3, 7])
    def test_block_equals_sequential_draws(self, rounds):
        block = ParkMillerLCG(n_streams=5, seed=11).uniform_block(rounds)
        rng = ParkMillerLCG(n_streams=5, seed=11)
        np.testing.assert_array_equal(block, [rng.uniform() for _ in range(rounds)])

    def test_block_fills_the_given_buffer(self):
        out = np.full((4, 3), -1.0)
        block = ParkMillerLCG(n_streams=3, seed=2).uniform_block(2, out=out)
        assert np.shares_memory(block, out)
        np.testing.assert_array_equal(out[2:], -1.0)
        with pytest.raises(ValueError):
            ParkMillerLCG(n_streams=3, seed=2).uniform_block(5, out=out)
