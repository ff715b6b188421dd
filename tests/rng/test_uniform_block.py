"""Bulk-RNG equivalence: blocks must equal sequential draws bit-for-bit.

Construction kernels draw each step's vector through
:class:`~repro.rng.BlockedDraws` (one ``uniform_block(1)`` call per
step); every construction result rests on those fills being
indistinguishable from per-step ``uniform()`` calls.  This suite pins the
invariant for both generator families (the Park-Miller LCG with its
float64 row fill, and XORWOW), for any number of rounds, and for the
``BlockedDraws`` consumer.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    BlockedDraws,
    ParkMillerLCG,
    make_batched_rng,
    make_rng,
)
from repro.rng.lcg import LCG_IA, LCG_IM, lcg_step

#: states at the edges of the float64 row fill's exactness argument: the
#: smallest and largest, and the two around IM / IA, where the product
#: ``state * IA`` crosses IM (its quotient goes from 0 to 1)
_EDGE_STATES = [1, LCG_IM - 1, LCG_IM // LCG_IA, LCG_IM // LCG_IA + 1]


@settings(max_examples=40, deadline=None)
@given(
    edge=st.lists(
        st.one_of(st.sampled_from(_EDGE_STATES), st.integers(1, LCG_IM - 1)),
        min_size=1, max_size=64,
    ),
    extra=st.integers(1, 2048),
    rounds=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_row_fill_equals_int64_steps(edge, extra, rounds, seed):
    """The float64 row fill reproduces repeated int64 ``lcg_step`` --
    samples and final state."""
    width = len(edge) + extra
    rng = ParkMillerLCG(n_streams=width, seed=seed)
    states = rng.state
    states[: len(edge)] = edge
    rng.load_state_arrays({"state": states})
    block = rng.uniform_block(rounds)
    oracle = states.copy()
    for r in range(rounds):
        oracle = lcg_step(oracle)
        np.testing.assert_array_equal(block[r], oracle / float(LCG_IM))
    np.testing.assert_array_equal(rng.state, oracle)


@pytest.mark.parametrize("kind", ["lcg", "xorwow"])
@pytest.mark.parametrize(
    "n_streams,rounds",
    [
        (4, 10),  # tiny
        (768, 48),
        (4096, 16),
        (9000, 8),  # wide
        (513, 1),  # single round
    ],
)
def test_block_equals_sequential_uniforms(kind, n_streams, rounds):
    blocked = make_rng(kind, n_streams, seed=7)
    stepped = make_rng(kind, n_streams, seed=7)
    block = blocked.uniform_block(rounds)
    sequential = np.stack([stepped.uniform() for _ in range(rounds)])
    np.testing.assert_array_equal(block, sequential)
    # States stay in lockstep after the block: the next draws agree too.
    np.testing.assert_array_equal(blocked.uniform(), stepped.uniform())
    assert blocked.samples_drawn == stepped.samples_drawn


@pytest.mark.parametrize("kind", ["lcg", "xorwow"])
def test_block_consumption_tracks_samples(kind):
    rng = make_rng(kind, 32, seed=3)
    rng.uniform_block(5)
    assert rng.samples_drawn == 5 * 32


def test_block_out_buffer_reuse():
    rng = ParkMillerLCG(n_streams=16, seed=5)
    ref = ParkMillerLCG(n_streams=16, seed=5)
    out = np.empty((10, 16), dtype=np.float64)
    got = rng.uniform_block(4, out=out)
    assert got.shape == (4, 16)
    assert got.base is out or got is out  # a view of the caller's buffer
    np.testing.assert_array_equal(got, ref.uniform_block(4))
    with pytest.raises(ValueError):
        rng.uniform_block(11, out=out)  # too small


@pytest.mark.parametrize("kind", ["lcg", "xorwow"])
@pytest.mark.parametrize("streams,rounds", [(100, 7), (4098, 16), (1000, 70)])
def test_blocked_draws_chunked_lockstep(kind, streams, rounds):
    """BlockedDraws consumption, one row per step, equals per-step uniforms
    exactly and leaves the generator where they do."""
    per_seed = streams // 2
    a = make_batched_rng(kind, per_seed, [3, 9])
    b = make_batched_rng(kind, per_seed, [3, 9])
    draws = BlockedDraws(a, rounds)
    got = np.stack([draws.next().copy() for _ in range(rounds)])
    ref = np.stack([b.uniform() for _ in range(rounds)])
    np.testing.assert_array_equal(got, ref)
    if kind == "lcg":
        np.testing.assert_array_equal(a.state, b.state)
    assert a.samples_drawn == b.samples_drawn
    with pytest.raises(ValueError):
        draws.next()  # exhausted: over-consumption must not desync silently


def test_blocked_draws_zero_rounds():
    rng = ParkMillerLCG(n_streams=4, seed=1)
    draws = BlockedDraws(rng, 0)
    with pytest.raises(ValueError):
        draws.next()
    with pytest.raises(ValueError):
        BlockedDraws(rng, -1)
