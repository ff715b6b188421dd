"""Bulk-RNG equivalence: blocks must equal sequential draws bit-for-bit.

The amortized engines pregenerate each iteration's draws with one
``uniform_block(rounds)`` call; every construction result rests on that
block consumption being indistinguishable from per-step ``uniform()``
calls.  This suite pins the invariant for both generator families (the
Park-Miller LCG with its jump-ahead/in-place fill strategies, and XORWOW)
and for the chunked :class:`~repro.rng.BlockedDraws` consumer.
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
    """The float64 row fill (every width above the jump-ahead cutoff)
    reproduces repeated int64 ``lcg_step`` -- samples and final state."""
    width = ParkMillerLCG.JUMP_AHEAD_MAX_ELEMENTS + extra
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
        (768, 48),  # jump-ahead regime (LCG)
        (4096, 16),  # exactly the LCG jump-ahead cutoff
        (9000, 8),  # wide: in-place row fill regime (LCG)
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


def test_lcg_wide_rowfill_matches_jump_ahead():
    """The LCG's two fill strategies are bit-identical on the same shape."""
    # 9000 * 8 > JUMP_AHEAD_MAX_ELEMENTS: `wide` takes the in-place row
    # fill; `forced` has its crossover raised so it jump-aheads instead.
    assert 9000 * 8 > ParkMillerLCG.JUMP_AHEAD_MAX_ELEMENTS
    wide = ParkMillerLCG(n_streams=9000, seed=11)
    forced = ParkMillerLCG(n_streams=9000, seed=11)
    forced.JUMP_AHEAD_MAX_ELEMENTS = 1 << 30
    np.testing.assert_array_equal(wide.uniform_block(8), forced.uniform_block(8))


def _first_fold(x: int) -> int:
    return (x & LCG_IM) + (x >> 31)


def _fold_carry_pairs(count: int) -> list[tuple[int, int]]:
    """Random ``(state, power)`` pairs whose first fold is ``>= 2^31``,
    so the jump-ahead fill's second fold carries."""
    gen = np.random.default_rng(2024)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        s, p = (int(v) for v in gen.integers(1, LCG_IM, size=2))
        if _first_fold(s * p) >= 1 << 31:
            pairs.append((s, p))
    return pairs


def test_jump_ahead_two_folds_reduce_extreme_operands():
    """Every product of states and powers in ``{1, 2, IM-2, IM-1}``, and
    pairs whose first fold reaches ``2^31``, reduce to ``s * P % IM``."""
    extremes = [1, 2, LCG_IM - 2, LCG_IM - 1]
    carry = _fold_carry_pairs(64)
    assert _first_fold((LCG_IM - 1) ** 2) >= 1 << 31  # the largest product
    states = extremes + [s for s, _ in carry]
    powers = extremes + [p for _, p in carry]
    rng = ParkMillerLCG(n_streams=len(states), seed=1)
    rng.load_state_arrays({"state": np.array(states, dtype=np.int64)})
    # Install the operands as the fill's multiplier column: row r of the
    # block is then states * powers[r] mod IM.
    rng._powers[len(powers)] = np.array(powers, dtype=np.int64)[:, None]
    assert len(states) * len(powers) <= ParkMillerLCG.JUMP_AHEAD_MAX_ELEMENTS
    block = rng.uniform_block(len(powers))
    want = np.array(
        [[s * p % LCG_IM for s in states] for p in powers], dtype=np.int64
    )
    assert bool((want >= 1).all())
    np.testing.assert_array_equal(block, want / float(LCG_IM))
    np.testing.assert_array_equal(rng.state, want[-1])


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


def test_blocked_draws_chunked_lockstep():
    """Chunked BlockedDraws consumption equals per-step uniforms exactly."""
    a = make_batched_rng("lcg", 100, [3, 9])
    b = make_batched_rng("lcg", 100, [3, 9])
    draws = BlockedDraws(a, 7, max_block_elements=300)  # forces 1-round chunks
    assert draws.block_rounds == 1
    got = np.stack([draws.next() for _ in range(7)])
    ref = np.stack([b.uniform() for _ in range(7)])
    np.testing.assert_array_equal(got, ref)
    with pytest.raises(ValueError):
        draws.next()  # exhausted: over-consumption must not desync silently


def test_blocked_draws_zero_rounds():
    rng = ParkMillerLCG(n_streams=4, seed=1)
    draws = BlockedDraws(rng, 0)
    with pytest.raises(ValueError):
        draws.next()
    with pytest.raises(ValueError):
        BlockedDraws(rng, -1)
