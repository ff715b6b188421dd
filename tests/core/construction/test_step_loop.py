"""The construction step loops' contracts with their callers.

Both batched step loops (the task-based kernel shared by versions 1-6 and
the I-Roulette kernel of versions 7-8) draw one generator row per step
through :class:`~repro.rng.BlockedDraws`, write each step's picks into a
pooled step-major tour row, and hand out a fresh ant-major copy.  Two
contracts follow:

* an instance-level wrapper on ``rng.uniform_block`` (perfbench's
  ``--trace 1`` installs one) sees every fill, one per construction step,
  and changes nothing;
* the returned tours escape: a fresh C-contiguous ``(B, m, n + 1)`` int32
  array that shares memory with no arena buffer, so a later build cannot
  overwrite them.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.batch import BatchEngine
from repro.core.params import ACOParams
from repro.tsp import uniform_instance
from repro.tsp.tour import validate_tour

N = 13
SEEDS = [5, 8]
ITERATIONS = 3


def _engine(construction: int) -> BatchEngine:
    return BatchEngine(
        uniform_instance(N, seed=31),
        [ACOParams(seed=s, nn=5, n_ants=6) for s in SEEDS],
        construction=construction,
    )


def _trace_fills(rng) -> list:
    """Wrap ``rng.uniform_block`` on the instance, the way perfbench's
    tracer does; the returned list records each fill's round count."""
    fill = rng.uniform_block
    rounds = []

    @functools.wraps(fill)
    def traced(*args, **kwargs):
        block = fill(*args, **kwargs)
        rounds.append(block.shape[0])
        return block

    rng.uniform_block = traced
    return rounds


@pytest.mark.parametrize("construction", [3, 6, 8])
def test_traced_fills_one_per_step_and_change_nothing(construction):
    traced, twin = _engine(construction), _engine(construction)
    fills = _trace_fills(traced.rng)
    got = traced.run(ITERATIONS)
    want = twin.run(ITERATIONS)

    # One one-row fill per construction step (placement + n - 1 moves)
    # per build, and one build per iteration.
    assert fills == [1] * (N * ITERATIONS)
    np.testing.assert_array_equal(traced.state.tours, twin.state.tours)
    for g, w in zip(got.results, want.results):
        assert g.best_length == w.best_length
        np.testing.assert_array_equal(g.best_tour, w.best_tour)
    assert traced.rng.samples_drawn == twin.rng.samples_drawn
    got_state, want_state = traced.rng.state_arrays(), twin.rng.state_arrays()
    assert got_state.keys() == want_state.keys()
    for key in want_state:
        np.testing.assert_array_equal(got_state[key], want_state[key])


def _arena_arrays(work) -> list:
    arrays = list(work._buffers.values())
    arrays += [v for v in work._derived.values() if isinstance(v, np.ndarray)]
    return arrays


@pytest.mark.parametrize("construction", [3, 6, 7, 8])
def test_built_tours_escape_the_arena(construction):
    engine = _engine(construction)
    engine.run(1)  # choice_info for this iteration
    bs = engine.state
    B, m = bs.B, bs.m
    first = engine.construction.build_batch(bs, engine.rng, collect=False).tours
    kept = first.copy()
    second = engine.construction.build_batch(bs, engine.rng, collect=False).tours
    for tours in (first, second):
        assert tours.shape == (B, m, N + 1)
        assert tours.dtype == np.int32
        assert tours.flags.c_contiguous
        for buf in _arena_arrays(bs.work):
            assert not np.shares_memory(tours, buf)
        for b in range(B):
            for a in range(m):
                validate_tour(tours[b, a], N)
    assert not np.shares_memory(first, second)
    # The second build left the first one's tours alone.
    np.testing.assert_array_equal(first, kept)
