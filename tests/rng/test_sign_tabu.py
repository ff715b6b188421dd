"""The sign tabu: negated Park-Miller streams and their cleanup.

The data-parallel construction keeps each thread's visited flag in the sign
of its stream (:meth:`ParkMillerLCG.sign_flip`).  A negated stream must step
to exactly the negation of its usual successor and draw exactly the
negation of its usual sample, and leaving a :class:`BlockedDraws` block
must clear every sign, so the generator's observable state never shows
that the flags were there.
"""

from __future__ import annotations

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import WorkBuffers, resolve_backend
from repro.core.construction.dataparallel import DataParallelConstruction
from repro.rng import BlockedDraws, ParkMillerLCG
from repro.rng.lcg import LCG_IA, LCG_IM
from repro.simt.device import TESLA_M2050

_EXTREMES = np.array([1, 2, LCG_IM - 2, LCG_IM - 1], dtype=np.int64)


def test_negated_step_on_extreme_states():
    rng = ParkMillerLCG(n_streams=len(_EXTREMES), seed=1)
    rng.load_state_arrays({"state": _EXTREMES})
    rng.sign_flip()(np.arange(len(_EXTREMES)))
    want = _EXTREMES.copy()
    for _ in range(3):
        u = rng.uniform_block(1)[0]
        want = want * LCG_IA % LCG_IM  # exact in Python-size int64
        np.testing.assert_array_equal(rng.state, -want)
        # -(r / IM) is exactly -fl(r / IM): compare the bits, not values.
        np.testing.assert_array_equal(
            u.view(np.int64), (-(want / float(LCG_IM))).view(np.int64)
        )
    rng.clear_signs()
    np.testing.assert_array_equal(rng.state, want)
    assert rng.samples_drawn == 3 * len(_EXTREMES)


def _assert_same_observable_state(rng, twin):
    np.testing.assert_array_equal(rng.state, twin.state)
    assert rng.samples_drawn == twin.samples_drawn
    got, want = rng.state_arrays(), twin.state_arrays()
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])
    # ... and the next draws agree too.
    np.testing.assert_array_equal(rng.uniform_block(3), twin.uniform_block(3))


class _Abort(Exception):
    pass


def _fail_fill_at(rng, fail_at):
    """Wrap ``rng.uniform_block`` on the instance (as perfbench's tracer
    does) so that fill number ``fail_at`` (0-based) raises before drawing;
    returns the list of completed fill sizes."""
    fill = rng.uniform_block
    done = []

    def failing_fill(rounds, out=None):
        if len(done) == fail_at:
            raise _Abort
        block = fill(rounds, out)
        done.append(rounds)
        return block

    rng.uniform_block = failing_fill
    return done


@settings(max_examples=40, deadline=None)
@given(
    spc=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=3),
    rounds=st.integers(1, 12),
    abort_at=st.one_of(st.none(), st.integers(0, 11)),
    abort_in_fill=st.booleans(),
    data=st.data(),
)
def test_blocked_draws_signs_leave_no_trace(
    spc, seeds, rounds, abort_at, abort_in_fill, data
):
    """Arbitrary sign flips over a BlockedDraws run through its per-step
    API, finished, aborted midway by the consumer, or aborted by a fill
    that raises: the draws are the twin's up to sign, and afterwards the
    generator's state matches the untouched twin's."""
    rng = ParkMillerLCG.from_seeds(spc, seeds)
    twin = ParkMillerLCG.from_seeds(spc, seeds)
    S = rng.n_streams
    fail_at = None
    if abort_at is not None and abort_in_fill:
        fail_at = abort_at % rounds
        done = _fail_fill_at(rng, fail_at)
    sign = np.ones(S)
    with pytest.raises(_Abort) if abort_at is not None else nullcontext():
        with BlockedDraws(rng, rounds) as draws:
            flip = draws.sign_flip()
            for r, _ in enumerate(draws.steps):
                ref = twin.uniform_block(1)[0]
                np.testing.assert_array_equal(draws.row, sign * ref)
                if fail_at is None and abort_at is not None and r == abort_at % rounds:
                    raise _Abort
                picks = data.draw(
                    st.lists(st.integers(0, S - 1), unique=True, max_size=S)
                )
                flip(np.array(picks, dtype=np.int64))
                sign[picks] = -sign[picks]
            assert r == rounds - 1
            with pytest.raises(ValueError, match="exhausted"):
                draws.next()
    if fail_at is not None:
        del rng.uniform_block
        assert done == [1] * fail_at
    _assert_same_observable_state(rng, twin)


def _dp_state(choice, B, m, n):
    backend = resolve_backend("numpy")
    return SimpleNamespace(
        B=B, n=n, m=m, nn=1, device=TESLA_M2050, backend=backend,
        work=WorkBuffers(backend), choice_info=choice,
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(3, 20),
    B=st.integers(1, 3),
    m=st.integers(1, 3),
    abort_after=st.one_of(st.none(), st.integers(1, 19)),
    seed=st.integers(0, 2**32 - 1),
)
def test_construction_leaves_generator_untouched(n, B, m, abort_after, seed):
    """The I-Roulette kernel, finishing or raising at a draw midway, leaves
    the generator exactly where ``n`` (or the drawn number of) plain rounds
    would."""
    np_rng = np.random.default_rng(seed)
    choice = np_rng.random((B, n, n))
    seeds = [int(s) for s in np_rng.integers(1, 2**31 - 1, size=B)]
    kernel = DataParallelConstruction(tile=32)
    spc = kernel.rng_streams(n, m)
    rng = ParkMillerLCG.from_seeds(spc, seeds)
    twin = ParkMillerLCG.from_seeds(spc, seeds)
    calls = 0
    fill = rng.uniform_block

    def failing_fill(rounds, out=None):
        nonlocal calls
        calls += 1
        if abort_after is not None and calls > abort_after:
            raise _Abort
        return fill(rounds, out=out)

    rng.uniform_block = failing_fill
    try:
        res = kernel.build_batch(_dp_state(choice, B, m, n), rng, collect=False)
    except _Abort:
        res = None
    del rng.uniform_block
    # Each call drew one round; an aborted build's last call raised first.
    if res is not None:
        assert calls == n
    twin.uniform_block(calls if res is not None else calls - 1)
    _assert_same_observable_state(rng, twin)
