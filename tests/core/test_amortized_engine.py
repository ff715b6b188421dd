"""Engine-level amortization mechanics: arena wiring, collect=False paths.

Complements ``tests/property/test_report_every.py`` (which pins the
numerical invariants across the 8x5 strategy grid) with white-box checks of
the machinery itself: the per-engine WorkBuffers arena is shared and stable
across iterations, and non-boundary iterations skip report materialization.
"""

from __future__ import annotations

import pytest

from repro.backend import WorkBuffers
from repro.core import ACOParams, AntSystem, BatchEngine
from repro.tsp import uniform_instance
from repro.tsp.tour import tour_lengths_batch


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(14, seed=7)


def _engine(instance, **kwargs):
    kwargs.setdefault("construction", 4)
    kwargs.setdefault("pheromone", 1)
    return BatchEngine(
        instance, [ACOParams(seed=1, nn=5), ACOParams(seed=2, nn=5)], **kwargs
    )


def test_engine_owns_one_arena(instance):
    engine = _engine(instance)
    assert isinstance(engine.work, WorkBuffers)
    assert engine.state.work is engine.work


def test_arena_buffers_stable_across_iterations(instance):
    engine = _engine(instance)
    engine.run_iteration()
    buffers_after_one = dict(engine.work._buffers)
    assert buffers_after_one, "construction should have populated the arena"
    engine.run_iteration()
    for key, buf in engine.work._buffers.items():
        assert buffers_after_one.get(key) is buf, f"{key} was reallocated"


def test_advance_collect_false_returns_no_stages(instance):
    engine = _engine(instance)
    engine._seed_fold()
    tours, lengths, ctx, stages = engine._advance(collect=False)
    assert stages is None
    assert tours.shape == (2, engine.state.m, engine.state.n + 1)
    assert lengths.shape == (2, engine.state.m)
    assert ctx.best_lengths.shape == (2,)
    _, _, _, stages2 = engine._advance(collect=True)
    assert len(stages2) == 2
    assert all(len(s) >= 2 for s in stages2)  # construction + pheromone


def test_strategy_collect_flag(instance):
    engine = _engine(instance)
    bs = engine.state
    engine.choice_kernel.run_batch(bs, collect=True)
    result = engine.construction.build_batch(bs, engine.rng, collect=False)
    assert result.reports == []
    lengths, edges = tour_lengths_batch(result.tours, bs.dist, work=bs.work)
    reps = engine.pheromone.update_batch(bs, edges, lengths, collect=False)
    assert reps == []


def test_antsystem_shares_engine_arena(instance):
    colony = AntSystem(instance, ACOParams(seed=3, nn=5), construction=4)
    assert colony.work is colony.engine.work
    colony.run(2, report_every=2)


def test_choice_collect_false_still_refreshes(instance):
    engine = _engine(instance, construction=8)
    bs = engine.state
    reps = engine.choice_kernel.run_batch(bs, collect=False)
    assert reps == []
    assert bs.choice_info is not None
    assert bs.choice_info.shape == (2, bs.n, bs.n)
