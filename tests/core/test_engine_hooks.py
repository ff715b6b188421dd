"""Tests for the engine's boundary hooks, early stop, interrupt salvage,
shared work arenas and the wall-clock field semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import WorkBuffers, resolve_backend
from repro.core import ACOParams, AntSystem, BatchEngine
from repro.core.batch import BoundaryUpdate
from repro.errors import RunInterrupted
from repro.tsp import uniform_instance

ITERATIONS = 6


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(18, seed=404)


def _engine(instance, B=3, **kwargs):
    return BatchEngine(
        instance, [ACOParams(seed=5 + b, nn=7) for b in range(B)], **kwargs
    )


class TestBoundaryCallback:
    @pytest.mark.parametrize("report_every", [1, 2, 3])
    def test_called_at_every_boundary(self, instance, report_every):
        seen: list[BoundaryUpdate] = []
        engine = _engine(instance)
        batch = engine.run(
            ITERATIONS, report_every=report_every, on_boundary=seen.append
        )
        boundaries = [
            it
            for it in range(1, ITERATIONS + 1)
            if it % report_every == 0 or it == ITERATIONS
        ]
        assert [u.iteration for u in seen] == boundaries
        for update in seen:
            assert update.best_lengths.shape == (3,)
            assert update.best_tours.shape == (3, instance.n + 1)
        # The final boundary snapshot equals the final result.
        np.testing.assert_array_equal(
            seen[-1].best_lengths, batch.best_lengths
        )
        assert not batch.stopped_early
        assert batch.iterations_run == ITERATIONS

    def test_callback_does_not_perturb_results(self, instance):
        plain = _engine(instance).run(ITERATIONS, report_every=2)
        hooked = _engine(instance).run(
            ITERATIONS, report_every=2, on_boundary=lambda u: None
        )
        assert plain.best_lengths.tolist() == hooked.best_lengths.tolist()
        for a, b in zip(plain.results, hooked.results):
            assert a.iteration_best_lengths == b.iteration_best_lengths

    def test_snapshot_is_a_copy(self, instance):
        captured = []

        def grab(update):
            update.best_lengths[:] = -1  # vandalise the snapshot
            captured.append(update)

        engine = _engine(instance)
        batch = engine.run(ITERATIONS, report_every=3, on_boundary=grab)
        assert all(v > 0 for v in batch.best_lengths)  # engine unharmed

    @pytest.mark.parametrize("report_every", [1, 2])
    def test_returning_true_stops_early(self, instance, report_every):
        def stop_at_first(update):
            return True

        engine = _engine(instance)
        batch = engine.run(
            ITERATIONS, report_every=report_every, on_boundary=stop_at_first
        )
        assert batch.stopped_early
        assert batch.iterations_run == report_every
        assert all(
            len(r.iteration_best_lengths) == report_every
            for r in batch.results
        )


class TestTargetLengths:
    def test_trivial_target_stops_at_first_boundary(self, instance):
        engine = _engine(instance)
        batch = engine.run(ITERATIONS, report_every=2, target_lengths=10**9)
        assert batch.stopped_early
        assert batch.iterations_run == 2

    def test_unreachable_target_runs_to_budget(self, instance):
        engine = _engine(instance)
        batch = engine.run(ITERATIONS, report_every=2, target_lengths=1)
        assert not batch.stopped_early
        assert batch.iterations_run == ITERATIONS

    def test_per_row_targets_require_all_rows(self, instance):
        # One reachable target + one unreachable: the batch must keep going.
        engine = _engine(instance, B=2)
        batch = engine.run(
            ITERATIONS, report_every=2, target_lengths=np.array([10**9, 1])
        )
        assert not batch.stopped_early

    def test_early_stopped_rows_match_truncated_solo(self, instance):
        """Early stop is a pure truncation: rows equal a solo run of the
        same length."""
        engine = _engine(instance)
        batch = engine.run(ITERATIONS, report_every=2, target_lengths=10**9)
        for b in range(3):
            solo = AntSystem(instance, ACOParams(seed=5 + b, nn=7)).run(2)
            assert batch.results[b].best_length == solo.best_length
            assert (
                batch.results[b].iteration_best_lengths
                == solo.iteration_best_lengths
            )


class TestInterruptSalvage:
    @pytest.mark.parametrize("report_every", [1, 2])
    def test_keyboard_interrupt_carries_partial(self, instance, report_every):
        calls = []

        def interrupt_at_second_boundary(update):
            calls.append(update.iteration)
            if len(calls) == 2:
                raise KeyboardInterrupt

        engine = _engine(instance)
        with pytest.raises(RunInterrupted) as err:
            engine.run(
                ITERATIONS,
                report_every=report_every,
                on_boundary=interrupt_at_second_boundary,
            )
        partial = err.value.partial
        assert partial.interrupted and partial.stopped_early
        assert partial.iterations_run == 2 * report_every
        # The salvage equals an uninterrupted run of the completed length.
        reference = _engine(instance).run(2 * report_every)
        assert partial.best_lengths.tolist() == reference.best_lengths.tolist()
        for a, b in zip(partial.results, reference.results):
            assert a.iteration_best_lengths == b.iteration_best_lengths
            np.testing.assert_array_equal(a.best_tour, b.best_tour)

    def test_run_interrupted_is_a_keyboard_interrupt(self):
        # The CLI contract: naive `except KeyboardInterrupt` still works,
        # and `except Exception` does NOT swallow it.
        assert issubclass(RunInterrupted, KeyboardInterrupt)
        assert not issubclass(RunInterrupted, Exception)

    @pytest.mark.parametrize("variant", ["as", "mmas"])
    @pytest.mark.parametrize("report_every", [1, 2, 3])
    @pytest.mark.parametrize("interrupted_at", [1, 2, 3])
    def test_interrupt_in_update_salvages_completed_iterations(
        self, instance, monkeypatch, variant, report_every, interrupted_at
    ):
        """Ctrl-C inside iteration j's pheromone update salvages exactly
        iterations 1..j-1 at every K: the in-flight iteration's tours never
        reach the partial result, and j=1 leaves nothing to salvage."""
        engine = _engine(instance, variant=variant)
        update = engine.variant.update
        original = update.update_batch
        calls = []

        def tripwire(*args, **kwargs):
            calls.append(1)
            if len(calls) == interrupted_at:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        monkeypatch.setattr(update, "update_batch", tripwire)
        if interrupted_at == 1:
            with pytest.raises(KeyboardInterrupt) as err:
                engine.run(ITERATIONS, report_every=report_every)
            assert not isinstance(err.value, RunInterrupted)
            return
        with pytest.raises(RunInterrupted) as err:
            engine.run(ITERATIONS, report_every=report_every)
        partial = err.value.partial
        reference = _engine(instance, variant=variant).run(interrupted_at - 1)
        assert partial.iterations_run == interrupted_at - 1
        assert partial.best_lengths.tolist() == reference.best_lengths.tolist()
        for got, want in zip(partial.results, reference.results):
            assert got.iteration_best_lengths == want.iteration_best_lengths
            np.testing.assert_array_equal(got.best_tour, want.best_tour)

    def test_solo_variants_salvage_partials(self, instance, monkeypatch):
        from repro.core import AntColonySystem, MaxMinAntSystem

        # One Ctrl-C contract for every B=1 view: the partial is the view's
        # own result type, equal to an uninterrupted 2-iteration run.
        for cls in (AntSystem, AntColonySystem, MaxMinAntSystem):
            colony = cls(instance, ACOParams(seed=2, nn=7))
            # The views run through their engine's loop; trip the interrupt
            # in the engine's third pheromone update.
            update = colony.engine.variant.update
            original = update.update_batch
            calls = []

            def tripwire(*a, _original=original, _calls=calls, **kw):
                _calls.append(1)
                if len(_calls) == 3:
                    raise KeyboardInterrupt
                return _original(*a, **kw)

            monkeypatch.setattr(update, "update_batch", tripwire)
            with pytest.raises(RunInterrupted) as err:
                colony.run(50)
            partial = err.value.partial
            reference = cls(instance, ACOParams(seed=2, nn=7)).run(2)
            assert partial.iteration_best_lengths == reference.iteration_best_lengths
            assert partial.best_length == reference.best_length
            np.testing.assert_array_equal(partial.best_tour, reference.best_tour)


class TestVariantEngineComposition:
    """The redesign's un-stranding contract: ACS/MMAS ride the engine, so
    report_every and backend selection compose instead of raising (the old
    ``require_numpy_backend``/``report_every`` fences are gone)."""

    def test_variants_support_report_every(self, instance):
        from repro.core import AntColonySystem, MaxMinAntSystem

        for cls in (AntColonySystem, MaxMinAntSystem):
            ref = cls(instance, ACOParams(seed=3, nn=7)).run(4)
            amortized = cls(instance, ACOParams(seed=3, nn=7)).run(
                4, report_every=4
            )
            assert ref.iteration_best_lengths == amortized.iteration_best_lengths
            assert ref.best_length == amortized.best_length

    def test_variants_accept_backend_selection(self, instance):
        from repro.core import AntColonySystem, MaxMinAntSystem
        from repro.errors import BackendError

        for cls in (AntColonySystem, MaxMinAntSystem):
            # Explicit names, instances and None all resolve.
            cls(instance, backend="numpy")
            cls(instance, backend=resolve_backend("numpy"))
            cls(instance, backend=None)
            # An explicitly requested unavailable backend still fails
            # loudly (strict resolution), never silently falls back.
            with pytest.raises(BackendError):
                cls(instance, backend="cupy")

    def test_variants_resolve_env_backend_like_the_engine(
        self, instance, monkeypatch
    ):
        """ACO_BACKEND now selects the variants' backend exactly as it does
        the engine's (soft resolution: warn and fall back when the
        requested backend is unavailable)."""
        from repro.core import AntColonySystem, MaxMinAntSystem

        monkeypatch.setenv("ACO_BACKEND", "numpy")
        for cls in (AntColonySystem, MaxMinAntSystem):
            colony = cls(instance)
            assert colony.backend.name == "numpy"
            assert colony.engine.rng.backend.name == "numpy"


class TestWallClockSemantics:
    """The satellite regression: row wall_seconds is the amortized share,
    batch wall_seconds the true wall, and throughput uses only the latter."""

    def test_row_share_is_batch_wall_over_B(self, instance):
        engine = _engine(instance, B=3)
        batch = engine.run(3)
        assert batch.wall_seconds > 0.0
        for row in batch.results:
            assert row.wall_seconds == pytest.approx(batch.wall_seconds / 3)
        # Summing shares reconstructs one batch wall — nothing more.
        assert sum(r.wall_seconds for r in batch.results) == pytest.approx(
            batch.wall_seconds
        )

    def test_colonies_per_second_uses_batch_wall(self, instance):
        engine = _engine(instance, B=3)
        batch = engine.run(4)
        assert batch.iterations_run == 4
        assert batch.colonies_per_second() == pytest.approx(
            3 * 4 / batch.wall_seconds
        )
        # Explicit iteration count (the pre-field call style) still works.
        assert batch.colonies_per_second(4) == batch.colonies_per_second()


class TestSharedWorkArena:
    def test_arena_reuse_is_bit_identical(self, instance):
        other = uniform_instance(18, seed=505)
        arena = WorkBuffers()
        first = BatchEngine(
            instance, ACOParams(seed=3, nn=7), work=arena
        ).run(3)
        # Same arena, different engine/instance/params — the worker-thread
        # pattern.  Results must match a fresh-arena engine exactly.
        reused = BatchEngine(
            other, ACOParams(seed=8, nn=7, beta=3.0), work=arena
        ).run(3)
        fresh = BatchEngine(other, ACOParams(seed=8, nn=7, beta=3.0)).run(3)
        assert reused.best_lengths.tolist() == fresh.best_lengths.tolist()
        np.testing.assert_array_equal(
            reused.results[0].best_tour, fresh.results[0].best_tour
        )
        assert first.best_lengths[0] > 0  # first engine ran too

    def test_arena_reuse_across_geometries(self, instance):
        small = uniform_instance(12, seed=9)
        arena = WorkBuffers()
        BatchEngine(instance, ACOParams(seed=1, nn=7), work=arena).run(2)
        reused = BatchEngine(small, ACOParams(seed=1, nn=5), work=arena).run(2)
        fresh = BatchEngine(small, ACOParams(seed=1, nn=5)).run(2)
        assert reused.best_lengths.tolist() == fresh.best_lengths.tolist()

    def test_reset_derived_keeps_scratch(self):
        arena = WorkBuffers()
        buf = arena.get("x", (4,), np.float64)
        arena.cached("c", lambda: 42)
        arena.reset_derived()
        assert arena.get("x", (4,), np.float64) is buf
        assert arena.cached("c", lambda: 43) == 43  # rebuilt, not stale
