"""Tests for repro.util.timer."""

from __future__ import annotations

import time

import pytest

from repro.util.timer import WallClock


class TestWallClock:
    def test_measures_nonnegative(self):
        with WallClock() as clock:
            sum(range(1000))
        assert clock.elapsed >= 0.0

    def test_zero_until_exit(self):
        clock = WallClock()
        with clock:
            assert clock.elapsed == 0.0
        assert clock.elapsed > 0.0

    def test_measures_a_sleep(self):
        with WallClock() as clock:
            time.sleep(0.02)
        assert clock.elapsed >= 0.02

    def test_records_when_body_raises(self):
        clock = WallClock()
        with pytest.raises(RuntimeError):
            with clock:
                time.sleep(0.01)
                raise RuntimeError("boom")
        assert clock.elapsed >= 0.01

    def test_reentry_restarts(self):
        clock = WallClock()
        with clock:
            time.sleep(0.03)
        first = clock.elapsed
        with clock:
            pass
        assert clock.elapsed < first

    def test_exit_without_enter_asserts(self):
        with pytest.raises(AssertionError):
            WallClock().__exit__(None, None, None)
