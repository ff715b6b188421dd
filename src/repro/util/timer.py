"""Wall-clock timing helpers.

The paper reports per-iteration kernel times averaged over 100 iterations;
:class:`Timer` supports exactly that pattern (accumulate laps, report mean),
while :class:`WallClock` is the context-manager form for one-shot sections.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Timer", "WallClock"]


@dataclass
class Timer:
    """Accumulating lap timer.

    Examples
    --------
    >>> t = Timer()
    >>> for _ in range(3):
    ...     with t.lap():
    ...         pass
    >>> t.count
    3
    >>> t.mean >= 0.0
    True
    """

    laps: list[float] = field(default_factory=list)

    def lap(self) -> "WallClock":
        """Return a context manager whose elapsed time is appended as a lap."""
        return WallClock(on_exit=self.laps.append)

    def add(self, seconds: float) -> None:
        """Record an externally measured lap (e.g. a modelled kernel time)."""
        if seconds < 0.0:
            raise ValueError("lap duration must be non-negative")
        self.laps.append(float(seconds))

    @property
    def count(self) -> int:
        return len(self.laps)

    @property
    def total(self) -> float:
        return float(sum(self.laps))

    @property
    def mean(self) -> float:
        """Mean lap duration; 0.0 when no laps were recorded."""
        return self.total / self.count if self.laps else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile of the recorded laps (``0 <= p <= 100``).

        Linear interpolation between order statistics (numpy's default
        ``"linear"`` method); 0.0 when no laps were recorded.  The value
        is exact, since every lap is kept; the observability histograms
        (:class:`repro.obs.LogHistogram`) keep bucket counts instead and
        answer nearest-rank quantiles within 1%.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.laps:
            return 0.0
        laps = sorted(self.laps)
        rank = (p / 100.0) * (len(laps) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(laps) - 1)
        frac = rank - lo
        return laps[lo] * (1.0 - frac) + laps[hi] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def merge(self, other: "Timer") -> "Timer":
        """Fold ``other``'s laps into this timer (per-thread timers combine
        into one aggregate view); returns ``self`` for chaining."""
        self.laps.extend(other.laps)
        return self

    def reset(self) -> None:
        self.laps.clear()


class WallClock:
    """Context manager measuring wall-clock time with ``perf_counter``.

    Attributes
    ----------
    elapsed:
        Seconds between ``__enter__`` and ``__exit__`` (0 until exit).
    """

    def __init__(self, on_exit=None) -> None:
        self._on_exit = on_exit
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None, "WallClock exited without entering"
        self.elapsed = time.perf_counter() - self._start
        if self._on_exit is not None:
            self._on_exit(self.elapsed)
