"""Wall-clock timing of one-shot sections: the :class:`WallClock` context
manager (live latency percentiles come from :class:`repro.obs.LogHistogram`).
"""

from __future__ import annotations

import time

__all__ = ["WallClock"]


class WallClock:
    """Context manager measuring wall-clock time with ``perf_counter``.

    Attributes
    ----------
    elapsed:
        Seconds between ``__enter__`` and ``__exit__`` (0 until exit).
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None, "WallClock exited without entering"
        self.elapsed = time.perf_counter() - self._start
