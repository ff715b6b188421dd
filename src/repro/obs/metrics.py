"""Always-on metrics primitives: counters, gauges, log-bucket histograms.

The paper's whole argument is a per-phase time breakdown (Tables II-IV);
this module is the substrate that breakdown — and every serve-tier signal
the scaling roadmap needs (queue waits, latency percentiles, flush causes)
— is published into.  Two design rules keep it safe on the hot path:

* **Bit-exactness.**  Metrics only *observe* wall-clock floats and integer
  counts; nothing here touches engine arrays or any RNG, so
  instrumentation cannot perturb numerics.  The parity suites pin this.
* **True no-op when disabled.**  :class:`NullRegistry` hands out shared
  do-nothing metric objects and never stores a name, so a disabled path
  costs one attribute lookup and an empty method call.

Thread model: every metric object carries its own lock (registries are
shared between the asyncio loop thread and engine worker threads), and
:meth:`MetricsRegistry.snapshot` is consistent per metric.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter increments must be >= 0, got {delta}")
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value (e.g. queue depth)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value


#: bucket growth factor: bucket ``k`` holds the values in
#: ``(GAMMA**(k-1), GAMMA**k]``, and its representative ``2 GAMMA**k /
#: (GAMMA + 1)`` lies within 1% of each of them
GAMMA = 1.01 / 0.99
_INV_LOG_GAMMA = 1.0 / math.log(GAMMA)


class LogHistogram:
    """Streaming distribution summary with a fixed relative error.

    Exact ``count``/``total``/``min``/``max`` plus quantiles from
    logarithmic buckets (DDSketch, Masson et al., VLDB 2019): a positive
    value ``v`` counts in bucket ``ceil(log(v) / log(GAMMA))``, and zero,
    which has no bucket, is the count the buckets do not hold.  A quantile
    is the nearest-rank value's bucket representative, so it lies within
    1% of the exact order statistic whatever the stream length.  Memory is
    bounded by the span of the values (about 115 buckets per decade), and
    :meth:`merge` is a bucket-wise add: folding per-thread or per-shard
    histograms gives exactly the histogram of the union.
    """

    __slots__ = ("name", "_buckets", "_count", "_total", "_min", "_max", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buckets: dict[int, int] = {}  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._total = 0.0  # guarded-by: _lock
        self._min = math.inf  # guarded-by: _lock
        self._max = -math.inf  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"observations must be finite and >= 0, got {value}")
        key = math.ceil(math.log(value) * _INV_LOG_GAMMA) if value else None
        with self._lock:
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if key is not None:
                self._buckets[key] = self._buckets.get(key, 0) + 1

    # ------------------------------------------------------------- summaries

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def _percentile(self, p: float) -> float:
        """:meth:`percentile` for a caller that holds ``_lock``."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(p * self._count / 100.0))
        seen = self._count - sum(self._buckets.values())  # the zeros
        if seen >= rank:
            return 0.0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= rank:
                break
        value = 2.0 * GAMMA**key / (GAMMA + 1.0)
        return min(max(value, self._min), self._max)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (``0 <= p <= 100``): the bucket
        representative of the nearest-rank observation ``ceil(p/100 *
        count)``, clamped to ``[min, max]``; 0.0 when empty."""
        with self._lock:
            return self._percentile(p)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram: exact fields combine
        exactly and bucket counts add, so the result is the histogram of
        both streams.  Returns ``self``."""
        with other._lock:
            count, total = other._count, other._total
            omin, omax = other._min, other._max
            buckets = list(other._buckets.items())
        with self._lock:
            self._count += count
            self._total += total
            self._min = min(self._min, omin)
            self._max = max(self._max, omax)
            for key, n in buckets:
                self._buckets[key] = self._buckets.get(key, 0) + n
        return self

    def snapshot(self) -> dict:
        """JSON-friendly summary with the standard percentile triple.

        ``buckets`` is the dense ``[offset, [counts...]]`` form of the
        bucket map (the count of bucket ``offset + i`` at index ``i``), so
        a snapshot shipped over the wire rebuilds exactly through
        :meth:`from_snapshot`.  No field is rounded, so each quantile lies
        in ``[min, max]`` as sent.
        """
        with self._lock:
            buckets = self._buckets
            lo = min(buckets, default=0)
            hi = max(buckets, default=-1)
            return {
                "count": self._count,
                "total": self._total,
                "mean": self.mean,
                "min": self.min,
                "max": self.max,
                "p50": self._percentile(50.0),
                "p95": self._percentile(95.0),
                "p99": self._percentile(99.0),
                "buckets": [lo, [buckets.get(k, 0) for k in range(lo, hi + 1)]],
            }

    @classmethod
    def from_snapshot(cls, snap: dict, *, name: str = "") -> "LogHistogram":
        """Rebuild a histogram exactly from a :meth:`snapshot` payload.

        This is how the shard router folds per-worker histograms scraped
        off the ``{"op": "stats"}`` wire into one aggregate
        (``from_snapshot`` each side, then :meth:`merge`).
        """
        hist = cls(name)
        hist._count = int(snap["count"])
        hist._total = float(snap["total"])
        if hist._count:
            hist._min = float(snap["min"])
            hist._max = float(snap["max"])
        offset, counts = snap["buckets"]
        hist._buckets = {offset + i: int(n) for i, n in enumerate(counts) if n}
        return hist


class MetricsRegistry:
    """Named metric store: get-or-create counters, gauges and histograms.

    One registry per observed subsystem (an engine, a solve service); the
    ``snapshot()`` dict is the wire form the serve tier's ``{"op":
    "stats"}`` admin line returns.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}  # guarded-by: _lock
        self._gauges: dict[str, Gauge] = {}  # guarded-by: _lock
        self._histograms: dict[str, LogHistogram] = {}  # guarded-by: _lock

    # -------------------------------------------------------- get-or-create

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> LogHistogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = LogHistogram(name)
            return metric

    # ---------------------------------------------------------- convenience

    def inc(self, name: str, delta: int = 1) -> None:
        self.counter(name).inc(delta)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> dict:
        """All metrics as one JSON-friendly dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(histograms.items())
            },
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, delta: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(LogHistogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled path: hands out shared do-nothing metrics, stores
    nothing, snapshots empty.  ``registry.enabled`` is the cheap gate for
    callers that want to skip building label strings entirely."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> LogHistogram:
        return self._null_histogram


#: Shared default no-op registry: the ``metrics=None`` resolution target.
NULL_REGISTRY = NullRegistry()
