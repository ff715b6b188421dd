"""Tests for the metrics primitives (repro.obs.metrics)."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    LogHistogram,
    NullRegistry,
)
from repro.obs.metrics import GAMMA


class TestCounter:
    def test_increments(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.name == "hits"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safe_under_contention(self):
        c = Counter()

        def hammer():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(3)
        g.add(2.5)
        assert g.value == 5.5

    def test_last_write_wins(self):
        g = Gauge()
        g.set(10)
        g.set(1)
        assert g.value == 1.0


def _nearest_rank(values: list[float], p: float) -> float:
    """The exact nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0)) - 1]


class TestLogHistogram:
    def test_exact_summaries(self):
        h = LogHistogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(10.0)
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0
        assert h.max == 4.0

    def test_percentiles_are_nearest_rank_within_one_percent(self):
        h = LogHistogram()
        values = [float(v) for v in range(1, 101)]
        for v in values:
            h.observe(v)
        for p in (0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 100.0):
            assert h.percentile(p) == pytest.approx(
                _nearest_rank(values, p), rel=0.01
            ), p
        # The ends clamp to the exact extremes.
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_one_value_reads_back_exactly(self):
        # Clamping to [min, max] makes a constant stream exact.
        h = LogHistogram()
        for _ in range(5):
            h.observe(3.0)
        assert h.p50 == h.p95 == h.p99 == 3.0

    def test_bucket_representative_error_is_at_most_one_percent(self):
        # Values spread over many decades, each alone in its histogram
        # (so no clamping): the representative alone carries the error.
        for exponent in range(-9, 7):
            for mantissa in (1.0, 1.0049, 1.3, 2.5, 7.77, 9.999):
                v = mantissa * 10.0**exponent
                h = LogHistogram()
                h.observe(v)
                h.observe(v * 1e3)  # widens [min, max] past the bucket
                assert h.percentile(50.0) == pytest.approx(v, rel=0.01 + 1e-12)

    def test_zero_is_a_legal_observation(self):
        h = LogHistogram()
        for v in (0.0, 0.0, 0.0, 5.0):
            h.observe(v)
        assert h.count == 4 and h.min == 0.0 and h.max == 5.0
        assert h.p50 == 0.0
        assert h.p99 == 5.0
        back = LogHistogram.from_snapshot(h.snapshot())
        assert back.p50 == 0.0 and back.p99 == 5.0

    @pytest.mark.parametrize("bad", [-1e-9, -3.0, math.nan, math.inf])
    def test_rejects_negative_and_non_finite(self, bad):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.observe(bad)
        assert h.count == 0

    def test_rejects_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            LogHistogram().percentile(101.0)

    def test_empty_percentiles_are_zero(self):
        h = LogHistogram()
        assert h.p50 == 0.0 and h.p99 == 0.0
        assert h.mean == 0.0 and h.min == 0.0 and h.max == 0.0

    def test_buckets_bounded_by_span_but_counts_exact(self):
        # A million-to-one span needs ~700 buckets, however long the run.
        h = LogHistogram()
        for i in range(20_000):
            h.observe(1e-6 * (1 + i % 1000) ** 2)
        assert h.count == 20_000
        offset, counts = h.snapshot()["buckets"]
        assert len(counts) <= 700
        assert sum(counts) == 20_000
        assert h.min == 1e-6 and h.max == 1.0

    def test_merge_combines_exact_fields(self):
        a = LogHistogram()
        b = LogHistogram()
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
        out = a.merge(b)
        assert out is a
        assert a.count == 4
        assert a.total == pytest.approx(33.0)
        assert a.min == 1.0 and a.max == 20.0

    def test_merge_adds_buckets(self):
        # Merging equals observing both streams into one histogram.
        a, b, both = LogHistogram(), LogHistogram(), LogHistogram()
        for v in range(1, 50):
            a.observe(v * 0.01)
            both.observe(v * 0.01)
        for v in range(1, 500, 7):
            b.observe(v * 0.3)
            both.observe(v * 0.3)
        a.merge(b)
        assert a.snapshot() == both.snapshot()

    def test_merge_with_empty_is_identity(self):
        h = LogHistogram()
        for v in (0.5, 1.5, 0.0):
            h.observe(v)
        before = h.snapshot()
        assert h.merge(LogHistogram()).snapshot() == before
        assert LogHistogram().merge(h).snapshot() == before

    def test_snapshot_shape(self):
        h = LogHistogram()
        h.observe(1.0)
        snap = h.snapshot()
        assert set(snap) == {
            "count", "total", "mean", "min", "max", "p50", "p95", "p99",
            "buckets",
        }
        assert snap["count"] == 1 and snap["p50"] == 1.0
        # 1.0 = GAMMA**0 is the top of bucket 0.
        assert snap["buckets"] == [0, [1]]

    def test_snapshot_buckets_are_dense(self):
        h = LogHistogram()
        h.observe(1.0)
        h.observe(GAMMA**3)
        assert h.snapshot()["buckets"] == [0, [1, 0, 0, 1]]

    def test_snapshot_roundtrip_is_exact(self):
        h = LogHistogram()
        for v in range(200):
            h.observe(0.37 * v + 1e-4)
        snap = h.snapshot()
        back = LogHistogram.from_snapshot(json.loads(json.dumps(snap)), name="back")
        assert back.count == h.count
        assert back.total == h.total
        assert back.min == h.min and back.max == h.max
        assert back.p50 == h.p50 and back.p95 == h.p95 and back.p99 == h.p99
        assert back.snapshot() == snap
        assert back.name == "back"

    def test_from_snapshot_empty(self):
        snap = LogHistogram().snapshot()
        assert snap["buckets"] == [0, []]
        back = LogHistogram.from_snapshot(snap)
        assert back.count == 0
        assert back.min == 0.0 and back.max == 0.0 and back.p50 == 0.0

    def test_shardlike_merge_is_exact_with_sane_quantiles(self):
        # The router-aggregation shape: one from_snapshot per shard, merged
        # into one aggregate.
        shards, values = [], []
        for s in range(4):
            h = LogHistogram()
            for v in range(100):
                h.observe(float(s * 1000 + v))
                values.append(float(s * 1000 + v))
            shards.append(h.snapshot())
        agg = LogHistogram("agg")
        for snap in shards:
            agg.merge(LogHistogram.from_snapshot(snap))
        assert agg.count == 400
        assert agg.total == sum(s["total"] for s in shards)
        assert agg.min == 0.0 and agg.max == 3099.0
        # The median is shard 1's largest value (rank 200 of 400).
        assert agg.p50 == pytest.approx(_nearest_rank(values, 50.0), rel=0.01)

    def test_thread_safe_under_contention(self):
        h = LogHistogram()

        def hammer(offset):
            for i in range(5_000):
                h.observe(offset + i * 1e-3)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap["count"] == 20_000
        assert sum(snap["buckets"][1]) == 20_000 - 1  # one observed zero
        assert snap["min"] == 0.0 and snap["max"] == 3 + 4.999


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.enabled is True

    def test_convenience_methods(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2)
        reg.gauge("depth").set(7)
        reg.observe("lat", 0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 2}
        assert snap["gauges"] == {"depth": 7.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_sorted_and_json_friendly(self):
        import json

        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)  # must not raise


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NullRegistry().enabled is False
        assert NULL_REGISTRY.enabled is False

    def test_stores_nothing(self):
        reg = NullRegistry()
        reg.inc("hits", 100)
        reg.gauge("depth").set(3)
        reg.observe("lat", 1.0)
        reg.histogram("other").observe(2.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        assert reg.counter("hits").value == 0
        assert reg.histogram("lat").count == 0

    def test_hands_out_shared_noop_metrics(self):
        reg = NullRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.histogram("a") is reg.histogram("b")
