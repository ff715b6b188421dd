"""Property tests on the memory model's pattern bucketing."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.simt.counters import KernelStats
from repro.simt.device import TESLA_C1060
from repro.simt.memory import AccessPattern, GlobalMemory

patterns = st.sampled_from(list(AccessPattern))
accesses = st.lists(
    st.tuples(patterns, st.integers(0, 10_000), st.sampled_from([1, 4, 8])),
    min_size=1,
    max_size=25,
)


class TestBucketConservation:
    @given(accesses)
    def test_buckets_sum_to_logical_bytes(self, ops):
        stats = KernelStats()
        gm = GlobalMemory(TESLA_C1060, stats)
        for pattern, count, width in ops:
            gm.load(count, width, pattern)
        buckets = (
            stats.gmem_coalesced_bytes
            + stats.gmem_broadcast_bytes
            + stats.gmem_strided_bytes
            + stats.gmem_random_bytes
        )
        assert buckets == stats.gmem_load_bytes

    @given(accesses)
    def test_stores_count_into_buckets_too(self, ops):
        stats = KernelStats()
        gm = GlobalMemory(TESLA_C1060, stats)
        for pattern, count, width in ops:
            gm.store(count, width, pattern)
        buckets = (
            stats.gmem_coalesced_bytes
            + stats.gmem_broadcast_bytes
            + stats.gmem_strided_bytes
            + stats.gmem_random_bytes
        )
        assert buckets == stats.gmem_store_bytes

    @given(accesses)
    def test_cost_model_traffic_nonnegative_and_ordered(self, ops):
        """Random-bucket traffic can only increase modeled time relative to
        re-labelling everything coalesced."""
        from repro.simt.timing import CostParams, estimate_time

        stats = KernelStats()
        gm = GlobalMemory(TESLA_C1060, stats)
        total = 0
        for pattern, count, width in ops:
            gm.load(count, width, pattern)
            total += count * width
        as_is = estimate_time(stats, TESLA_C1060, CostParams())

        flat = KernelStats()
        GlobalMemory(TESLA_C1060, flat).load(total, 1, AccessPattern.COALESCED)
        flattened = estimate_time(flat, TESLA_C1060, CostParams())
        # broadcast can be cheaper than coalesced; exclude pure-broadcast mixes
        if stats.gmem_broadcast_bytes == 0:
            assert as_is >= flattened - 1e-12
