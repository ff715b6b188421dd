"""Tests for the memory spaces and coalescing accounting."""

from __future__ import annotations

import pytest

from repro.errors import MemoryModelError
from repro.simt.counters import KernelStats
from repro.simt.device import TESLA_C1060
from repro.simt.memory import TRAFFIC_MULTIPLIER, AccessPattern, GlobalMemory

_BUCKETS = {
    AccessPattern.COALESCED: "gmem_coalesced_bytes",
    AccessPattern.BROADCAST: "gmem_broadcast_bytes",
    AccessPattern.STRIDED: "gmem_strided_bytes",
    AccessPattern.RANDOM: "gmem_random_bytes",
}


class TestGlobalMemory:
    def test_load_buckets_by_pattern(self):
        st = KernelStats()
        gm = GlobalMemory(TESLA_C1060, st)
        gm.load(100, 4, AccessPattern.COALESCED)
        gm.load(10, 4, AccessPattern.RANDOM)
        assert st.gmem_load_bytes == 440
        assert st.gmem_coalesced_bytes == 400
        assert st.gmem_random_bytes == 40

    def test_store_counted_separately(self):
        st = KernelStats()
        gm = GlobalMemory(TESLA_C1060, st)
        gm.store(8, 4)
        assert st.gmem_store_bytes == 32
        assert st.gmem_load_bytes == 0

    def test_negative_count_raises(self):
        gm = GlobalMemory(TESLA_C1060, KernelStats())
        with pytest.raises(MemoryModelError):
            gm.load(-1)

    def test_multiplier_ordering(self):
        # random moves more DRAM bytes than strided than coalesced
        assert (
            TRAFFIC_MULTIPLIER[AccessPattern.RANDOM]
            > TRAFFIC_MULTIPLIER[AccessPattern.STRIDED]
            > TRAFFIC_MULTIPLIER[AccessPattern.COALESCED]
            > TRAFFIC_MULTIPLIER[AccessPattern.BROADCAST]
        )


class TestPatternBuckets:
    @pytest.mark.parametrize("pattern", list(AccessPattern), ids=lambda p: p.value)
    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    def test_bytes_land_in_one_bucket(self, pattern, store):
        st = KernelStats()
        gm = GlobalMemory(TESLA_C1060, st)
        (gm.store if store else gm.load)(6, 8, pattern)
        assert (st.gmem_store_bytes, st.gmem_load_bytes) == ((48, 0) if store else (0, 48))
        for other, field in _BUCKETS.items():
            assert getattr(st, field) == (48 if other is pattern else 0)

    def test_default_is_coalesced_words(self):
        st = KernelStats()
        GlobalMemory(TESLA_C1060, st).load(3)
        assert st.gmem_load_bytes == st.gmem_coalesced_bytes == 12

    def test_fractional_counts_accumulate(self):
        # closed-form ledgers pass float element counts
        st = KernelStats()
        gm = GlobalMemory(TESLA_C1060, st)
        gm.load(2.5, 4, AccessPattern.STRIDED)
        gm.load(0.5, 4, AccessPattern.STRIDED)
        gm.store(0, 4, AccessPattern.STRIDED)
        assert st.gmem_strided_bytes == pytest.approx(12.0)
        assert st.gmem_store_bytes == 0

    def test_negative_store_raises(self):
        st = KernelStats()
        gm = GlobalMemory(TESLA_C1060, st)
        with pytest.raises(MemoryModelError):
            gm.store(-0.5)
        assert st.gmem_store_bytes == 0
