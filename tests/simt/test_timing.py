"""Tests for the analytical cost model."""

from __future__ import annotations

import pytest

from repro.simt.counters import KernelStats
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.simt.timing import (
    EMULATION_COST_FACTOR,
    CostParams,
    estimate_time,
    throughput_throttle,
)


class TestThrottle:
    def test_above_knee_full_speed(self):
        assert throughput_throttle(0.8, 0.25) == 1.0

    def test_below_knee_linear(self):
        assert throughput_throttle(0.125, 0.25) == pytest.approx(0.5)

    def test_floor(self):
        assert throughput_throttle(0.0, 0.25) == pytest.approx(1 / 64)

    def test_invalid_knee(self):
        with pytest.raises(ValueError):
            throughput_throttle(0.5, 0.0)


class TestEstimateTime:
    def test_empty_stats_cost_zero(self):
        assert estimate_time(KernelStats(), TESLA_C1060, CostParams()) == 0.0

    def test_launch_overhead(self):
        p = CostParams(launch_overhead_s=1e-4)
        s = KernelStats(kernel_launches=3)
        assert estimate_time(s, TESLA_C1060, p) == pytest.approx(3e-4)

    def test_compute_bound_scaling(self):
        p = CostParams()
        a = estimate_time(KernelStats(flops=1e9), TESLA_C1060, p)
        b = estimate_time(KernelStats(flops=2e9), TESLA_C1060, p)
        assert b == pytest.approx(2 * a)

    def test_memory_bound_uses_pattern_multipliers(self):
        p = CostParams()
        coal = estimate_time(KernelStats(gmem_coalesced_bytes=1e9), TESLA_C1060, p)
        rand = estimate_time(KernelStats(gmem_random_bytes=1e9), TESLA_C1060, p)
        assert rand > coal  # random traffic expands

    def test_pipes_overlap_max_not_sum(self):
        p = CostParams()
        c = estimate_time(KernelStats(flops=1e10), TESLA_C1060, p)
        m = estimate_time(KernelStats(gmem_coalesced_bytes=1e9), TESLA_C1060, p)
        both = estimate_time(
            KernelStats(flops=1e10, gmem_coalesced_bytes=1e9), TESLA_C1060, p
        )
        assert both == pytest.approx(max(c, m))

    def test_atomics_additive(self):
        p = CostParams()
        base = estimate_time(KernelStats(flops=1e9), TESLA_M2050, p)
        with_atomics = estimate_time(
            KernelStats(flops=1e9, atomics_fp=1e6), TESLA_M2050, p
        )
        assert with_atomics > base

    def test_float_atomics_emulated_on_c1060(self):
        """The paper's Figure 5 asymmetry: same ledger, same constants —
        the C1060 pays the CAS emulation factor."""
        p = CostParams()
        s = KernelStats(atomics_fp=1e6)
        t_c1060 = estimate_time(s, TESLA_C1060, p)
        t_m2050 = estimate_time(s, TESLA_M2050, p)
        assert t_c1060 == pytest.approx(4.0 * t_m2050, rel=1e-6)

    def test_emulation_factor_positive(self):
        assert EMULATION_COST_FACTOR > 1.0

    def test_int_atomics_not_emulated(self):
        p = CostParams()
        s = KernelStats(atomics_int=1e6)
        assert estimate_time(s, TESLA_C1060, p) == pytest.approx(
            estimate_time(s, TESLA_M2050, p)
        )

    def test_cache_hit_only_on_cached_device(self):
        p = CostParams(cache_hit_fraction=0.5)
        s = KernelStats(gmem_coalesced_bytes=1e10)
        c = estimate_time(s, TESLA_C1060, p)  # no L1 -> full traffic
        m = estimate_time(s, TESLA_M2050, p)
        # M2050 has higher bandwidth AND caches half the traffic
        assert m < c

    def test_texture_hits_nearly_free(self):
        p = CostParams(tex_hit_fraction=0.9)
        tex = estimate_time(KernelStats(tex_bytes=1e9), TESLA_C1060, p)
        gmem = estimate_time(KernelStats(gmem_coalesced_bytes=1e9), TESLA_C1060, p)
        assert tex < gmem

    def test_low_occupancy_slows_down(self):
        p = CostParams()
        s = KernelStats(flops=1e10)
        full = estimate_time(s, TESLA_C1060, p, effective_parallelism=1.0)
        starved = estimate_time(s, TESLA_C1060, p, effective_parallelism=0.01)
        assert starved > full

    def test_serial_barriers_latency(self):
        p = CostParams(barrier_latency_s=1e-6)
        s = KernelStats(serial_barriers=1000)
        assert estimate_time(s, TESLA_C1060, p) == pytest.approx(1e-3)

    def test_rng_class_costs(self):
        p = CostParams(cycles_rng_lcg=10, cycles_rng_curand=40)
        lcg = estimate_time(KernelStats(rng_lcg=1e9), TESLA_C1060, p)
        cur = estimate_time(KernelStats(rng_curand=1e9), TESLA_C1060, p)
        assert cur == pytest.approx(4 * lcg)

    def test_with_overrides(self):
        p = CostParams().with_overrides(atomic_ns=99.0)
        assert p.atomic_ns == 99.0
        assert CostParams().atomic_ns != 99.0
