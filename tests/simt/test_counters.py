"""Tests for the KernelStats ledger."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simt.counters import KernelStats


class TestMerge:
    def test_additive_fields_sum(self):
        a = KernelStats(flops=10, int_ops=5)
        b = KernelStats(flops=1, smem_accesses=7)
        a.merge(b)
        assert a.flops == 11
        assert a.int_ops == 5
        assert a.smem_accesses == 7

    def test_hot_degree_takes_max(self):
        a = KernelStats(atomic_hot_degree=3)
        b = KernelStats(atomic_hot_degree=9)
        assert (a + b).atomic_hot_degree == 9
        assert (b + a).atomic_hot_degree == 9

    def test_add_does_not_mutate(self):
        a = KernelStats(flops=1)
        b = KernelStats(flops=2)
        c = a + b
        assert a.flops == 1 and b.flops == 2 and c.flops == 3


class TestScaled:
    def test_scales_additive(self):
        s = KernelStats(flops=4, gmem_load_bytes=100).scaled(0.5)
        assert s.flops == 2
        assert s.gmem_load_bytes == 50

    def test_hot_degree_not_scaled(self):
        s = KernelStats(atomic_hot_degree=8).scaled(0.25)
        assert s.atomic_hot_degree == 8

    def test_negative_factor_raises(self):
        with pytest.raises(ValueError):
            KernelStats().scaled(-1)


class TestInspection:
    def test_as_dict_roundtrip(self):
        s = KernelStats(flops=3, rng_lcg=2)
        d = s.as_dict()
        assert d["flops"] == 3.0
        assert d["rng_lcg"] == 2.0
        assert "atomic_hot_degree" in d

    def test_approx_equal_and_diff(self):
        a = KernelStats(flops=1.0)
        b = KernelStats(flops=1.0 + 1e-12)
        assert a.approx_equal(b)
        c = KernelStats(flops=2.0)
        assert not a.approx_equal(c)
        assert "flops" in a.diff(c)

    @given(st.floats(0, 1e9), st.floats(0, 1e9))
    def test_merge_commutative_on_sums(self, x, y):
        a = KernelStats(flops=x)
        b = KernelStats(flops=y)
        assert (a + b).flops == (b + a).flops
