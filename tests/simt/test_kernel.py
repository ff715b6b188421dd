"""Tests for launch configuration and kernel bookkeeping."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import LaunchConfigError
from repro.simt.counters import KernelStats
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.simt.kernel import Kernel, LaunchConfig, grid_for


class TestGridFor:
    def test_exact_division(self):
        assert grid_for(1024, 256) == 4

    def test_rounds_up(self):
        assert grid_for(1025, 256) == 5

    def test_single_thread(self):
        assert grid_for(1, 256) == 1

    def test_invalid(self):
        with pytest.raises(LaunchConfigError):
            grid_for(0, 256)
        with pytest.raises(LaunchConfigError):
            grid_for(10, 0)


class TestLaunchConfig:
    def test_total_threads(self):
        cfg = LaunchConfig(grid=10, block=128)
        assert cfg.total_threads == 1280

    def test_validate_against_device(self):
        LaunchConfig(grid=1, block=512).validate(TESLA_C1060)
        with pytest.raises(LaunchConfigError):
            LaunchConfig(grid=1, block=1024).validate(TESLA_C1060)
        LaunchConfig(grid=1, block=1024).validate(TESLA_M2050)

    def test_shared_checked(self):
        with pytest.raises(LaunchConfigError):
            LaunchConfig(grid=1, block=64, smem_per_block=17 * 1024).validate(
                TESLA_C1060
            )

    def test_occupancy_integration(self):
        occ = LaunchConfig(grid=100, block=256, regs_per_thread=8).occupancy(
            TESLA_C1060
        )
        assert 0.0 < occ.occupancy <= 1.0

    def test_invalid_shape(self):
        with pytest.raises(LaunchConfigError):
            LaunchConfig(grid=0, block=128)
        with pytest.raises(LaunchConfigError):
            LaunchConfig(grid=1, block=0)

    def test_frozen(self):
        cfg = LaunchConfig(grid=1, block=32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.grid = 2  # type: ignore[misc]


class TestKernelBookkeeping:
    def test_record_launch(self):
        stats = KernelStats()
        cfg = LaunchConfig(grid=4, block=64)
        Kernel.record_launch(stats, cfg)
        Kernel.record_launch(stats, cfg, count=2)
        assert stats.kernel_launches == 3
        assert stats.threads_launched == 3 * 256

    def test_record_negative_raises(self):
        with pytest.raises(LaunchConfigError):
            Kernel.record_launch(KernelStats(), LaunchConfig(grid=1, block=32), count=-1)
