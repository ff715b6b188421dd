"""Kernel launch configuration and launch records.

The paper's kernels are all 1-D grids of 1-D blocks (threads = ants, threads
= cities, threads = matrix cells), so :class:`LaunchConfig` models exactly
that plus the two per-block resources the occupancy calculator needs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import LaunchConfigError
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.occupancy import Occupancy, occupancy_for

__all__ = ["LaunchConfig", "Kernel", "grid_for"]


def grid_for(total_threads: int, block: int) -> int:
    """Blocks needed to cover ``total_threads`` with ``block``-sized blocks."""
    if total_threads <= 0:
        raise LaunchConfigError(f"total_threads must be positive, got {total_threads}")
    if block <= 0:
        raise LaunchConfigError(f"block must be positive, got {block}")
    return -(-total_threads // block)


@dataclass(frozen=True)
class LaunchConfig:
    """One kernel launch shape.

    Attributes
    ----------
    grid:
        Number of thread blocks.
    block:
        Threads per block.
    smem_per_block:
        Shared-memory bytes statically required per block.
    regs_per_thread:
        Register footprint per thread (occupancy input).
    """

    grid: int
    block: int
    smem_per_block: int = 0
    regs_per_thread: int = 16

    def __post_init__(self) -> None:
        if self.grid <= 0:
            raise LaunchConfigError(f"grid must be positive, got {self.grid}")
        if self.block <= 0:
            raise LaunchConfigError(f"block must be positive, got {self.block}")

    @property
    def total_threads(self) -> int:
        return self.grid * self.block

    def validate(self, device: DeviceSpec) -> None:
        """Check the block against the device's hard limits."""
        device.validate_block(self.block)
        if self.smem_per_block > device.shared_mem_per_sm:
            raise LaunchConfigError(
                f"{self.smem_per_block} B shared/block exceeds {device.name}'s "
                f"{device.shared_mem_per_sm} B per SM"
            )

    def occupancy(self, device: DeviceSpec) -> Occupancy:
        """Occupancy of this shape on ``device`` (validates first)."""
        self.validate(device)
        return occupancy_for(
            device,
            self.block,
            regs_per_thread=self.regs_per_thread,
            smem_per_block=self.smem_per_block,
            total_blocks=self.grid,
        )


class Kernel(abc.ABC):
    """Base class for simulated kernels.

    Subclasses implement :meth:`launch_config` (shape for a given problem
    size) and whatever functional entry points their stage needs; the base
    provides launch bookkeeping so stats ledgers always carry launch counts
    and thread totals.
    """

    #: human-readable kernel name, e.g. ``"pheromone_deposit_atomic"``
    name: str = "kernel"

    @abc.abstractmethod
    def launch_config(self, device: DeviceSpec, **problem) -> LaunchConfig:
        """Launch shape for a problem instance on a device."""

    @staticmethod
    def record_launch(stats: KernelStats, config: LaunchConfig, count: int = 1) -> None:
        """Account ``count`` launches of ``config`` into ``stats``."""
        if count < 0:
            raise LaunchConfigError(f"launch count must be >= 0, got {count}")
        stats.kernel_launches += float(count)
        stats.threads_launched += float(count) * config.total_threads
