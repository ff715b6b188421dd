"""Symmetric "Instruction & Thread Reduction" update: Table III/IV version 3.

The paper's refinement of scatter-to-gather for the *symmetric* TSP: since
``tau[i][j] == tau[j][i]``, only the upper triangle needs a gathering thread
— half the threads, and with tiling the total device traffic drops to
``ρ = n^4 / θ`` ("the number of accesses per thread remains the same", but
the overall count halves).  A final mirror pass copies the triangle to keep
the full matrix readable by row.

Ordering in the tables: version 3 beats versions 4-5 from a280 upward (half
the work), yet *loses* to them on att48 (Table IV: 0.83 vs 0.80/0.66 ms)
because n²/2 threads on a tiny instance cannot fill the machine — an
occupancy effect the cost model reproduces through the grid-fill throttle.
"""

from __future__ import annotations

from repro.core.pheromone.base import PheromoneUpdate
from repro.core.pheromone.scatter_gather import SCAN_INT_OPS
from repro.errors import ACOConfigError
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = ["ReductionPheromone"]


class ReductionPheromone(PheromoneUpdate):
    """Version 3 — symmetric scatter-to-gather with tiling (half threads)."""

    version = 3
    key = "reduction"
    label = "Instruction & Thread Reduction"

    def __init__(self, theta: int = 256) -> None:
        if theta < 32:
            raise ACOConfigError(f"theta must be >= 32, got {theta}")
        self.theta = int(theta)

    def launch_config(self, device: DeviceSpec, *, n: int, m: int) -> LaunchConfig:
        block = min(self.theta, device.max_threads_per_block)
        cells_half = n * (n + 1) // 2
        return LaunchConfig(
            grid=grid_for(cells_half, block), block=block, smem_per_block=4 * block
        )

    # --------------------------------------------------------------- ledger

    def predict_stats(
        self,
        n: int,
        m: int,
        device: DeviceSpec,
        *,
        hot_degree: float = 0.0,
    ) -> tuple[KernelStats, LaunchConfig]:
        stats = KernelStats()
        launch = self.launch_config(device, n=n, m=m)
        self.record_launch(stats, launch)
        gmem = GlobalMemory(device, stats)

        cells_half = float(n) * (n + 1) / 2.0
        # Each upper-triangle thread scans the full tour stream through
        # shared tiles; per-thread access count unchanged, total halved.
        scan_entries = cells_half * float(m) * (n + 1)
        gmem.load(2.0 * scan_entries / launch.block, 4, AccessPattern.COALESCED)
        stats.smem_accesses += 2.0 * scan_entries
        stats.smem_accesses += 2.0 * scan_entries / launch.block  # staging writes
        stats.int_ops += SCAN_INT_OPS * 2.0 * scan_entries

        # Fused evaporation + accumulate on the triangle cells.
        gmem.load(cells_half, 4, AccessPattern.COALESCED)
        gmem.store(cells_half, 4, AccessPattern.COALESCED)
        stats.flops += cells_half + 2.0 * float(m) * n
        gmem.load(float(m), 4, AccessPattern.BROADCAST)
        stats.special_ops += float(m)

        # Mirror kernel: copy the triangle to the lower half (transposed
        # stores are only partially coalesced).
        mirror_launch = LaunchConfig(
            grid=grid_for(max(1, int(cells_half)), launch.block), block=launch.block
        )
        self.record_launch(stats, mirror_launch)
        gmem.load(cells_half, 4, AccessPattern.COALESCED)
        gmem.store(cells_half, 4, AccessPattern.STRIDED)
        stats.int_ops += 2.0 * cells_half
        return stats, launch
