"""Scatter-to-gather pheromone update: Table III/IV versions 4-5.

The paper's atomic-free alternative inverts the data flow: instead of ants
*scattering* deposits onto the matrix, one thread **per matrix cell**
*gathers* — it scans every ant's tour and accumulates ``1/C_k`` whenever its
edge appears.  Evaporation is fused (each thread owns its cell).

The trade is brutal and the paper quantifies it exactly:

* version 5 (no tiling): every one of the ``c = n^2`` threads performs
  ``2 n^2`` four-byte loads, ``l = 2 n^4`` total — the ``loads:atomic``
  ratio is ``l : c``;
* version 4 stages tour segments through shared memory tiles of size θ:
  global traffic drops to ``γ = 2 n^4 / θ`` but the full ``2 n^4`` access
  stream now hits shared memory with its accompanying address/compare
  instructions, so the kernel stays orders of magnitude slower than the
  atomic deposit (Tables III/IV's bottom rows).

Implementation note: consecutive threads scan the tour array starting at
staggered offsets so that a warp's simultaneous reads hit consecutive
addresses (coalesced) rather than one broadcast address per cycle — the
natural way to write this kernel on CC 1.x, and what the ledger assumes.
"""

from __future__ import annotations

from repro.core.pheromone.base import PheromoneUpdate
from repro.errors import ACOConfigError
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = ["ScatterGatherPheromone", "ScatterGatherTiledPheromone"]

#: integer ops per scanned tour entry (address arithmetic + edge compare)
SCAN_INT_OPS = 2.0


class ScatterGatherPheromone(PheromoneUpdate):
    """Version 5 — plain scatter-to-gather (no tiling, no atomics)."""

    version = 5
    key = "scatter_gather"
    label = "Scatter to Gather"

    tiled = False

    def __init__(self, theta: int = 256) -> None:
        if theta < 32:
            raise ACOConfigError(f"theta must be >= 32, got {theta}")
        self.theta = int(theta)

    def launch_config(self, device: DeviceSpec, *, n: int, m: int) -> LaunchConfig:
        block = min(self.theta, device.max_threads_per_block)
        smem = 4 * block if self.tiled else 0
        return LaunchConfig(
            grid=grid_for(n * n, block), block=block, smem_per_block=smem
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

        cells = float(n) * n
        # Every cell-thread scans every ant's tour: m tours × (n + 1) entries,
        # 2 loads per entry (position and successor).
        scan_entries = cells * float(m) * (n + 1)
        if self.tiled:
            # Cooperative staging: each tile of θ entries is loaded once per
            # block from global memory, then re-read from shared by all θ
            # threads of the block — the paper's γ = 2 n^4 / θ.
            gmem.load(2.0 * scan_entries / launch.block, 4, AccessPattern.COALESCED)
            stats.smem_accesses += 2.0 * scan_entries  # the full access stream
            stats.smem_accesses += 2.0 * scan_entries / launch.block  # staging writes
        else:
            gmem.load(2.0 * scan_entries, 4, AccessPattern.COALESCED)
        stats.int_ops += SCAN_INT_OPS * 2.0 * scan_entries

        # Fused evaporation + accumulate + write-back of each cell.
        gmem.load(cells, 4, AccessPattern.COALESCED)
        gmem.store(cells, 4, AccessPattern.COALESCED)
        stats.flops += cells + 2.0 * float(m) * n  # evap + matched deposits
        gmem.load(float(m), 4, AccessPattern.BROADCAST)  # tour lengths
        stats.special_ops += float(m)  # 1 / C_k per ant
        return stats, launch


class ScatterGatherTiledPheromone(ScatterGatherPheromone):
    """Version 4 — scatter-to-gather with shared-memory tiling (paper's θ)."""

    version = 4
    key = "scatter_gather_tiled"
    label = "Scatter to Gather + Tilling"  # sic — the paper's spelling

    tiled = True
