"""Atomic pheromone update: Table III/IV versions 1-2.

Version 1 ("Atomic Ins. + Shared Memory") is the paper's best performer —
the baseline the slow-down rows are measured against:

* an **evaporation kernel** with one thread per matrix cell applies
  eq. 2 (coalesced read-modify-write of the whole matrix);
* a **deposit kernel** with one thread per tour position (one block per
  ant, the tour staged through shared memory) executes
  ``atomicAdd(&tau[i][j], 1/C_k)`` on both triangle cells of its edge.

Version 2 drops the shared staging: every thread reads its tour entries
straight from global memory.

On the Tesla C1060 (CC 1.3) the float ``atomicAdd`` does not exist in
hardware and is emulated with an integer CAS loop — the cost model charges
:data:`~repro.simt.timing.EMULATION_COST_FACTOR` per op on such devices,
which is exactly the paper's Figure 5 asymmetry between the two GPUs.
"""

from __future__ import annotations

import numpy as np

from repro.core.pheromone.base import (
    PheromoneUpdate,
    deposit_all_batch,
    evaporate_batch,
)
from repro.core.report import StageReport, cached_stage_reports
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = ["AtomicSharedPheromone", "AtomicPheromone"]

#: threads per block for both kernels
PHEROMONE_BLOCK = 256


def _row_hot_degree(edges: np.ndarray, n_cells: int, bk) -> np.ndarray:
    """Hottest-cell update multiplicity per row of a ``(B, k)`` edge table.

    ``edges`` holds global flat indices on backend ``bk`` (rows disjoint, so
    one pass covers the batch).  Row ``b``'s value is the hottest cell's
    update count among that colony's forward deposits, and so among its
    backward ones (their counts are the forward counts transposed).
    Integer counting, so every backend returns identical values.
    """
    xp = bk.xp
    B = edges.shape[0]
    # The dense path allocates B * n_cells counters; unlike the deposit,
    # the hot degree is a pure measurement (identical either way), so the
    # guard can key on the actual scratch size.
    if B * n_cells > (1 << 24):
        return xp.asarray(
            [float(xp.unique(row, return_counts=True)[1].max()) for row in edges]
        )
    counts = bk.bincount(edges.reshape(-1), minlength=B * n_cells)
    return counts.reshape(B, n_cells).max(axis=1).astype(np.float64)


class AtomicSharedPheromone(PheromoneUpdate):
    """Version 1 — atomic deposit with tours staged in shared memory."""

    version = 1
    key = "atomic_shared"
    label = "Atomic Ins. + Shared Memory"

    stage_tours_in_shared = True

    def launch_config(self, device: DeviceSpec, *, n: int, m: int) -> LaunchConfig:
        block = min(PHEROMONE_BLOCK, device.max_threads_per_block)
        smem = block * 4 if self.stage_tours_in_shared else 0
        # Deposit kernel shape: one block per ant, tour tiled over `block`.
        return LaunchConfig(grid=m, block=block, smem_per_block=smem)

    # ------------------------------------------------------------------ run

    def update_batch(
        self, bstate, edges: np.ndarray, lengths: np.ndarray, collect: bool = True
    ) -> list[StageReport]:
        """Batched atomic update with per-colony contention measurement.

        The hottest-cell multiplicity is measured once per row, on the
        forward edges of the edge table: the backward counts are their
        transpose, so the maximum is also the hot degree of the backward
        deposits' atomics (see :func:`_row_hot_degree`).  The hot degree
        feeds only the report's cost model, so ``collect=False`` skips the
        (bincount-heavy) measurement along with report materialization —
        the pheromone stack itself is updated identically.
        """
        evaporate_batch(bstate)
        deposit_all_batch(bstate, edges, lengths)
        if not collect:
            return []
        hot = _row_hot_degree(
            edges.reshape(bstate.B, -1), bstate.n * bstate.n, bstate.backend
        )
        return cached_stage_reports(
            bstate, self, (float(h) for h in hot), "pheromone", self.key,
            lambda h: self.predict_stats(
                bstate.n, bstate.m, bstate.device, hot_degree=h
            ),
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
        gmem = GlobalMemory(device, stats)

        # Evaporation kernel: n^2 threads, coalesced RMW of the matrix.
        cells = float(n) * n
        evap_launch = LaunchConfig(
            grid=grid_for(n * n, launch.block), block=launch.block
        )
        self.record_launch(stats, evap_launch)
        gmem.load(cells, 4, AccessPattern.COALESCED)
        gmem.store(cells, 4, AccessPattern.COALESCED)
        stats.flops += cells

        # Deposit kernel: one thread per tour position.
        self.record_launch(stats, launch)
        positions = float(m) * (n + 1)
        if self.stage_tours_in_shared:
            gmem.load(positions, 4, AccessPattern.COALESCED)  # cooperative stage
            stats.smem_accesses += 3.0 * positions  # write + read pos & next
        else:
            gmem.load(2.0 * positions, 4, AccessPattern.COALESCED)  # pos, next
        gmem.load(float(m), 4, AccessPattern.BROADCAST)  # tour lengths
        stats.special_ops += float(m)  # 1 / C_k
        stats.int_ops += 2.0 * positions
        stats.atomics_fp += 2.0 * float(m) * n  # both triangle cells per edge
        stats.atomic_hot_degree = max(stats.atomic_hot_degree, float(hot_degree))
        return stats, launch


class AtomicPheromone(AtomicSharedPheromone):
    """Version 2 — atomic deposit reading tours straight from global memory."""

    version = 2
    key = "atomic"
    label = "Atomic Ins."

    stage_tours_in_shared = False
