"""Nearest-neighbour-list tour construction: Table II versions 4-6.

Still task-based (thread = ant), but the probabilistic choice is restricted
to each city's ``nn`` nearest neighbours (paper: nn = 30), falling back to
the best-``choice_info`` city over the whole row once the list is exhausted.
This slashes both the candidate-scan width (nn instead of n) and the random
numbers generated — the paper's single biggest construction win (6.71× on
pr2392).

* **Version 4 (NNList)** — tabu list and everything else in global memory.
* **Version 5 (+ shared memory)** — each ant's tabu list lives in shared
  memory.  While one byte per city fits, a *word* layout is used; for larger
  instances the list degrades to a **bit-packed** layout whose modulo and
  shift arithmetic costs extra integer ops (the paper's stated overhead),
  and the shrinking ants-per-block hurts occupancy — this is why version 5
  *loses* to version 4 on pr2392 in Table II.
* **Version 6 (+ texture)** — random numbers are pre-generated by a separate
  bulk kernel and fetched through the texture path in the main kernel
  (paper: ~25 % gain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.construction.base import BatchConstructionResult, TourConstruction
from repro.core.construction.taskbased import (
    DIVERGENCE_FRACTION,
    WALK_LOADS_PER_CAND,
    construct_exact_batch,
)
from repro.rng.streams import DeviceRNG
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = [
    "NNListConstruction",
    "NNListSharedConstruction",
    "NNListTextureConstruction",
    "TabuLayout",
    "tabu_layout",
]

#: preferred ants per block for the nn-list kernels
NN_BLOCK = 128

#: extra integer ops per tabu access in the bit-packed layout
#: (word index = city / 32, bit = city % 32, shift + mask + test)
BITWISE_EXTRA_INT_OPS = 4.0


@dataclass(frozen=True)
class TabuLayout:
    """Shared-memory layout chosen for the per-ant tabu lists.

    Attributes
    ----------
    mode:
        ``"word"`` (one byte per city) or ``"bitwise"`` (one bit per city).
    ants_per_block:
        Ants whose tabu lists fit one block's shared allocation.
    smem_per_block:
        Shared bytes the block statically reserves.
    """

    mode: str
    ants_per_block: int
    smem_per_block: int


def tabu_layout(n: int, device: DeviceSpec) -> TabuLayout:
    """Choose the tabu representation for instance size ``n`` on ``device``.

    Prefers the cheap word layout while at least a reasonable number of ants
    (64) still fit per block; otherwise falls back to bit-packing, matching
    the paper's description of the large-instance behaviour.
    """
    smem = device.shared_mem_per_sm
    word_bytes = n  # one byte per city
    word_ants = min(NN_BLOCK, smem // word_bytes) if word_bytes <= smem else 0
    if word_ants >= 64:
        return TabuLayout("word", int(word_ants), int(word_ants * word_bytes))
    bit_bytes = 4 * math.ceil(n / 32)
    bit_ants = min(NN_BLOCK, smem // bit_bytes)
    if bit_ants < 1:
        # Cannot happen for any realistic n (pr2392 needs 300 B/ant), but
        # guard the arithmetic anyway.
        from repro.errors import OccupancyError

        raise OccupancyError(
            f"tabu list of {bit_bytes} B/ant cannot fit {device.name} shared memory"
        )
    return TabuLayout("bitwise", int(bit_ants), int(bit_ants * bit_bytes))


class NNListConstruction(TourConstruction):
    """Version 4 — NNList: candidate lists, everything in global memory."""

    version = 4
    key = "nnlist"
    label = "NNList"
    needs_choice_info = True
    rng_kind = "lcg"

    #: whether tabu reads hit shared memory instead of global (version 5+)
    tabu_in_shared = False
    #: whether random numbers arrive via texture (version 6)
    rng_via_texture = False

    def launch_config(self, device: DeviceSpec, *, n: int, m: int) -> LaunchConfig:
        if self.tabu_in_shared:
            layout = tabu_layout(n, device)
            block = min(layout.ants_per_block, device.max_threads_per_block)
            return LaunchConfig(
                grid=grid_for(m, block),
                block=block,
                smem_per_block=block * (n if layout.mode == "word" else 4 * math.ceil(n / 32)),
                regs_per_thread=24,
            )
        block = min(NN_BLOCK, device.max_threads_per_block)
        return LaunchConfig(grid=grid_for(m, block), block=block, regs_per_thread=24)

    # ----------------------------------------------------------------- build

    def build_batch(
        self, bstate, rng: DeviceRNG, collect: bool = True
    ) -> BatchConstructionResult:
        B, n, m = bstate.B, bstate.n, bstate.m
        self._validate_batch_rng(rng, B, n, m)
        tours, fallbacks = construct_exact_batch(
            self._choice_info(bstate),
            bstate.nn_list,
            rng,
            B,
            m,
            n,
            xp=bstate.backend.xp,
            work=bstate.work,
        )
        return BatchConstructionResult(
            tours=tours,
            reports=self._batch_reports(bstate, fallbacks) if collect else [],
            fallback_steps=fallbacks,
        )

    # --------------------------------------------------------------- ledger

    def predict_stats(
        self,
        n: int,
        m: int,
        nn: int,
        device: DeviceSpec,
        *,
        fallback_steps: float = 0.0,
    ) -> tuple[KernelStats, LaunchConfig]:
        stats = KernelStats()
        launch = self.launch_config(device, n=n, m=m)
        self.record_launch(stats, launch)
        gmem = GlobalMemory(device, stats)

        cands = float(m) * (n - 1) * nn
        # Candidate scan: choice_info gather is always global & scattered.
        gmem.load(cands, 4, AccessPattern.RANDOM)
        # nn-list entries themselves (per candidate, scattered by row).
        gmem.load(cands, 4, AccessPattern.STRIDED)
        # Tabu checks + roulette walk.
        if self.tabu_in_shared:
            layout = tabu_layout(n, device)
            tabu_accesses = cands + WALK_LOADS_PER_CAND * cands
            stats.smem_accesses += tabu_accesses
            if layout.mode == "bitwise":
                stats.int_ops += BITWISE_EXTRA_INT_OPS * tabu_accesses
        else:
            gmem.load(cands + WALK_LOADS_PER_CAND * cands, 4, AccessPattern.RANDOM)

        # Fallback: full best-next scan of the choice row.
        if fallback_steps:
            gmem.load(fallback_steps * n, 4, AccessPattern.RANDOM)
            if self.tabu_in_shared:
                layout = tabu_layout(n, device)
                stats.smem_accesses += fallback_steps * n
                if layout.mode == "bitwise":
                    stats.int_ops += BITWISE_EXTRA_INT_OPS * fallback_steps * n
            else:
                gmem.load(fallback_steps * n, 4, AccessPattern.RANDOM)
            stats.flops += fallback_steps * n
            stats.int_ops += fallback_steps * n
            stats.divergent_branches += DIVERGENCE_FRACTION * fallback_steps * n

        gmem.store(float(m) * n, 4, AccessPattern.RANDOM)  # tour writes
        stats.flops += 2.0 * cands
        stats.int_ops += 3.0 * cands
        stats.divergent_branches += DIVERGENCE_FRACTION * cands

        samples = cands + m  # one per candidate + initial placement
        if self.rng_via_texture:
            # Main kernel fetches pre-generated numbers through texture; a
            # separate bulk kernel generates them at streaming rates.
            stats.tex_bytes += 4.0 * samples
            stats.rng_lcg += samples
            gmem.store(samples, 4, AccessPattern.COALESCED)
            fill_launch = LaunchConfig(
                grid=grid_for(max(1, int(samples) // 4 + 1), 256), block=256
            )
            self.record_launch(stats, fill_launch)
        else:
            stats.rng_lcg += samples
        return stats, launch


class NNListSharedConstruction(NNListConstruction):
    """Version 5 — NNList with tabu lists in shared memory."""

    version = 5
    key = "nnlist_shared"
    label = "NNList + Shared Memory"
    tabu_in_shared = True


class NNListTextureConstruction(NNListSharedConstruction):
    """Version 6 — version 5 plus texture-served random numbers."""

    version = 6
    key = "nnlist_texture"
    label = "NNList + Shared&Texture Memory"
    rng_via_texture = True
