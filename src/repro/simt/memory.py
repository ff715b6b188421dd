"""Simulated memory spaces with traffic accounting.

The paper's pheromone-update study is, at heart, a story about memory
traffic: the scatter-to-gather kernel trades ``c = n^2`` atomics for
``l = 2 n^4`` four-byte loads, tiling divides the global share by the tile
size θ, and the symmetric "reduction" kernel halves everything.  To reproduce
those trade-offs the simulator routes every global access through
:class:`GlobalMemory`, which records logical bytes **and** estimated DRAM
traffic after coalescing into a :class:`~repro.simt.counters.KernelStats`
ledger.  The coalescing model is per-access-pattern: a warp's worth of
contiguous 4-byte accesses moves exactly its own bytes; a random-per-lane
pattern moves a full 32-byte segment per lane.  Kernels count shared-memory
and texture traffic straight on the ledger (``smem_accesses``,
``tex_bytes``).

The functional data itself lives in ordinary numpy arrays owned by kernels;
the ``load``/``store`` methods are *accounting* calls with an explicit
element count (closed-form, for O(n^4) streams that must not be
materialised).
"""

from __future__ import annotations

import enum

from repro.errors import MemoryModelError
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec

__all__ = [
    "AccessPattern",
    "GlobalMemory",
    "TRAFFIC_MULTIPLIER",
]


class AccessPattern(enum.Enum):
    """How a warp's lanes address memory, driving the coalescing estimate.

    COALESCED
        Lane *i* reads word *base + i*: one segment per warp.
    BROADCAST
        All lanes read the same word: one segment serves the warp.
    STRIDED
        Constant stride > 1 between lanes: partially coalesced.
    RANDOM
        Data-dependent scatter (tabu checks, ``choice_info[cur][j]`` with
        per-ant rows): a full memory segment per lane.
    """

    COALESCED = "coalesced"
    BROADCAST = "broadcast"
    STRIDED = "strided"
    RANDOM = "random"


#: DRAM bytes moved per *logical* byte requested, for 4-byte elements and the
#: 32-byte minimum segment of the Tesla-era memory controllers.  These are
#: architectural constants; the cost model additionally applies a
#: calibratable derate to the RANDOM bucket (DRAM row misses).
TRAFFIC_MULTIPLIER: dict[AccessPattern, float] = {
    AccessPattern.COALESCED: 1.0,
    # 32 lanes hitting one word still move one 32 B segment => 32/128 per warp.
    AccessPattern.BROADCAST: 0.25,
    AccessPattern.STRIDED: 4.0,
    # One 32 B segment per 4 B lane request.
    AccessPattern.RANDOM: 8.0,
}

#: KernelStats bucket name per access pattern.
_PATTERN_FIELD: dict[AccessPattern, str] = {
    AccessPattern.COALESCED: "gmem_coalesced_bytes",
    AccessPattern.BROADCAST: "gmem_broadcast_bytes",
    AccessPattern.STRIDED: "gmem_strided_bytes",
    AccessPattern.RANDOM: "gmem_random_bytes",
}


class GlobalMemory:
    """Device (video) memory accounting.

    Parameters
    ----------
    device:
        The target device.
    stats:
        Ledger that receives the counts.

    Examples
    --------
    >>> from repro.simt.device import TESLA_C1060
    >>> st = KernelStats()
    >>> gm = GlobalMemory(TESLA_C1060, st)
    >>> gm.load(1024, pattern=AccessPattern.COALESCED)
    >>> st.gmem_load_bytes
    4096.0
    """

    def __init__(self, device: DeviceSpec, stats: KernelStats) -> None:
        self.device = device
        self.stats = stats

    # -------------------------------------------------------------- accesses

    def load(
        self,
        count: float,
        element_bytes: int = 4,
        pattern: AccessPattern = AccessPattern.COALESCED,
    ) -> None:
        """Record ``count`` element loads with the given warp access pattern."""
        self._record(count, element_bytes, pattern, store=False)

    def store(
        self,
        count: float,
        element_bytes: int = 4,
        pattern: AccessPattern = AccessPattern.COALESCED,
    ) -> None:
        """Record ``count`` element stores with the given warp access pattern."""
        self._record(count, element_bytes, pattern, store=True)

    def _record(
        self, count: float, element_bytes: int, pattern: AccessPattern, store: bool
    ) -> None:
        if count < 0:
            raise MemoryModelError(f"access count must be >= 0, got {count}")
        nbytes = float(count) * element_bytes
        if store:
            self.stats.gmem_store_bytes += nbytes
        else:
            self.stats.gmem_load_bytes += nbytes
        field = _PATTERN_FIELD[pattern]
        setattr(self.stats, field, getattr(self.stats, field) + nbytes)
