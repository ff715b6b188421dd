"""The :class:`KernelStats` ledger: everything a simulated kernel did.

Every simulated kernel (and the instrumented sequential code) records its
work into one of these ledgers.  The cost model converts a ledger into
estimated seconds; the test-suite cross-checks ledgers produced by the
functional simulation against each strategy's closed-form ``predict_stats``.

Counts are stored as floats because closed-form predictions use expressions
like ``2 * n**4 / theta`` that need not be integral, and because ledgers are
scaled when averaging over iterations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

__all__ = ["KernelStats"]


@dataclass
class KernelStats:
    """Aggregated work counters for one (or several merged) kernel launches.

    Attributes
    ----------
    flops:
        Single-precision arithmetic operations (add/mul/fma/compare).
    int_ops:
        Integer/logic/address operations that hit the SP pipes.
    special_ops:
        SFU-class operations: ``powf``, ``expf``, division, sqrt.
    rng_lcg / rng_curand:
        Random samples drawn from the device LCG / the CURAND-style XORWOW
        engine (costed differently; Table II version 3 is this distinction).
    gmem_load_bytes / gmem_store_bytes:
        Logical bytes requested from / written to global memory.
    gmem_coalesced_bytes / gmem_broadcast_bytes / gmem_strided_bytes /
    gmem_random_bytes:
        The same logical bytes, bucketed by warp access pattern; the cost
        model expands each bucket into DRAM traffic with per-pattern
        multipliers (random gathers move a full memory segment per lane).
    tex_bytes:
        Bytes fetched through the texture path.
    smem_accesses:
        Shared-memory accesses (32-bit words).
    atomics_fp / atomics_int:
        Atomic read-modify-write operations on float / integer cells.
    atomic_hot_degree:
        Maximum number of atomic operations addressed to a single cell within
        the merged launches (contention proxy; merged with ``max``).
    divergent_branches:
        Branch executions where a warp split (both paths executed).
    syncthreads:
        Block-wide barriers executed (per block, summed over blocks).
    serial_barriers:
        Barrier generations on the *critical path* — a kernel that loops
        ``n`` steps with 2 barriers per step has ``2 n`` serial barriers
        regardless of how many blocks run them concurrently.  Costed as
        latency, not throughput.
    reduction_steps:
        Tree-reduction stages executed (per block, summed over blocks).
    kernel_launches:
        Number of kernel launches merged into this ledger.
    threads_launched:
        Total threads across launches (grid × block).
    """

    flops: float = 0.0
    int_ops: float = 0.0
    special_ops: float = 0.0
    rng_lcg: float = 0.0
    rng_curand: float = 0.0
    gmem_load_bytes: float = 0.0
    gmem_store_bytes: float = 0.0
    gmem_coalesced_bytes: float = 0.0
    gmem_broadcast_bytes: float = 0.0
    gmem_strided_bytes: float = 0.0
    gmem_random_bytes: float = 0.0
    tex_bytes: float = 0.0
    smem_accesses: float = 0.0
    atomics_fp: float = 0.0
    atomics_int: float = 0.0
    atomic_hot_degree: float = 0.0
    divergent_branches: float = 0.0
    syncthreads: float = 0.0
    serial_barriers: float = 0.0
    reduction_steps: float = 0.0
    kernel_launches: float = 0.0
    threads_launched: float = 0.0

    _MAX_MERGED = ("atomic_hot_degree",)

    # ------------------------------------------------------------ operations

    def merge(self, other: "KernelStats") -> "KernelStats":
        """In-place accumulate another ledger (sum; hot-degree takes max)."""
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name in self._MAX_MERGED:
                setattr(self, f.name, max(a, b))
            else:
                setattr(self, f.name, a + b)
        return self

    def __add__(self, other: "KernelStats") -> "KernelStats":
        out = dataclasses.replace(self)
        return out.merge(other)

    def scaled(self, factor: float) -> "KernelStats":
        """A copy with every additive counter multiplied by ``factor``.

        Used to express "per iteration" ledgers; the hot degree is a maximum
        and is left unscaled.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        out = dataclasses.replace(self)
        for f in fields(out):
            if f.name.startswith("_") or f.name in self._MAX_MERGED:
                continue
            setattr(out, f.name, getattr(out, f.name) * factor)
        return out

    # ----------------------------------------------------------- inspection

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (stable field order), for reports and tests."""
        return {
            f.name: float(getattr(self, f.name))
            for f in fields(self)
            if not f.name.startswith("_")
        }

    def approx_equal(self, other: "KernelStats", *, rtol: float = 1e-9) -> bool:
        """Field-wise closeness test used by predict-vs-simulate checks."""
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            a, b = float(getattr(self, f.name)), float(getattr(other, f.name))
            if abs(a - b) > rtol * max(1.0, abs(a), abs(b)):
                return False
        return True

    def diff(self, other: "KernelStats") -> dict[str, tuple[float, float]]:
        """Fields where the two ledgers disagree — handy in test failures."""
        out: dict[str, tuple[float, float]] = {}
        for name, a in self.as_dict().items():
            b = other.as_dict()[name]
            if a != b:
                out[name] = (a, b)
        return out
