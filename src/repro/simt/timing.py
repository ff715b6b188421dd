"""The analytical cost model: stats ledger × device → estimated seconds.

The model is a classical bounded-throughput estimate in the spirit of
roofline analysis, specialised to what the paper's kernels exercise:

``time = launches × t_launch
       + max(compute, dram, shared)          # overlapped pipelines
       + atomics                             # serialising tail
       + serial_barriers × t_barrier``       # per-step latency chains

* **compute** — instruction classes weighted by cycles-per-instruction,
  divided by the device's peak issue rate, derated by occupancy (latency
  hiding needs enough resident warps) and an issue-efficiency fudge.
* **dram** — post-coalescing traffic (see :mod:`repro.simt.memory`), after
  removing the estimated cache-hit fraction (0 on the C1060, which has no
  L1; substantial on Fermi), divided by derated peak bandwidth.
* **shared** — 32-bit accesses against the aggregate shared-memory
  throughput (banks × clock × SMs).
* **atomics** — effective per-op cost; float atomics on CC < 2.0 pay the
  CAS-emulation factor (the paper's Figure 5 story), and the hottest cell
  contributes a serialisation term.

All constants live in :class:`CostParams`.  Physics-flavoured defaults are
given here; the values actually used for the paper reproduction are fitted
once against the paper's own tables (`repro.experiments.calibrate`) and
recorded in `repro.experiments.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.memory import TRAFFIC_MULTIPLIER, AccessPattern

__all__ = ["CostParams", "estimate_time", "throughput_throttle"]

#: cost multiplier for a CAS-emulated float atomic relative to native (a
#: CC 1.x device has no float ``atomicAdd``): the CAS loop retries under
#: contention; 1 CAS + 1 read + loop overhead.
EMULATION_COST_FACTOR = 4.0


@dataclass(frozen=True)
class CostParams:
    """Calibratable constants of the kernel cost model.

    Attributes
    ----------
    cpi_flop / cpi_int / cpi_special:
        Cycles per instruction for the three instruction classes.
    cycles_rng_lcg / cycles_rng_curand:
        Cycles per random sample for the device-function LCG and the
        CURAND-style XORWOW engine (state load/store included — this gap is
        Table II's version-3 effect).
    issue_efficiency:
        Fraction of peak issue rate a real kernel sustains.
    mem_efficiency:
        Fraction of peak DRAM bandwidth sustained by streaming accesses.
    random_derate:
        Additional throughput derate applied to the RANDOM access bucket's
        traffic (DRAM row misses and partition camping on data-dependent
        gathers); 1.0 means random traffic streams at full efficiency.
    cache_hit_fraction:
        Fraction of post-coalescing traffic served by on-chip caches
        (0 for CC 1.x; Fermi's L1/L2 make scatter-gather far cheaper).
    tex_hit_fraction:
        Texture-cache hit rate for the spatially local streams the paper
        routes through textures.
    smem_words_per_cycle_per_sm:
        Shared-memory throughput (32-bit words/cycle/SM) — 16 banks on
        CC 1.3, 32 on Fermi.
    atomic_ns:
        Effective cost of one native atomic RMW, nanoseconds (aggregate
        device throughput view).
    atomic_hot_latency_ns:
        Additional serialisation per update on the hottest cell.
    launch_overhead_s:
        Host-side cost of one kernel launch.
    barrier_latency_s:
        Latency of one barrier generation on the critical path.
    divergence_penalty_cycles:
        Extra cycles charged per divergent branch execution (a split warp
        replays both paths).
    compute_occ_knee / memory_occ_knee:
        Occupancy below which compute / memory throughput degrades linearly.
    """

    cpi_flop: float = 1.0
    cpi_int: float = 1.0
    cpi_special: float = 8.0
    cycles_rng_lcg: float = 12.0
    cycles_rng_curand: float = 40.0
    issue_efficiency: float = 0.7
    mem_efficiency: float = 0.45
    random_derate: float = 2.0
    cache_hit_fraction: float = 0.0
    tex_hit_fraction: float = 0.9
    smem_words_per_cycle_per_sm: float = 16.0
    atomic_ns: float = 4.0
    atomic_hot_latency_ns: float = 40.0
    launch_overhead_s: float = 40e-6
    barrier_latency_s: float = 2.0e-6
    divergence_penalty_cycles: float = 16.0
    compute_occ_knee: float = 0.25
    memory_occ_knee: float = 0.5

    def with_overrides(self, **kw: float) -> "CostParams":
        """A copy with selected constants replaced (used by calibration)."""
        return replace(self, **kw)


def throughput_throttle(effective_parallelism: float, knee: float) -> float:
    """Throughput derate under low occupancy.

    At or above the knee the device streams at full (derated) throughput;
    below it, achievable throughput falls linearly — too few resident warps
    to hide latency.  Clamped to [1/64, 1].
    """
    if knee <= 0:
        raise ValueError(f"knee must be positive, got {knee}")
    frac = max(0.0, min(1.0, effective_parallelism))
    return max(1.0 / 64.0, min(1.0, frac / knee))


def estimate_time(
    stats: KernelStats,
    device: DeviceSpec,
    params: CostParams,
    *,
    effective_parallelism: float = 1.0,
) -> float:
    """Estimated seconds for the work in ``stats`` on ``device``.

    Parameters
    ----------
    stats:
        Work ledger (possibly merged over several launches of one stage).
    device:
        Target device.
    params:
        Cost constants (typically the calibrated set for ``device``).
    effective_parallelism:
        Occupancy × grid-fill of the dominant launch shape, from
        :class:`repro.simt.occupancy.Occupancy`.
    """
    # --- compute pipe ------------------------------------------------------
    cycles = (
        stats.flops * params.cpi_flop
        + stats.int_ops * params.cpi_int
        + stats.special_ops * params.cpi_special
        + stats.rng_lcg * params.cycles_rng_lcg
        + stats.rng_curand * params.cycles_rng_curand
        + stats.divergent_branches * params.divergence_penalty_cycles
    )
    compute_rate = (
        device.peak_ips
        * params.issue_efficiency
        * throughput_throttle(effective_parallelism, params.compute_occ_knee)
    )
    compute_s = cycles / compute_rate

    # --- DRAM pipe ----------------------------------------------------------
    cache_hit = params.cache_hit_fraction if device.has_l1_cache else 0.0
    traffic = (
        stats.gmem_coalesced_bytes * TRAFFIC_MULTIPLIER[AccessPattern.COALESCED]
        + stats.gmem_broadcast_bytes * TRAFFIC_MULTIPLIER[AccessPattern.BROADCAST]
        + stats.gmem_strided_bytes * TRAFFIC_MULTIPLIER[AccessPattern.STRIDED]
        + stats.gmem_random_bytes
        * TRAFFIC_MULTIPLIER[AccessPattern.RANDOM]
        * params.random_derate
    )
    dram_bytes = traffic * (1.0 - cache_hit)
    dram_bytes += stats.tex_bytes * (1.0 - params.tex_hit_fraction)
    mem_rate = (
        device.bandwidth_bytes_s
        * params.mem_efficiency
        * throughput_throttle(effective_parallelism, params.memory_occ_knee)
    )
    mem_s = dram_bytes / mem_rate

    # --- shared-memory pipe ---------------------------------------------------
    smem_rate = (
        params.smem_words_per_cycle_per_sm
        * device.sm_count
        * device.clock_hz
        * throughput_throttle(effective_parallelism, params.compute_occ_knee)
    )
    smem_s = stats.smem_accesses / smem_rate

    # --- atomics -------------------------------------------------------------
    fp_factor = 1.0 if device.has_fp32_global_atomics else EMULATION_COST_FACTOR
    atomic_ops_eff = stats.atomics_int + stats.atomics_fp * fp_factor
    atomic_s = atomic_ops_eff * params.atomic_ns * 1e-9
    atomic_s += stats.atomic_hot_degree * params.atomic_hot_latency_ns * 1e-9

    # --- assembly -------------------------------------------------------------
    time_s = (
        stats.kernel_launches * params.launch_overhead_s
        + max(compute_s, mem_s, smem_s)
        + atomic_s
        + stats.serial_barriers * params.barrier_latency_s
    )
    return float(time_s)
