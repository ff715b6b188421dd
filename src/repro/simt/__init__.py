"""SIMT GPU simulator: functional execution with analytical timing.

This subpackage is the substrate that replaces the paper's CUDA hardware
(see DESIGN.md, "Substitutions").  It has three layers:

1. **Device descriptions** (:mod:`repro.simt.device`): the Tesla C1060 and
   M2050 exactly as the paper's Table I specifies them, including the CC 1.x
   limitation that global float atomics are unavailable.
2. **Accounting** (:mod:`repro.simt.memory`, :mod:`repro.simt.counters`):
   kernels run as vectorised numpy programs and record every
   global/shared/texture access, atomic operation, RNG sample, instruction
   class and synchronisation into a :class:`KernelStats` ledger.
3. **Timing** (:mod:`repro.simt.occupancy`, :mod:`repro.simt.timing`): an
   occupancy calculator plus a cost model that converts a stats ledger and a
   launch configuration into estimated seconds on a given device.

A literal per-thread executor (:mod:`repro.simt.literal`) replays tiny
kernels one simulated thread at a time — generators suspend at barriers —
and is used in the test-suite to cross-validate the vectorised kernels.
"""

from __future__ import annotations

from repro.simt.counters import KernelStats
from repro.simt.device import DEVICES, TESLA_C1060, TESLA_M2050, DeviceSpec
from repro.simt.kernel import Kernel, LaunchConfig
from repro.simt.memory import AccessPattern, GlobalMemory
from repro.simt.occupancy import Occupancy, occupancy_for
from repro.simt.timing import CostParams, estimate_time

__all__ = [
    "DeviceSpec",
    "TESLA_C1060",
    "TESLA_M2050",
    "DEVICES",
    "KernelStats",
    "AccessPattern",
    "GlobalMemory",
    "Kernel",
    "LaunchConfig",
    "Occupancy",
    "occupancy_for",
    "CostParams",
    "estimate_time",
]
