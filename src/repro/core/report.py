"""Stage and iteration reports: what ran, what it did, what it would cost.

Every strategy returns a :class:`StageReport` per simulated GPU stage; the
colony aggregates them into an :class:`IterationReport`.  Reports separate
*facts* (the stats ledger, the launch shape) from *costing* (seconds under a
:class:`~repro.simt.timing.CostParams`), so one simulated run can be priced
for both paper devices.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig
from repro.simt.timing import CostParams, estimate_time

__all__ = ["StageReport", "IterationReport", "cached_stage_reports"]


#: distinct reports one engine keeps (least recently used out): kernels
#: whose keys differ per boundary (nn-list fallback counts, atomic hot
#: degrees) would otherwise grow the cache for the whole run
STAGE_REPORT_CACHE_SIZE = 64


def cached_stage_reports(
    bstate, kernel, keys, stage: str, name: str, predict
) -> list["StageReport"]:
    """Per-colony ``stage`` reports of ``kernel`` (reported as ``name``),
    one per *distinct* key, shared for the engine's lifetime.

    ``predict(key)`` returns the ``(stats, launch)`` ledger for that key.
    A ledger is a pure function of the kernel, the problem size ``(n, m,
    nn)``, the device and the key (fallback steps, hot degree; ``None`` for
    a kernel whose ledger has no measured input), and nothing mutates a
    report downstream, so rows and report boundaries with equal keys share
    one instance.  The cache lives in the engine's work arena, bounded by
    :data:`STAGE_REPORT_CACHE_SIZE`.
    """
    cache = bstate.work.cached("stage_reports", OrderedDict)
    base = (kernel, bstate.n, bstate.m, bstate.nn, bstate.device)
    reports = []
    for key in keys:
        full = base + (key,)
        report = cache.get(full)
        if report is None:
            stats, launch = predict(key)
            report = cache[full] = StageReport(
                stage=stage, kernel=name, stats=stats, launch=launch
            )
            if len(cache) > STAGE_REPORT_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(full)
        reports.append(report)
    return reports


@dataclass
class StageReport:
    """One simulated kernel stage (e.g. "tour construction, version 7").

    Attributes
    ----------
    stage:
        Stage family: ``"choice" | "construction" | "pheromone"``.
    kernel:
        Kernel/strategy name.
    stats:
        Work ledger (merged over the stage's launches).
    launch:
        The dominant launch shape (used for the occupancy derate).
    """

    stage: str
    kernel: str
    stats: KernelStats
    launch: LaunchConfig

    def effective_parallelism(self, device: DeviceSpec) -> float:
        return self.launch.occupancy(device).effective_parallelism

    def modeled_time(self, device: DeviceSpec, params: CostParams) -> float:
        """Estimated seconds of this stage on ``device`` under ``params``."""
        return estimate_time(
            self.stats,
            device,
            params,
            effective_parallelism=self.effective_parallelism(device),
        )


@dataclass
class IterationReport:
    """What one colony iteration produced: its tour lengths, stage records
    and 2-opt counters.

    ``tours`` is set only on the reports ``run_iteration()`` returns.  The
    reports a :class:`~repro.core.colony.RunResult` keeps leave it
    ``None``, so a run's memory does not grow with its length; a run's
    tours reach callers through ``on_boundary`` (best-so-far) or
    one-step ``run_iteration()`` calls.
    """

    iteration: int
    lengths: np.ndarray
    stages: list[StageReport] = field(default_factory=list)
    #: 2-opt exchanges applied to this row at this report boundary (0 when
    #: the engine runs without local search)
    ls_exchanges: int = 0
    #: total tour-length gain those exchanges bought
    ls_gain: int = 0
    #: ``(m, n + 1)`` closed tours of this iteration (``run_iteration()``
    #: reports only)
    tours: np.ndarray | None = None

    @property
    def best_length(self) -> int:
        return int(self.lengths.min())

    def stage(self, name: str) -> StageReport:
        """Look up a stage by family name; raises ``KeyError`` when absent."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(f"no stage {name!r} in iteration report; have "
                       f"{[s.stage for s in self.stages]}")

    def total_time(self, device: DeviceSpec, params: CostParams) -> float:
        return sum(s.modeled_time(device, params) for s in self.stages)
