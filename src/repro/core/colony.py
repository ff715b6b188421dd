"""The :class:`AntSystem` colony: composition root of the GPU simulation.

An ``AntSystem`` wires together a TSP instance, the AS parameters, a target
device, one of the eight tour-construction strategies and one of the five
pheromone-update strategies, and runs iterations:

1. (if the construction strategy uses it) the **Choice kernel** refreshes
   ``choice_info = tau^alpha * eta^beta``;
2. the **construction** strategy builds one tour per ant;
3. tour lengths are evaluated;
4. the **pheromone** strategy evaporates and deposits.

Each stage yields a :class:`~repro.core.report.StageReport`; modeled kernel
times come from the calibrated cost model (or an explicit
:class:`~repro.simt.timing.CostParams`).

Execution-wise, ``AntSystem`` is the ``B = 1`` view of the batched
multi-colony engine (:class:`~repro.core.batch.BatchEngine`): every
iteration runs through the same vectorized kernels a B-colony batch uses,
so the solo path and the batched path can never drift apart numerically.
The view machinery — engine build, state-view sync, one step and the run
body with its Ctrl-C re-wrap — is :class:`EngineView`, which the ACS and
MMAS views share; each view adds only its result type.

Examples
--------
>>> from repro.tsp import uniform_instance
>>> from repro.core import AntSystem
>>> colony = AntSystem(uniform_instance(40, seed=1), construction=7, pheromone=1)
>>> result = colony.run(iterations=3)
>>> result.best_length > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchEngine
from repro.core.construction import TourConstruction
from repro.core.params import ACOParams
from repro.core.pheromone import PheromoneUpdate
from repro.core.report import IterationReport
from repro.errors import RunInterrupted
from repro.simt.device import TESLA_M2050, DeviceSpec
from repro.simt.timing import CostParams
from repro.tsp.instance import TSPInstance

__all__ = ["AntSystem", "EngineView", "RunResult"]


@dataclass
class RunResult:
    """Summary of an :meth:`AntSystem.run` call.

    ``wall_seconds`` is this colony's **share** of the run that
    produced it: for a solo run it is the true wall-clock, but for a row of
    a :class:`~repro.core.batch.BatchEngine` run it is ``batch wall / B``
    (the per-colony cost the row effectively paid inside the batch).
    Summing shares across different batches under-reports real elapsed
    time; throughput accounting must use the batch-level
    :attr:`~repro.core.batch.BatchRunResult.wall_seconds` instead.

    ``reports`` holds one :class:`~repro.core.report.IterationReport` per
    report boundary with its iteration, lengths, stage records and 2-opt
    counters, but no tours (``tours is None``): a run's memory stays flat
    in its length.  Per-iteration tours come from ``run_iteration()``, and
    a run's best-so-far tours from the ``on_boundary`` hook.
    """

    best_tour: np.ndarray
    best_length: int
    iteration_best_lengths: list[int]
    reports: list[IterationReport]
    wall_seconds: float
    device: DeviceSpec

    def mean_stage_time(self, stage: str, params: CostParams) -> float:
        """Mean modeled seconds per iteration of one stage family."""
        if not self.reports:
            return 0.0
        total = 0.0
        for rep in self.reports:
            total += sum(
                s.modeled_time(self.device, params)
                for s in rep.stages
                if s.stage == stage
            )
        return total / len(self.reports)

    def mean_iteration_time(self, params: CostParams) -> float:
        """Mean modeled seconds per full iteration."""
        if not self.reports:
            return 0.0
        return sum(r.total_time(self.device, params) for r in self.reports) / len(
            self.reports
        )


class EngineView:
    """The ``B = 1`` view of a :class:`~repro.core.batch.BatchEngine`.

    Owns the engine, the row-0 :attr:`state` view kept in sync with it,
    one engine step and the one run body every variant view
    (:class:`AntSystem`, :class:`~repro.core.acs.AntColonySystem`,
    :class:`~repro.core.mmas.MaxMinAntSystem`) shares.  A view supplies
    only :meth:`_wrap`, turning the engine's row result into its own
    result type.
    """

    #: variant key (``"as"``, ``"acs"``, ``"mmas"``)
    name: str

    def __init__(
        self,
        instance: TSPInstance,
        params: ACOParams | None,
        device: DeviceSpec,
        backend,
        **engine_options,
    ) -> None:
        self.params = params or ACOParams()
        self.device = device
        self.engine = BatchEngine(
            instance, self.params, device=device, backend=backend, **engine_options
        )
        self.backend = self.engine.backend
        self.state = self.engine.state.colony_view(0)

    def _sync_view(self) -> None:
        """Mirror the batch row's per-iteration outputs into ``self.state``."""
        self.engine.state.sync_colony_view(self.state)

    def _step(self) -> IterationReport:
        """One engine iteration; returns the row's report."""
        report = self.engine.run_iteration()[0]
        self._sync_view()
        return report

    def _wrap(self, row: RunResult, wall_seconds: float):
        """The view's result built from the engine's row-0 result."""
        raise NotImplementedError

    def _run(
        self,
        iterations: int,
        report_every: int,
        on_boundary=None,
        target_length: int | None = None,
    ):
        """Run the engine and wrap row 0 into the view's result.

        Ctrl-C raises :class:`~repro.errors.RunInterrupted` carrying the
        best-so-far result in the view's own type (bare
        ``KeyboardInterrupt`` when nothing completed).  The state view is
        synced however the run ends.
        """
        try:
            batch = self.engine.run(iterations, report_every, on_boundary, target_length)
        except RunInterrupted as exc:
            partial = self._wrap(exc.partial.results[0], exc.partial.wall_seconds)
            raise RunInterrupted(
                partial, f"{self.name.upper()} run interrupted"
            ) from None
        finally:
            self._sync_view()
        return self._wrap(batch.results[0], batch.wall_seconds)


class AntSystem(EngineView):
    """GPU-simulated Ant System for the symmetric TSP.

    Parameters
    ----------
    instance:
        The TSP instance to solve.
    params:
        AS parameters; defaults to the paper's settings.
    device:
        Simulated GPU (default: Tesla M2050, the newer paper device).
    construction:
        Construction strategy — version number 1-8, registry key, or
        instance (see :func:`repro.core.construction.make_construction`).
        Default 8, the paper's best data-parallel kernel.
    pheromone:
        Pheromone strategy — version 1-5, key, or instance.  Default 1,
        the paper's best (atomics + shared memory).
    construction_options / pheromone_options:
        Extra constructor arguments for the strategies (e.g. ``tile=512``,
        ``theta=128``).
    backend:
        Array backend executing the iteration kernels — a name
        (``"numpy"``, ``"cupy"``), an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` to
        resolve ``ACO_BACKEND`` / the numpy default.
    """

    name = "as"

    def __init__(
        self,
        instance: TSPInstance,
        params: ACOParams | None = None,
        device: DeviceSpec = TESLA_M2050,
        construction: int | str | TourConstruction = 8,
        pheromone: int | str | PheromoneUpdate = 1,
        construction_options: dict | None = None,
        pheromone_options: dict | None = None,
        backend=None,
    ) -> None:
        super().__init__(
            instance,
            params,
            device,
            backend,
            construction=construction,
            pheromone=pheromone,
            construction_options=construction_options,
            pheromone_options=pheromone_options,
        )
        self.construction = self.engine.construction
        self.pheromone = self.engine.pheromone
        self.work = self.engine.work
        self.choice_kernel = self.engine.choice_kernel
        self.rng = self.engine.rng

    def _wrap(self, row: RunResult, wall_seconds: float) -> RunResult:
        return row  # B = 1: the row's wall share is the whole wall

    # ------------------------------------------------------------ iteration

    def run_iteration(self) -> IterationReport:
        """Execute one full AS iteration on the simulated device."""
        return self._step()

    def run(
        self,
        iterations: int,
        report_every: int = 1,
        on_boundary=None,
        target_length: int | None = None,
    ) -> RunResult:
        """Run several iterations, tracking the best tour found.

        ``report_every=K`` keeps the device-resident loop going: host
        transfers and :class:`~repro.core.report.IterationReport`
        materialization happen only every K-th iteration (and at the last),
        with the best-so-far record folded on the backend in between.  Best
        tour/length, per-iteration best lengths and the final pheromone are
        bit-identical for every K; only ``reports`` thins to boundary
        iterations.

        ``on_boundary`` / ``target_length`` are the B=1 views of the engine
        hooks (see :meth:`~repro.core.batch.BatchEngine.run`): the callback
        observes a :class:`~repro.core.batch.BoundaryUpdate` at every
        K-boundary and may return ``True`` to stop; ``target_length`` stops
        at the first boundary whose best is at or below it.  Ctrl-C raises
        :class:`~repro.errors.RunInterrupted` carrying the best-so-far
        :class:`RunResult`.
        """
        return self._run(iterations, report_every, on_boundary, target_length)

    # -------------------------------------------------------------- costing

    def cost_params(self) -> CostParams:
        """The calibrated cost constants for this colony's device."""
        from repro.experiments.calibration import gpu_cost_params

        return gpu_cost_params(self.device)
