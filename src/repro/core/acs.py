"""Ant Colony System (ACS) — the paper's named future-work variant.

The conclusions promise: "We will also implement other ACO algorithms, such
as the Ant Colony System, which can also be efficiently implemented on the
GPU."  Since the variant redesign, ACS runs on the batched
:class:`~repro.core.batch.BatchEngine` through the pluggable
:class:`~repro.core.variant.VariantStrategy` seams: the
pseudo-random-proportional choice policy (greedy with probability ``q0``
plus per-step local evaporation toward ``tau0``) and the global-best-only
update policy.  That puts ACS on every fast path the Ant System has —
replica batching, parameter sweeps, array backends, the device-resident
``report_every=K`` loop and the micro-batching solve service.

:class:`AntColonySystem` here is the ``B = 1`` view of the engine, built
on the same :class:`~repro.core.colony.EngineView` base as
:class:`~repro.core.colony.AntSystem`.  What the pre-redesign solo loop
computed is kept as recorded trajectories
(``tests/property/data/solo_golden.json``) the engine is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.colony import EngineView, RunResult
from repro.core.params import ACOParams
from repro.core.variant import ACSParams
from repro.simt.device import TESLA_M2050, DeviceSpec
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import validate_tour

__all__ = ["ACSParams", "AntColonySystem", "ACSRunResult"]


@dataclass
class ACSRunResult:
    """Summary of an ACS run."""

    best_tour: np.ndarray
    best_length: int
    iteration_best_lengths: list[int]
    wall_seconds: float


class AntColonySystem(EngineView):
    """GPU-simulated ACS for the symmetric TSP — the engine's B=1 ACS view.

    Parameters
    ----------
    instance:
        TSP instance.
    params:
        Base AS parameters (alpha is conventionally 1 in ACS; rho is the
        global-update strength).
    acs:
        The ACS-specific knobs (q0, xi).
    device:
        Simulated device for the cost ledgers.
    backend:
        Array backend the iteration kernels execute on — a name
        (``"numpy"``, ``"cupy"``), an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` to
        resolve ``ACO_BACKEND`` / the numpy default.

    Examples
    --------
    >>> from repro.tsp import uniform_instance
    >>> acs = AntColonySystem(uniform_instance(30, seed=2))
    >>> res = acs.run(iterations=5)
    >>> res.best_length > 0
    True
    """

    name = "acs"

    def __init__(
        self,
        instance: TSPInstance,
        params: ACOParams | None = None,
        acs: ACSParams | None = None,
        device: DeviceSpec = TESLA_M2050,
        backend=None,
    ) -> None:
        self.acs = acs or ACSParams()
        super().__init__(
            instance,
            params,
            device,
            backend,
            variant="acs",
            variant_options={"acs": self.acs},
        )
        #: the ACS trail floor ``1 / (n * C_nn)`` (local updates decay
        #: toward it; the pheromone stack starts there)
        self.tau0 = float(
            self.backend.to_host(self.engine.variant.choice.tau0)[0]
        )

    def _wrap(self, row: RunResult, wall_seconds: float) -> ACSRunResult:
        return ACSRunResult(
            best_tour=row.best_tour,
            best_length=row.best_length,
            iteration_best_lengths=row.iteration_best_lengths,
            wall_seconds=wall_seconds,
        )

    # ------------------------------------------------------------ iteration

    def run_iteration(self) -> tuple[int, list]:
        """One ACS iteration; returns (iteration best length, stage reports)."""
        report = self._step()
        return int(report.lengths.min()), report.stages

    def run(self, iterations: int, report_every: int = 1) -> ACSRunResult:
        """Run several ACS iterations, tracking the best tour.

        ``report_every=K`` runs the engine's device-resident loop with
        host transfers only at K-boundaries, bit-identical results
        for every K.  Ctrl-C raises
        :class:`~repro.errors.RunInterrupted` carrying the best-so-far
        :class:`ACSRunResult` (bare ``KeyboardInterrupt`` when nothing
        completed).
        """
        result = self._run(iterations, report_every)
        validate_tour(result.best_tour, self.state.n)
        return result
