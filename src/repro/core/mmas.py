"""MAX-MIN Ant System (MMAS) — the variant behind the paper's related work.

Jiening et al. (cited in Section III) GPU-ported the *Max-Min Ant System*;
since the variant redesign this module supplies that algorithm on the
batched :class:`~repro.core.batch.BatchEngine`: MMAS reuses the paper's
tour-construction kernels unchanged (it differs from AS only in trail
management) through the roulette choice policy, and swaps the deposit-all
pheromone stage for the trail-limits update policy
(:class:`~repro.core.variant.TrailLimitsUpdate`) — best-only deposit on a
best-so-far schedule, ``[tau_min, tau_max]`` clamping that follows the
best-so-far length, optimistic initialisation at ``tau_max`` and optional
branching-factor stagnation reinitialisation.  All of it batched over B
colonies, backend-resident and safe inside the device-resident K-loop.

:class:`MaxMinAntSystem` here is the ``B = 1`` view of the engine, built
on the same :class:`~repro.core.colony.EngineView` base as
:class:`~repro.core.colony.AntSystem`.  What the pre-redesign solo loop
computed is kept as recorded trajectories
(``tests/property/data/solo_golden.json``) the engine is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.colony import EngineView, RunResult
from repro.core.construction import TourConstruction
from repro.core.params import ACOParams
from repro.core.variant import MMASParams, TrailLimitsUpdate
from repro.simt.device import TESLA_M2050, DeviceSpec
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import validate_tour

__all__ = ["MMASParams", "MaxMinAntSystem", "MMASRunResult"]


@dataclass
class MMASRunResult:
    """Summary of a MMAS run."""

    best_tour: np.ndarray
    best_length: int
    iteration_best_lengths: list[int]
    wall_seconds: float
    trail_reinitialisations: int = 0


class MaxMinAntSystem(EngineView):
    """GPU-simulated MAX-MIN Ant System — the engine's B=1 MMAS view.

    Parameters
    ----------
    instance:
        TSP instance.
    params:
        Base parameters (MMAS classically uses a lower rho, e.g. 0.2, but
        the default AS settings work).
    mmas:
        MMAS schedule/limit knobs.
    construction:
        Any of the paper's construction kernels (version 1-8, key, or
        instance); default 8.
    device:
        Simulated device.
    backend:
        Array backend the iteration kernels execute on — a name
        (``"numpy"``, ``"cupy"``), an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` to
        resolve ``ACO_BACKEND`` / the numpy default.

    Examples
    --------
    >>> from repro.tsp import uniform_instance
    >>> mmas = MaxMinAntSystem(uniform_instance(30, seed=4))
    >>> res = mmas.run(iterations=5)
    >>> res.best_length > 0
    True
    """

    name = "mmas"

    def __init__(
        self,
        instance: TSPInstance,
        params: ACOParams | None = None,
        mmas: MMASParams | None = None,
        construction: int | str | TourConstruction = 8,
        device: DeviceSpec = TESLA_M2050,
        backend=None,
    ) -> None:
        self.mmas = mmas or MMASParams()
        super().__init__(
            instance,
            params,
            device,
            backend,
            construction=construction,
            variant="mmas",
            variant_options={"mmas": self.mmas},
        )
        self.construction = self.engine.construction

    # -------------------------------------------------------------- limits

    @property
    def _policy(self) -> TrailLimitsUpdate:
        policy = self.engine.variant.update
        assert isinstance(policy, TrailLimitsUpdate)
        return policy

    @property
    def tau_max(self) -> float:
        """Current trail ceiling ``1 / (rho * C_best)``."""
        return float(self.backend.to_host(self._policy.tau_max)[0])

    @property
    def tau_min(self) -> float:
        """Current trail floor ``tau_max / (divisor * n)``."""
        return float(self.backend.to_host(self._policy.tau_min)[0])

    @property
    def trail_reinitialisations(self) -> int:
        assert self._policy.reinit_count is not None
        return int(self.backend.to_host(self._policy.reinit_count)[0])

    def _wrap(self, row: RunResult, wall_seconds: float) -> MMASRunResult:
        return MMASRunResult(
            best_tour=row.best_tour,
            best_length=row.best_length,
            iteration_best_lengths=row.iteration_best_lengths,
            wall_seconds=wall_seconds,
            trail_reinitialisations=self.trail_reinitialisations,
        )

    # ------------------------------------------------------------ iteration

    def run_iteration(self) -> tuple[int, list]:
        """One MMAS iteration; returns (iteration best, stage reports)."""
        report = self._step()
        return int(report.lengths.min()), report.stages

    def run(
        self,
        iterations: int,
        report_every: int = 1,
        *,
        reinit_branching: float | None = None,
    ) -> MMASRunResult:
        """Run MMAS; optionally reinitialise trails when the branching
        factor falls below ``reinit_branching`` (e.g. 2.05).

        ``report_every=K`` runs the engine's device-resident loop with
        host transfers only at K-boundaries — bit-identical results for
        every K.  Ctrl-C raises
        :class:`~repro.errors.RunInterrupted` carrying the best-so-far
        :class:`MMASRunResult` (bare ``KeyboardInterrupt`` when nothing
        completed).
        """
        # Threshold scoped to this call (the reference loop only
        # reinitialises inside run()): restore it afterwards so later
        # manual run_iteration() stepping never silently resets trails.
        previous_reinit = self._policy.reinit_branching
        self._policy.reinit_branching = reinit_branching
        try:
            result = self._run(iterations, report_every)
        finally:
            self._policy.reinit_branching = previous_reinit
        validate_tour(result.best_tour, self.state.n)
        return result
