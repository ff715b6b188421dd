"""Pheromone-update strategy interface and shared functional math.

All five Table III/IV variants compute the *same* mathematical update
(paper eqs. 2-4):

* evaporation: ``tau <- (1 - rho) tau`` on every edge,
* deposit: every ant adds ``1/C_k`` to both triangle cells of each edge of
  its tour.

They differ only in the execution strategy — atomics vs scatter-to-gather,
tiling, symmetric thread halving — i.e. in the *ledger* they record.  The
functional arithmetic therefore lives here once (:func:`evaporate_batch`,
:func:`deposit_all_batch`, on a ``(B, n, n)`` stack of which a single
colony is a batch of one), and the test-suite asserts all variants leave
bit-identical pheromone matrices.  Float addition order is fixed: the
deposit sums each cell's deposits in ant-major input order with one
weighted ``bincount`` (``scatter_add`` on huge instances).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.report import StageReport, cached_stage_reports
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import Kernel, LaunchConfig

__all__ = [
    "PheromoneUpdate",
    "evaporate_batch",
    "deposit_all_batch",
]


#: per-colony cell count above which the batched deposit falls back from
#: dense bincount scratch (one float per cell per colony) to np.add.at
_BINCOUNT_CELL_LIMIT = 1 << 22

#: whole-batch counter budget for the single-pass bincount deposit; above
#: this the (bit-identical) per-row bincount loop bounds scratch at n² floats
_BINCOUNT_SCRATCH_LIMIT = 1 << 24


def evaporate_batch(bstate) -> None:
    """In-place evaporation ``tau *= (1 - rho)`` (paper eq. 2) on a
    ``(B, n, n)`` pheromone stack, with a per-row ``(1 - rho)``."""
    # lint: hot-region
    bstate.pheromone *= (1.0 - bstate.rho)[:, None, None]


def deposit_all_batch(bstate, edges: np.ndarray, lengths: np.ndarray) -> None:
    """Symmetric deposit of every ant's ``1/C_k`` (paper eqs. 3-4) over the
    iteration's edge table, in place.

    ``edges`` is the ``(B, m, n)`` ant-major table of global flat indices
    from :func:`~repro.tsp.tour.tour_lengths_batch`.  One weighted
    ``bincount`` sums each directed edge's deposits ``S`` in input order,
    then ``tau += S`` and ``tau += Sᵀ``: the backward deposits into
    ``(j, i)`` are the forward ones into ``(i, j)``, in the same order, so
    ``Sᵀ`` is bit-identical to a backward ``bincount``.  The path taken
    depends only on per-colony quantities, so a row's result is independent
    of how many rows share the batch.  Deposit values live in the ``work``
    arena (keys ``"dep.delta"``, ``"dep.vals"``).
    """
    # lint: hot-region
    bk = bstate.backend
    xp = bk.xp
    n, B = bstate.n, bstate.B
    wb = bstate.work
    m_t = edges.shape[1]
    cells = n * n
    deltas = wb.get("dep.delta", (B, m_t), np.float64)
    xp.divide(1.0, lengths, out=deltas)
    values = wb.get("dep.vals", (B, m_t * n), np.float64)
    values.reshape(B, m_t, n)[...] = deltas[:, :, None]
    tau = bstate.pheromone
    if cells > _BINCOUNT_CELL_LIMIT:
        # Huge instances: scatter_add needs no counter scratch.  This branch
        # keys on the *per-colony* cell count (bincount and scatter_add fold
        # deposits differently in the last ulp), so a row's result never
        # depends on how many rows share the batch.  Forward deposits
        # scatter first, then the backward ones at ``to * n + frm``.
        flat_tau = tau.reshape(-1)
        fw = edges.reshape(-1)
        bk.scatter_add(flat_tau, fw, values.reshape(-1))
        frm, to = xp.divmod(fw % cells, n)
        bk.scatter_add(flat_tau, fw + (to - frm) * (n - 1), values.reshape(-1))
    elif B * cells <= _BINCOUNT_SCRATCH_LIMIT:
        # bincount(..., weights=...) accumulates deposits per cell in input
        # order (the atomic-sum semantics of np.add.at) at a fraction of
        # its cost.
        S = bk.bincount(
            edges.reshape(-1), weights=values.reshape(-1), minlength=B * cells
        ).reshape(B, n, n)
        tau += S
        tau += S.transpose(0, 2, 1)
    else:
        # Whole-batch counter scratch would be excessive: bincount row by
        # row on local indices instead.  Rows are disjoint, so this is
        # bit-identical to the single-pass variant above — the split is
        # purely about memory.
        for b in range(B):
            S = bk.bincount(
                edges[b].reshape(-1) - b * cells, weights=values[b], minlength=cells
            ).reshape(n, n)
            tau[b] += S
            tau[b] += S.T


class PheromoneUpdate(Kernel, abc.ABC):
    """Base class for the Table III/IV pheromone-update kernels.

    Class attributes identify the paper row: ``version`` (1-5), ``key``
    (registry id) and ``label`` (the row label as printed).  ``theta`` is
    the tile size for the tiled variants (the paper's θ).
    """

    version: int = 0
    key: str = ""
    label: str = ""

    def update_batch(
        self, bstate, edges: np.ndarray, lengths: np.ndarray, collect: bool = True
    ) -> list[StageReport]:
        """Apply the update to ``B`` colonies in place; one report per colony.

        ``edges`` is the iteration's ``(B, m, n)`` edge table (see
        :func:`deposit_all_batch`), ``lengths`` the ``(B, m)`` tour lengths.

        The default covers the scatter-to-gather family (versions 3-5),
        whose functional effect is exactly evaporation + deposit and whose
        ledger is closed-form; the atomic strategies override to measure
        per-colony contention.  ``collect=False`` (iterations between
        ``report_every`` boundaries) skips report
        materialization and returns an empty list; the pheromone update
        itself is identical either way.
        """
        evaporate_batch(bstate)
        deposit_all_batch(bstate, edges, lengths)
        if not collect:
            return []

        return cached_stage_reports(
            bstate, self, [None] * bstate.B, "pheromone", self.key,
            lambda _: self.predict_stats(bstate.n, bstate.m, bstate.device),
        )

    @abc.abstractmethod
    def predict_stats(
        self,
        n: int,
        m: int,
        device: DeviceSpec,
        *,
        hot_degree: float = 0.0,
    ) -> tuple[KernelStats, LaunchConfig]:
        """Closed-form ledger + dominant launch shape.

        ``hot_degree`` injects the measured hottest-cell multiplicity for
        the atomic variants (a stochastic quantity).
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} v{self.version} {self.label!r}>"
