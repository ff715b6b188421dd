"""Pheromone-update strategy interface and shared functional math.

All five Table III/IV variants compute the *same* mathematical update
(paper eqs. 2-4):

* evaporation: ``tau <- (1 - rho) tau`` on every edge,
* deposit: every ant adds ``1/C_k`` to both triangle cells of each edge of
  its tour.

They differ only in the execution strategy — atomics vs scatter-to-gather,
tiling, symmetric thread halving — i.e. in the *ledger* they record.  The
functional arithmetic therefore lives here once, and the test-suite asserts
all variants leave bit-identical pheromone matrices (up to float addition
order, which `deposit` makes deterministic by using ``np.add.at``).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.report import StageReport, cached_stage_reports
from repro.core.state import ColonyState
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import Kernel, LaunchConfig

__all__ = [
    "PheromoneUpdate",
    "evaporate",
    "deposit_all",
    "evaporate_batch",
    "deposit_all_batch",
]


#: per-colony cell count above which the batched deposit falls back from
#: dense bincount scratch (one float per cell per colony) to np.add.at
_BINCOUNT_CELL_LIMIT = 1 << 22

#: whole-batch counter budget for the single-pass bincount deposit; above
#: this the (bit-identical) per-row bincount loop bounds scratch at n² floats
_BINCOUNT_SCRATCH_LIMIT = 1 << 24


def evaporate(state: ColonyState) -> None:
    """In-place evaporation ``tau *= (1 - rho)`` (paper eq. 2)."""
    state.pheromone *= 1.0 - state.params.rho


def evaporate_batch(bstate) -> None:
    """Per-colony evaporation on a ``(B, n, n)`` pheromone stack.

    Elementwise multiply with a per-row ``(1 - rho)`` — bit-identical to the
    solo scalar multiply on each row.
    """
    # lint: hot-region
    bstate.pheromone *= (1.0 - bstate.rho)[:, None, None]


def deposit_all(
    state: ColonyState, tours: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric deposit of every ant's ``1/C_k`` (paper eqs. 3-4), in place.

    Returns the flat forward indices, flat backward indices and per-edge
    deposit values so atomic-flavoured strategies can re-use them for
    contention accounting.
    """
    bk = state.backend
    xp = bk.xp
    n = state.n
    frm = tours[:, :-1].astype(np.int64)
    to = tours[:, 1:].astype(np.int64)
    deltas = (1.0 / lengths.astype(np.float64))[:, None]
    values = xp.broadcast_to(deltas, frm.shape).ravel()
    flat_fw = (frm * n + to).ravel()
    flat_bw = (to * n + frm).ravel()
    flat_tau = state.pheromone.reshape(-1)
    bk.scatter_add(flat_tau, flat_fw, values)
    bk.scatter_add(flat_tau, flat_bw, values)
    return flat_fw, flat_bw, values


def deposit_all_batch(
    bstate, tours: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched symmetric deposit over ``(B, m, n + 1)`` tours, in place.

    Rows touch disjoint ``n²`` blocks of the flattened stack, and the code
    path taken depends only on per-colony quantities, so a row's result is
    exactly independent of how many rows share the batch — the invariant
    the engine (and ``AntSystem``, its B = 1 view) is built on.  Note the
    bincount fast path folds each cell's deposit *total* into ``tau`` in
    one add, which can differ in the last ulp from :func:`deposit_all`'s
    per-deposit ``np.add.at`` folding; the two functions are numerically
    equivalent, not bit-identical.

    Returns the per-colony *local* flat forward/backward indices (``(B,
    m * n)``, no batch offset) and the deposit values, for the atomic
    strategies' contention accounting.  Every intermediate (edge
    endpoints, flat indices, per-edge deposit values) lives in the state's
    :class:`~repro.backend.WorkBuffers` arena, reused across iterations —
    the returned arrays are arena views, valid until the next deposit.
    """
    # lint: hot-region
    bk = bstate.backend
    xp = bk.xp
    n, B = bstate.n, bstate.B
    wb = bstate.work
    m_t = tours.shape[1]
    # One int64 cast of the closed tours; endpoints are views into it.
    t64 = wb.get("dep.t64", (B, m_t, n + 1), np.int64)
    t64[...] = tours
    frm = t64[:, :, :-1]
    to = t64[:, :, 1:]
    deltas = wb.get("dep.delta", (B, m_t), np.float64)
    xp.divide(1.0, lengths, out=deltas)
    values = wb.get("dep.vals", (B, m_t * n), np.float64)
    values.reshape(B, m_t, n)[...] = deltas[:, :, None]
    flat_fw = wb.get("dep.fw", (B, m_t * n), np.int64)
    fw3 = flat_fw.reshape(B, m_t, n)
    xp.multiply(frm, n, out=fw3)
    xp.add(fw3, to, out=fw3)
    flat_bw = wb.get("dep.bw", (B, m_t * n), np.int64)
    bw3 = flat_bw.reshape(B, m_t, n)
    xp.multiply(to, n, out=bw3)
    xp.add(bw3, frm, out=bw3)
    offsets = wb.cached(
        f"dep.offsets.{B}x{n}",
        lambda: (xp.arange(B, dtype=np.int64) * (n * n))[:, None],
    )
    gbuf = wb.get("dep.gidx", (B, m_t * n), np.int64)

    def _global(local):
        xp.add(local, offsets, out=gbuf)
        return gbuf.reshape(-1)

    flat_tau = bstate.pheromone.reshape(-1)
    if n * n > _BINCOUNT_CELL_LIMIT:
        # Huge instances: scatter_add needs no counter scratch.  This branch
        # keys on the *per-colony* cell count (bincount and scatter_add fold
        # deposits differently in the last ulp), so a row's result never
        # depends on how many rows share the batch.
        bk.scatter_add(flat_tau, _global(flat_fw), values.reshape(-1))
        bk.scatter_add(flat_tau, _global(flat_bw), values.reshape(-1))
    elif B * n * n <= _BINCOUNT_SCRATCH_LIMIT:
        # bincount(..., weights=...) accumulates deposits per cell in input
        # order (the atomic-sum semantics of np.add.at) at a fraction of
        # its cost, then one vector add folds each direction into the
        # stack.
        vals = xp.ascontiguousarray(values.reshape(-1))
        flat_tau += bk.bincount(
            _global(flat_fw), weights=vals, minlength=flat_tau.size
        )
        flat_tau += bk.bincount(
            _global(flat_bw), weights=vals, minlength=flat_tau.size
        )
    else:
        # Whole-batch counter scratch would be excessive: bincount row by
        # row instead.  Rows are disjoint, so this is bit-identical to the
        # single-pass variant above — the split is purely about memory.
        for b in range(B):
            row_tau = bstate.pheromone[b].reshape(-1)
            row_vals = xp.ascontiguousarray(values[b])
            row_tau += bk.bincount(
                flat_fw[b], weights=row_vals, minlength=row_tau.size
            )
            row_tau += bk.bincount(
                flat_bw[b], weights=row_vals, minlength=row_tau.size
            )
    return flat_fw, flat_bw, values


class PheromoneUpdate(Kernel, abc.ABC):
    """Base class for the Table III/IV pheromone-update kernels.

    Class attributes identify the paper row: ``version`` (1-5), ``key``
    (registry id) and ``label`` (the row label as printed).  ``theta`` is
    the tile size for the tiled variants (the paper's θ).
    """

    version: int = 0
    key: str = ""
    label: str = ""

    @abc.abstractmethod
    def update(
        self, state: ColonyState, tours: np.ndarray, lengths: np.ndarray
    ) -> StageReport:
        """Apply the update in place, returning the stage report."""

    def update_batch(
        self, bstate, tours: np.ndarray, lengths: np.ndarray, collect: bool = True
    ) -> list[StageReport]:
        """Apply the update to ``B`` colonies in place; one report per colony.

        The default covers the scatter-to-gather family (versions 3-5),
        whose functional effect is exactly evaporation + deposit and whose
        ledger is closed-form; the atomic strategies override to measure
        per-colony contention.  ``collect=False`` (iterations between
        ``report_every`` boundaries) skips report
        materialization and returns an empty list; the pheromone update
        itself is identical either way.
        """
        evaporate_batch(bstate)
        deposit_all_batch(bstate, tours, lengths)
        if not collect:
            return []

        def build(_) -> StageReport:
            stats, launch = self.predict_stats(bstate.n, bstate.m, bstate.device)
            return StageReport(
                stage="pheromone", kernel=self.key, stats=stats, launch=launch
            )

        return cached_stage_reports(bstate, self, [None] * bstate.B, build)

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
