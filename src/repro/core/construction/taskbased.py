"""Task-based tour construction: Table II versions 1-3.

The "traditional" approach ported from the pre-2011 literature: **one CUDA
thread per ant**.  Each thread walks its ant through all ``n - 1``
construction steps, scanning every city at every step and applying the exact
random proportional rule (paper eq. 1).

The three versions differ only in data placement and RNG:

1. **Baseline** — recomputes ``tau^alpha * eta^beta`` for every candidate at
   every step (three scattered global loads and three SFU operations per
   candidate) and draws CURAND randoms.
2. **Choice kernel** — reads the per-iteration ``choice_info`` matrix
   instead (one scattered load per candidate; the Choice kernel's own n²
   cost is accounted separately and included in the stage total, as the
   paper's Table II does).
3. **Without CURAND** — swaps the library generator for the device-function
   LCG (the sequential code's ``ran01``), the paper's reported 10-20 % gain.

All six task-based versions (these three and the candidate-list versions
4-6 in :mod:`~repro.core.construction.nnlist`) share one functional kernel,
:func:`construct_exact_batch`.  Its tabu list is the paper's version-5
"word" layout — one byte per city per ant — and each step masks the
gathered candidate weights with those bytes, counts the roulette pick on
the comparison's bytes (``uint8`` counts below 256 candidates, ``uint16``
from there), and hands an ant whose candidates carry no weight to the
best-unvisited fallback, which the full rule and the candidate lists share.

Modelling notes (see DESIGN.md): the kernels generate one random number per
*candidate* (this is what makes the CURAND-vs-LCG gap as large as Table II
shows; a one-dart-per-step kernel would see a negligible difference), but
functionally a single dart decides each step — the remaining draws are
wasted work, which the ledger charges faithfully.  Warp divergence from the
tabu checks — the paper's stated drawback of task-based parallelism — is
charged on a quarter of candidate evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.backend import WorkBuffers
from repro.core.construction.base import (
    BatchConstructionResult,
    TourConstruction,
    best_unvisited,
)
from repro.rng.streams import DeviceRNG
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = [
    "BaselineTaskConstruction",
    "ChoiceKernelTaskConstruction",
    "DeviceRngTaskConstruction",
    "construct_exact_batch",
]

#: threads per block for the task-based kernels (ants per block)
TASK_BLOCK = 128

#: fraction of candidate evaluations charged as divergent-branch executions
DIVERGENCE_FRACTION = 0.25

#: amortised extra scattered loads per candidate for the roulette walk
WALK_LOADS_PER_CAND = 0.5


def construct_exact_batch(
    choice: np.ndarray,
    nn_list: np.ndarray | None,
    rng: DeviceRNG,
    B: int,
    m: int,
    n: int,
    xp=np,
    *,
    work: WorkBuffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact random-proportional construction for ``B`` colonies in one
    vectorized pass.

    This is the functional semantics shared by all task-based kernels
    (versions 1-6): ants are placed randomly, then each step applies the
    proportional rule over the candidate set — all cities (``nn_list is
    None``) or the nearest-neighbour list.  Either rule falls back to the
    best unvisited ``choice`` when its candidates carry no weight.

    ``choice`` is ``(B, n, n)`` proportional weights (``tau^alpha *
    eta^beta``, zero diagonal, finite and non-negative elsewhere) and
    ``nn_list`` ``(B, n, nn)`` candidate lists or ``None`` (either may be a
    broadcast view with a length-1 batch axis); ``rng`` holds ``B * m``
    streams (or more per colony, of which each colony's leading ``m`` are
    read) laid out colony-major.  The steps draw one dart vector per colony
    per step in lockstep, so row ``b`` of the returned tours and the
    per-colony fallback counts depend only on colony ``b``'s inputs and
    generator, never on how many rows share the batch.

    Returns
    -------
    (tours, fallbacks):
        ``(B, m, n + 1)`` closed ``int32`` tours; ``(B,)`` float counts of
        exhausted-row fallback steps.

    Notes
    -----
    The batch is executed as one flattened mega-colony of ``B * m`` ants
    over a block-diagonal choice structure: ant ``b * m + a`` reads choice
    rows ``b * n + city``.  Every per-step operation then has exactly a
    one-colony 2-D shape (rows = ants), which is both the fastest numpy
    layout and trivially independent row-for-row.

    Each step works on ``(k, B * m)`` tables — ``k`` candidates (``nn``, or
    ``n`` for the full rule) down, ants across — so every pass streams
    along the ant axis:

    * the tabu list is the paper's version-5 "word" layout, one byte per
      city per ant (``1`` while unvisited); the candidates' bytes are
      gathered into a ``uint8`` table and mask the weights by a multiply,
      ``w * 1`` or ``w * 0``;
    * the prefix sums run down the candidate axis in sequential order, so
      an ant's pick never depends on how many ants share the batch;
    * the pick counts ``cum < dart * sum`` on the comparison's bytes, in
      ``uint8`` when ``k < 256`` and ``uint16`` otherwise — exact, since
      the count never exceeds ``k``;
    * the winner is one flat gather and the tabu commit one flat scatter.

    The per-step call budget is the work above and nothing else: one
    ``rng.uniform_block(1, out=row)`` fill (:class:`~repro.rng.BlockedDraws`,
    the darts a ``(B, m)`` view of the row taken once per call), then
    method-form ``take`` / ``sum`` and ufunc calls with positional
    arguments, bound once per call, ``k - 1`` prefix-sum adds, and one
    ``exhausted.any()`` before the fallback's ``flatnonzero``.  Each step
    writes its picks into row ``s`` of a pooled step-major ``(n + 1, M)``
    int32 buffer (the full rule's pick count is copied there, the
    candidate rule's gather lands there); the returned tours are a fresh
    ant-major copy.

    An ant whose candidates carry no weight (``sum <= 0``: every candidate
    visited, or every unvisited weight zero) takes the first maximum of its
    full ``choice`` row over unvisited cities instead (ACOTSP's
    ``choose_best_next``).  Both rules share this fallback and count it.

    ``work`` is the :class:`~repro.backend.WorkBuffers` arena holding all
    per-step scratch and the loop-invariant index tables across
    *iterations*, so a steady-state build allocates only what escapes
    (tours, fallback counts).
    """
    from repro.rng.streams import BlockedDraws

    M = B * m

    def _buf(key: str, shape, dtype):
        return work.get("taskexact." + key, shape, dtype)

    def _const(key: str, builder):
        # Geometry-stamped keys: an arena is per-engine (fixed B, m, n), but
        # a stale constant after a geometry change would be silently wrong,
        # unlike get()'s shape-checked buffers.
        return work.cached(f"taskexact.{key}.{B}x{m}x{n}", builder)

    # All gather indices below are constructed from valid cities/ants, so
    # numpy's bounds check is pure overhead; mode="clip" skips it (measured
    # ~1.7x faster takes).  Only numpy spells the mode (CuPy's take wraps
    # unconditionally).
    clip = ("clip",) if xp is np else ()

    choice_rows = xp.ascontiguousarray(choice).reshape(B * n, n)
    choice_flat = choice_rows.reshape(-1)
    k = n if nn_list is None else nn_list.shape[-1]
    row_off = _const(
        "row_off", lambda: xp.repeat(xp.arange(B, dtype=np.int64) * n, m)
    )  # (M,)
    ant_idx = _const("ant_idx", lambda: xp.arange(M, dtype=np.int64))
    ant_base = _const("ant_base", lambda: xp.arange(M, dtype=np.int64) * n)
    ant_base_t = ant_base[None, :]  # (1, M) tabu row offsets
    # Step-major int32 tours: row s holds every ant's city at step s,
    # written in place by each step's pick (pooled; a fresh copy escapes).
    # The per-step cost is in the (k, M) tables, so the int64 index type
    # would buy nothing here but a buffer twice the size.
    tour_rows = _buf("tour_rows", (n + 1, M), np.int32)
    live = _buf("live", (M, n), np.uint8)
    live[:] = 1
    live_flat = live.reshape(-1)
    live_cols = live.T

    # One colony-major dart vector per step.  With one stream per ant the
    # row already is the flat (M,) layout, larger stream counts slice the
    # leading m streams of every colony block — a view of the draw row,
    # taken once and consumed in the (B, m) shape.
    draws = BlockedDraws(rng, n, work=work, key="taskexact.rng")
    darts = draws.row.reshape(B, -1)[:, :m]

    # Per-step scratch, allocated once per arena: every step writes the same
    # buffers in place (``out=``), which removes the allocator/cache churn
    # that otherwise dominates the per-step cost of these small arrays.
    idx_buf = _buf("idx", (k, M), np.int64)
    w_buf = _buf("w", (k, M), np.float64)
    live_t = _buf("live_t", (k, M), np.uint8)
    cmp_buf = _buf("cmp", (k, M), bool)
    cmp_bytes = cmp_buf.view(np.uint8)
    # A pick count never exceeds k, so the narrowest dtype holding k is exact.
    count_dtype = np.uint8 if k < 256 else np.uint16
    count = _buf("count", (M,), count_dtype)
    rows_idx = _buf("rows_idx", (M,), np.int64)
    win = _buf("win", (M,), np.int64)  # flat winner / tabu-commit indices
    r_buf = _buf("r", (M,), np.float64)
    exhausted = _buf("exhausted", (M,), bool)
    fb_ant = _buf("fb_ant", (M,), np.int64)
    fb_ant[:] = 0
    r2 = r_buf.reshape(B, m)
    r_row = r_buf[None, :]
    # Row views for the sequential prefix sum, built once per call.
    w_rows = list(w_buf)
    acc_rows = list(zip(w_rows[:-1], w_rows[1:]))
    sums = w_rows[-1]
    sums2 = sums.reshape(B, m)

    if nn_list is None:
        col_t = _const(
            "col_t", lambda: xp.arange(n, dtype=np.int64)[:, None]
        )  # (n, 1) full-rule columns
        row_base = _buf("row_base", (M,), np.int64)
        row_base_t = row_base[None, :]
    else:
        # Candidate lists are engine-constant: the transposed copy (so the
        # per-step gather lands directly in the (candidates, ants) roulette
        # layout) is derived once per engine, not once per iteration.
        nn_cols = _const(
            "nn_cols",
            lambda: xp.ascontiguousarray(
                xp.ascontiguousarray(nn_list).reshape(B * n, -1).T.astype(np.int64)
            ),
        )
        # Candidate choice values are static for the whole build: gather the
        # (candidate, row) weight table once instead of once per step.  The
        # gather *indices* are engine-constant; the gathered values track
        # this iteration's choice matrix, so only the index table is cached.
        cc_idx = _const(
            "cc_idx",
            lambda: xp.ascontiguousarray(
                (
                    (xp.arange(B * n, dtype=np.int64) * n)[:, None]
                    + xp.ascontiguousarray(nn_list).reshape(B * n, -1)
                ).T
            ),
        )
        cand_choice_t = choice_flat.take(
            cc_idx, None, _buf("cand_choice_t", (k, B * n), np.float64), *clip
        )  # (nn, B * n)
        cand_t = _buf("cand", (k, M), np.int64)
        cand_flat = cand_t.reshape(-1)

    # The step's operations, bound once per call and called in method or
    # ufunc form with positional arguments.
    add, multiply, less, minimum = xp.add, xp.multiply, xp.less, xp.minimum
    take_choice = choice_flat.take
    count_picks = cmp_bytes.sum

    draws.next()
    start = xp.minimum((darts * n).astype(np.int64), n - 1).reshape(M)
    tour_rows[0] = start
    add(ant_base, start, win)
    live_flat[win] = 0
    cur = tour_rows[0]

    for nxt, _ in zip(tour_rows[1:n], draws.steps):
        add(row_off, cur, rows_idx)
        if nn_list is None:
            multiply(rows_idx, n, row_base)
            add(col_t, row_base_t, idx_buf)
            take_choice(idx_buf, None, w_buf, *clip)
            xp.copyto(live_t, live_cols)
        else:
            nn_cols.take(rows_idx, 1, cand_t, *clip)
            add(ant_base_t, cand_t, idx_buf)
            live_flat.take(idx_buf, None, live_t, *clip)
            cand_choice_t.take(rows_idx, 1, w_buf, *clip)
        multiply(w_buf, live_t, w_buf)
        for prev, row in acc_rows:
            add(prev, row, row)
        # darts is a (B, m) view of the draw row; multiplying in that shape
        # (r2 views r_buf) avoids flattening-copies entirely.
        multiply(darts, sums2, r2)
        less(w_buf, r_row, cmp_buf)
        count_picks(0, count_dtype, count)
        minimum(count, k - 1, out=count)
        if nn_list is None:
            xp.copyto(nxt, count)
        else:
            multiply(count, M, win, dtype=np.int64)
            add(win, ant_idx, win)
            cand_flat.take(win, None, nxt, *clip)
        xp.less_equal(sums, 0.0, out=exhausted)
        if exhausted.any():
            # Exhausted rows: the best-choice full-row fallback (ACOTSP's
            # choose_best_next) overwrites those ants' picks.
            dead = xp.flatnonzero(exhausted)
            nxt[dead] = best_unvisited(
                choice_rows[rows_idx[dead]], live[dead] == 0, xp
            )
            fb_ant[dead] += 1
        add(ant_base, nxt, win)
        live_flat[win] = 0
        # ``cur`` is this step's tour row; the next step reads it into
        # ``rows_idx`` before anything rewrites it.
        cur = nxt

    tour_rows[n] = tour_rows[0]
    fallbacks = fb_ant.reshape(B, m).sum(axis=1).astype(np.float64)
    tours = tour_rows.T.copy().reshape(B, m, n + 1)
    return tours, fallbacks


class _TaskBasedFull(TourConstruction):
    """Shared scaffolding for the full-scan task-based versions 1-3."""

    #: scattered 4-byte global loads per candidate evaluation
    loads_per_cand: float = 2.0
    #: SFU operations per candidate (version 1's on-the-fly heuristic)
    special_per_cand: float = 0.0
    #: plain float ops per candidate
    flops_per_cand: float = 2.0
    #: integer/address ops per candidate
    int_per_cand: float = 3.0

    def launch_config(self, device: DeviceSpec, *, m: int) -> LaunchConfig:
        block = min(TASK_BLOCK, device.max_threads_per_block)
        return LaunchConfig(grid=grid_for(m, block), block=block, regs_per_thread=24)

    def build_batch(
        self, bstate, rng: DeviceRNG, collect: bool = True
    ) -> BatchConstructionResult:
        B, n, m = bstate.B, bstate.n, bstate.m
        self._validate_batch_rng(rng, B, n, m)
        choice = self._choice_matrix_batch(bstate)
        tours, fallbacks = construct_exact_batch(
            choice,
            None,
            rng,
            B,
            m,
            n,
            xp=bstate.backend.xp,
            work=bstate.work,
        )
        return BatchConstructionResult(
            tours=tours,
            reports=self._batch_reports(bstate, fallbacks) if collect else [],
            fallback_steps=fallbacks,
        )

    def _choice_matrix_batch(self, bstate) -> np.ndarray:
        """Weights used by the proportional rule, ``(B, n, n)``: versions
        2-3 read ``choice_info``, version 1 overrides to recompute them."""
        return self._choice_info(bstate)

    def predict_stats(
        self,
        n: int,
        m: int,
        nn: int,
        device: DeviceSpec,
        *,
        fallback_steps: float = 0.0,
    ) -> tuple[KernelStats, LaunchConfig]:
        stats = KernelStats()
        launch = self.launch_config(device, m=m)
        self.record_launch(stats, launch)

        cands = float(m) * (n - 1) * n
        gmem = GlobalMemory(device, stats)
        gmem.load(
            (self.loads_per_cand + WALK_LOADS_PER_CAND) * cands,
            4,
            AccessPattern.RANDOM,
        )
        gmem.store(float(m) * n, 4, AccessPattern.RANDOM)  # tour writes
        stats.special_ops += self.special_per_cand * cands
        stats.flops += self.flops_per_cand * cands
        stats.int_ops += self.int_per_cand * cands
        stats.divergent_branches += DIVERGENCE_FRACTION * cands
        samples = cands + m  # one per candidate + initial placement
        if self.rng_kind == "curand":
            stats.rng_curand += samples
        else:
            stats.rng_lcg += samples
        return stats, launch


class BaselineTaskConstruction(_TaskBasedFull):
    """Version 1 — task-based baseline with redundant heuristic computation.

    Per candidate: scattered loads of ``tau`` and ``d`` plus the tabu flag,
    two ``powf`` and a divide on the SFU path, CURAND randoms.
    """

    version = 1
    key = "task_baseline"
    label = "Baseline Version"
    needs_choice_info = False
    rng_kind = "curand"

    loads_per_cand = 3.0  # tau, dist, tabu — all scattered
    special_per_cand = 3.0  # 2 powf + 1 divide (eta = 1/d)
    flops_per_cand = 3.0
    int_per_cand = 3.0

    def _choice_matrix_batch(self, bstate) -> np.ndarray:
        # Functionally identical to the on-the-fly computation; the *cost*
        # of recomputation is charged per candidate in predict_stats.
        from repro.core.choice import compute_choice_batch

        xp = bstate.backend.xp
        w = compute_choice_batch(
            bstate.pheromone, bstate.eta, bstate.alpha, bstate.beta, xp=xp
        )
        diag = xp.arange(bstate.n)
        w[:, diag, diag] = 0.0
        return w


class ChoiceKernelTaskConstruction(_TaskBasedFull):
    """Version 2 — adds the Choice kernel; ants read ``choice_info``."""

    version = 2
    key = "task_choice"
    label = "Choice Kernel"
    needs_choice_info = True
    rng_kind = "curand"

    loads_per_cand = 2.0  # choice_info + tabu


class DeviceRngTaskConstruction(_TaskBasedFull):
    """Version 3 — version 2 with the device-function LCG instead of CURAND."""

    version = 3
    key = "task_lcg"
    label = "Without CURAND"
    needs_choice_info = True
    rng_kind = "lcg"

    loads_per_cand = 2.0
