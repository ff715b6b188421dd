"""Pluggable ACO variant strategies: one batched engine for AS / ACS / MMAS.

The paper's parallelization strategies — data-parallel tour construction,
vectorized pheromone kernels, device-resident run loops — are
variant-agnostic: Ant System, Ant Colony System and MAX-MIN Ant System all
iterate *construct → evaluate → update*.  What distinguishes them are two
seams, and this module factors exactly those out of the engine:

* a **choice policy** — how an ant picks its next city.  AS and MMAS use
  the random-proportional roulette embodied by the Table II construction
  families (:class:`RouletteChoice`); ACS replaces it with the
  pseudo-random-proportional rule (greedy with probability ``q0``) plus a
  per-step *local* pheromone evaporation toward ``tau0``
  (:class:`PseudoProportionalChoice`).
* an **update policy** — what happens to the trails after the iteration.
  AS deposits every ant through one of the Table III/IV kernels
  (:class:`DepositAllUpdate`); ACS deposits on the best-so-far tour only
  (:class:`GlobalBestUpdate`); MMAS deposits one tour per iteration under
  ``[tau_min, tau_max]`` trail limits with optional stagnation
  reinitialisation (:class:`TrailLimitsUpdate`).

A third, variant-orthogonal seam rides along: a **local-search policy** —
what happens to the best tours at report boundaries.  The default is
nothing (:class:`NoLocalSearch`); :class:`BatchedTwoOpt` polishes the
iteration-best (or best-so-far) tours with the batched nn-restricted
2-opt kernel before the update seam runs, so deposits see the improved
edges.

A :class:`VariantStrategy` composes one policy of each kind and is bound to
one :class:`~repro.core.batch.BatchEngine`.  Every policy is **batched over
B colonies** and **backend-resident** (``xp`` arrays, the state's
:class:`~repro.backend.WorkBuffers` arena, bulk RNG), so ACS and MMAS ride
the same device-resident ``report_every=K`` loop, replica batching, parameter
sweeps and micro-batching service the Ant System does.

The defining invariant extends the engine's solo equivalence: batch row
``b`` under variant V is bit-identical (tours, lengths, pheromone) to the
pre-redesign solo loop of V seeded like that row, whose trajectories are
recorded in ``tests/property/data/solo_golden.json`` —
``tests/property/test_variant_parity.py`` pins it across B and K.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.report import StageReport, cached_stage_reports
from repro.errors import ACOConfigError
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import Kernel, LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = [
    "ACSParams",
    "MMASParams",
    "IterationContext",
    "ChoicePolicy",
    "RouletteChoice",
    "PseudoProportionalChoice",
    "UpdatePolicy",
    "DepositAllUpdate",
    "GlobalBestUpdate",
    "TrailLimitsUpdate",
    "LocalSearchPolicy",
    "NoLocalSearch",
    "BatchedTwoOpt",
    "LOCAL_SEARCH",
    "LS_TARGETS",
    "make_local_search",
    "VariantStrategy",
    "VARIANTS",
    "make_variant",
]


@dataclass(frozen=True)
class ACSParams:
    """ACS-specific parameters on top of :class:`~repro.core.params.ACOParams`.

    Attributes
    ----------
    q0:
        Exploitation probability of the pseudo-random-proportional rule
        (Dorigo & Gambardella recommend 0.9).
    xi:
        Local-update decay in (0, 1] (classically 0.1).
    """

    q0: float = 0.9
    xi: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.q0 <= 1.0:
            raise ACOConfigError(f"q0 must lie in [0, 1], got {self.q0}")
        if not 0.0 < self.xi <= 1.0:
            raise ACOConfigError(f"xi must lie in (0, 1], got {self.xi}")


@dataclass(frozen=True)
class MMASParams:
    """MMAS-specific knobs.

    Attributes
    ----------
    use_best_so_far_every:
        Every k-th iteration deposits the best-so-far tour instead of the
        iteration best (0 disables best-so-far deposits entirely).
    tau_min_divisor:
        ``tau_min = tau_max / (tau_min_divisor * n)`` — the classical
        choice is 2.
    """

    use_best_so_far_every: int = 5
    tau_min_divisor: float = 2.0

    def __post_init__(self) -> None:
        if self.use_best_so_far_every < 0:
            raise ACOConfigError(
                f"use_best_so_far_every must be >= 0, got {self.use_best_so_far_every}"
            )
        if self.tau_min_divisor <= 0:
            raise ACOConfigError(
                f"tau_min_divisor must be > 0, got {self.tau_min_divisor}"
            )


@dataclass(frozen=True)
class IterationContext:
    """Per-iteration best-record context handed to the update policies.

    Produced by the engine **after** the tour evaluation and the
    backend-resident best-so-far fold of the current iteration, **before**
    the pheromone update — exactly the point where the classical ACS/MMAS
    loops record the iteration's best and then deposit.  All arrays live on
    the engine's backend.
    """

    iteration: int  #: engine iteration counter (pre-increment, 0-based)
    it_best: np.ndarray  #: (B,) per-row argmin index into this iteration's lengths
    it_best_lengths: np.ndarray  #: (B,) int64 iteration-best lengths
    best_lengths: np.ndarray  #: (B,) int64 best-so-far lengths (current iteration folded in)
    best_tours: np.ndarray  #: (B, n + 1) int32 best-so-far tours
    improved: np.ndarray  #: (B,) bool — rows whose best-so-far improved this iteration
    edges: np.ndarray  #: (B, m, n) int64 edge table (see ``tour_lengths_batch``)


# ---------------------------------------------------------------------------
# choice policies
# ---------------------------------------------------------------------------


class ChoicePolicy(abc.ABC):
    """How ants pick the next city: the construction seam of a variant."""

    key: str = ""

    def bind(self, bstate) -> None:
        """Initialise per-engine state (pheromone init, per-row constants)."""

    def rng_kind(self, construction) -> str:
        """Random-stream family the policy consumes."""
        return construction.rng_kind

    def rng_streams(self, construction, n: int, m: int) -> int:
        """Streams *per colony* the policy needs."""
        return construction.rng_streams(n, m)

    @abc.abstractmethod
    def build_batch(self, bstate, construction, choice_kernel, rng, collect: bool):
        """Construct one tour per ant for every colony.

        Returns ``(tours, choice_reports, build_reports)`` with ``tours``
        backend-resident ``(B, m, n + 1)`` int32 and the report lists empty
        when ``collect`` is false.
        """


class RouletteChoice(ChoicePolicy):
    """AS/MMAS random-proportional rule via the Table II construction families."""

    key = "roulette"

    def build_batch(self, bstate, construction, choice_kernel, rng, collect: bool):
        if construction.needs_choice_info:
            choice_reports = choice_kernel.run_batch(bstate, collect=collect)
        else:
            choice_reports = []
        result = construction.build_batch(bstate, rng, collect=collect)
        return result.tours, choice_reports, result.reports


class PseudoProportionalChoice(ChoicePolicy):
    """ACS pseudo-random-proportional rule with per-step local evaporation.

    With probability ``q0`` an ant moves greedily to the best
    ``choice_info`` candidate; otherwise it applies the usual proportional
    roulette.  Immediately after crossing an edge the ant decays it toward
    ``tau0``: ``tau <- (1 - xi) tau + xi tau0`` (both directions); once its
    tour is complete, it decays the closing edge back to its start city
    the same way, as ACOTSP's ``construct_solutions`` does.  Local
    updates within one step decay each crossed directed edge once: ants
    sharing an edge write the same value, matching a GPU execution where
    colliding same-step writers are idempotent decays toward the same
    target.

    The batched implementation advances all ``B * m`` ants through each
    step in single ``xp`` operations; row ``b`` is bit-identical to the
    recorded pre-redesign solo ACS loop seeded like that row.  ``tau0``
    here is the ACS value
    ``1 / (n * C_nn)`` per colony, also used to (re-)initialise the
    pheromone stack at bind time.
    """

    key = "pseudo_proportional"

    def __init__(self, acs: ACSParams | None = None) -> None:
        self.acs = acs or ACSParams()
        self.tau0: np.ndarray | None = None  # (B,) device float64

    def bind(self, bstate) -> None:
        # ACS tau0 = 1 / (n * C_nn); the state's AS tau0 is m / C_nn.
        self.tau0 = bstate.tau0 / (bstate.m * bstate.n)
        bstate.pheromone[...] = self.tau0[:, None, None]
        diag = bstate.backend.xp.arange(bstate.n)
        bstate.pheromone[:, diag, diag] = 0.0

    def rng_kind(self, construction) -> str:
        return "lcg"

    def rng_streams(self, construction, n: int, m: int) -> int:
        # Per step: one explore dart + one roulette dart per ant.
        return max(2 * m, 2)

    def build_batch(self, bstate, construction, choice_kernel, rng, collect: bool):
        """Batched ACS construction: pseudo-random-proportional picks with
        the local pheromone update after every step.

        When every unvisited weight of an ant's row is ``0`` (an underflowed
        ``eta^beta``; ACS trails stay ``>= tau0``), both the greedy argmax
        and the roulette would land on city 0, visited or not; those ants
        take :func:`~repro.core.construction.base.best_unvisited` instead.
        The per-step check runs only in iterations whose ``choice_info``
        has a zero off-diagonal entry.
        """
        from repro.core.construction.base import best_unvisited, min_off_diagonal
        from repro.rng.streams import BlockedDraws

        # The Choice kernel serves ACS too: choice_info is tau^alpha *
        # eta^beta at iteration start (local updates mutate tau but never
        # the current iteration's choice matrix, as in the solo loop).
        choice_reports = choice_kernel.run_batch(bstate, collect=collect)

        bk = bstate.backend
        xp = bk.xp
        wb = bstate.work
        B, n, m = bstate.B, bstate.n, bstate.m
        M = B * m
        S = self.rng_streams(construction, n, m)
        if rng.n_streams != B * S:
            raise ACOConfigError(
                f"batched ACS construction needs exactly {B * S} rng streams "
                f"for B={B} colonies, got {rng.n_streams}"
            )
        assert self.tau0 is not None

        def _buf(key: str, shape, dtype):
            return wb.get("acs." + key, shape, dtype)

        def _const(key: str, builder):
            return wb.cached(f"acs.{key}.{B}x{m}x{n}", builder)

        # Flattened mega-colony layout (as in the data-parallel kernels):
        # ant b*m + a reads choice row b*n + city.
        choice_rows = xp.ascontiguousarray(bstate.choice_info).reshape(B * n, n)
        flat_tau = bstate.pheromone.reshape(-1)
        row_off = _const(
            "row_off", lambda: xp.repeat(xp.arange(B, dtype=np.int64) * n, m)
        )
        col_of_ant = _const(
            "col", lambda: xp.repeat(xp.arange(B, dtype=np.int64), m)
        )
        ant_idx = _const("ant_idx", lambda: xp.arange(M))
        tours = xp.empty((M, n + 1), dtype=np.int32)  # escapes: never pooled
        visited = _buf("visited", (M, n), bool)
        visited[:] = False
        w = _buf("w", (M, n), np.float64)
        cum = _buf("cum", (M, n), np.float64)
        rows_idx = _buf("rows_idx", (M,), np.int64)
        take_kw = {"mode": "clip"} if xp is np else {}

        q0, xi = self.acs.q0, self.acs.xi
        nn2 = n * n
        zero_risk = n > 1 and not (
            min_off_diagonal(choice_rows.reshape(B, n, n), xp) > 0.0
        )

        def local_update(frm, to):
            # Colony offsets keep rows disjoint in the flat view.  The
            # decayed values are gathered before any write, so ants sharing
            # a directed edge write the same value and the edge decays
            # once; the mirror gets the same values.
            gk = col_of_ant * nn2 + frm * n + to
            decayed = (1.0 - xi) * flat_tau[gk] + xi * self.tau0[col_of_ant]
            flat_tau[gk] = decayed
            flat_tau[col_of_ant * nn2 + to * n + frm] = decayed

        # One (B * S,) draw vector per step plus the placement draw — the
        # exact per-step lockstep of the solo loop.
        draws = BlockedDraws(rng, n, work=wb, key="acs.rng")
        u = draws.next().reshape(B, S)
        start = xp.minimum((u[:, :m] * n).astype(np.int64), n - 1).reshape(M)
        tours[:, 0] = start
        visited[ant_idx, start] = True
        cur = start

        for step in range(1, n):
            u = draws.next().reshape(B, S)
            explore = u[:, :m].reshape(M)
            roulette = u[:, m : 2 * m].reshape(M)

            xp.add(row_off, cur, out=rows_idx)
            xp.take(choice_rows, rows_idx, axis=0, out=w, **take_kw)
            w[visited] = 0.0

            greedy = xp.argmax(w, axis=1)
            sums = w.sum(axis=1)
            xp.cumsum(w, axis=1, out=cum)
            r = roulette * sums
            rsel = xp.minimum((cum < r[:, None]).sum(axis=1), n - 1)
            nxt = xp.where(explore < q0, greedy, rsel)
            if zero_risk:
                dead = xp.flatnonzero(sums <= 0.0)
                if dead.size:
                    nxt[dead] = best_unvisited(
                        choice_rows[rows_idx[dead]], visited[dead], xp
                    )

            local_update(cur, nxt)
            visited[ant_idx, nxt] = True
            tours[:, step] = nxt
            cur = nxt

        if n > 1:
            local_update(cur, start)  # the closing edge, as in ACOTSP
        tours[:, n] = tours[:, 0]
        tours = tours.reshape(B, m, n + 1)
        reports = []
        if collect:
            reports = cached_stage_reports(
                bstate, self, [None] * B, "construction", "acs",
                lambda _: self.predict_stats(n, m, bstate.device),
            )
        return tours, choice_reports, reports

    def predict_stats(
        self, n: int, m: int, device: DeviceSpec
    ) -> tuple[KernelStats, LaunchConfig]:
        """Closed-form per-colony ledger mirroring the solo ACS construct."""
        stats = KernelStats()
        theta = min(256, device.max_threads_per_block)
        launch = LaunchConfig(grid=m, block=theta, smem_per_block=8 * theta)
        Kernel.record_launch(stats, launch)
        gmem = GlobalMemory(device, stats)
        steps = float(n - 1)
        mn = float(m) * n
        stats.rng_lcg += m + steps * 2.0 * m
        gmem.load(steps * mn, 4, AccessPattern.COALESCED)
        stats.flops += steps * 3.0 * mn  # weighting + argmax scan
        stats.int_ops += steps * 2.0 * mn
        stats.smem_accesses += steps * mn
        # Local updates, both directions, the closing edge included.
        stats.atomics_fp += n * 2.0 * m
        gmem.load(n * 2.0 * m, 4, AccessPattern.RANDOM)
        return stats, launch


# ---------------------------------------------------------------------------
# update policies
# ---------------------------------------------------------------------------


class UpdatePolicy(abc.ABC):
    """What the iteration does to the trails: the pheromone seam."""

    key: str = ""

    def bind(self, bstate) -> None:
        """Initialise per-engine state (trail limits, counters)."""

    @abc.abstractmethod
    def update_batch(
        self, bstate, pheromone, tours, lengths, ctx: IterationContext, collect: bool
    ) -> list[StageReport]:
        """Apply the variant's trail update in place; one report per colony
        when ``collect`` (empty list otherwise)."""


class DepositAllUpdate(UpdatePolicy):
    """AS rule: every ant deposits, via the selected Table III/IV kernel."""

    key = "deposit_all"

    def update_batch(self, bstate, pheromone, tours, lengths, ctx, collect):
        return pheromone.update_batch(bstate, ctx.edges, lengths, collect=collect)


class GlobalBestUpdate(UpdatePolicy):
    """ACS rule: only the best-so-far tour deposits, with decay restricted
    to its own edges — ``tau <- (1 - rho) tau + rho / C_bs``."""

    key = "global_best"

    def update_batch(self, bstate, pheromone, tours, lengths, ctx, collect):
        xp = bstate.backend.xp
        B, n = bstate.B, bstate.n
        t = ctx.best_tours.astype(np.int64)
        a, b = t[:, :-1], t[:, 1:]
        rho = bstate.rho
        deposit = rho / ctx.best_lengths.astype(np.float64)
        flat = bstate.pheromone.reshape(B, n * n)
        rows = xp.arange(B)[:, None]
        fw = a * n + b
        bw = b * n + a
        flat[rows, fw] = (1.0 - rho)[:, None] * flat[rows, fw] + deposit[:, None]
        flat[rows, bw] = flat[rows, fw]
        if not collect:
            return []

        return cached_stage_reports(
            bstate, self, [None] * B, "pheromone", "acs_global",
            lambda _: self.predict_stats(n, bstate.device),
        )

    def predict_stats(
        self, n: int, device: DeviceSpec
    ) -> tuple[KernelStats, LaunchConfig]:
        stats = KernelStats()
        launch = LaunchConfig(grid=max(1, n // 256 + 1), block=256)
        Kernel.record_launch(stats, launch)
        gmem = GlobalMemory(device, stats)
        gmem.load(2.0 * n, 4, AccessPattern.RANDOM)
        gmem.store(2.0 * n, 4, AccessPattern.RANDOM)
        stats.flops += 4.0 * n
        return stats, launch


class TrailLimitsUpdate(UpdatePolicy):
    """MMAS rule: evaporate, deposit one tour, clamp to ``[tau_min, tau_max]``.

    Per iteration only one ant deposits — the iteration best, or (every
    ``use_best_so_far_every``-th iteration) the best-so-far tour.  Limits
    follow the best-so-far length (``tau_max = 1 / (rho C_best)``,
    ``tau_min = tau_max / (divisor n)``) and trails start optimistically at
    the ``tau_max`` derived from the greedy nearest-neighbour tour.  With
    ``reinit_branching`` set, rows whose mean λ-branching factor falls
    below the threshold have their trails reset to ``tau_max`` (stagnation
    escape); per-row reset counts are kept in ``reinit_count``.
    """

    key = "trail_limits"

    def __init__(
        self,
        mmas: MMASParams | None = None,
        reinit_branching: float | None = None,
    ) -> None:
        self.mmas = mmas or MMASParams()
        self.reinit_branching = reinit_branching
        self.tau_max: np.ndarray | None = None  # (B,) device float64
        self.tau_min: np.ndarray | None = None
        self.reinit_count: np.ndarray | None = None  # (B,) device int64

    def bind(self, bstate) -> None:
        bk = bstate.backend
        if bstate.c_nn is None:
            raise ACOConfigError(
                "MMAS trail limits need per-row nearest-neighbour tour "
                "lengths; build the batch state through BatchColonyState.create"
            )
        # Host math by design: c_nn is a host vector, result crosses the
        # seam via bk.from_host on the next line.
        rho = np.array([p.rho for p in bstate.params], dtype=np.float64)  # lint: ignore[backend-purity]
        tau_max = 1.0 / (rho * bstate.c_nn.astype(np.float64))
        self.tau_max = bk.from_host(tau_max).copy()
        self.tau_min = self.tau_max / (self.mmas.tau_min_divisor * bstate.n)
        self.reinit_count = bk.xp.zeros(bstate.B, dtype=np.int64)
        # Optimistic initialisation at tau_max.
        bstate.pheromone[...] = self.tau_max[:, None, None]
        diag = bk.xp.arange(bstate.n)
        bstate.pheromone[:, diag, diag] = 0.0

    def update_batch(self, bstate, pheromone, tours, lengths, ctx, collect):
        from repro.core.pheromone.base import evaporate_batch

        xp = bstate.backend.xp
        B, n = bstate.B, bstate.n
        assert self.tau_max is not None and self.tau_min is not None

        # Limits follow a freshly improved best-so-far (recomputed as soon
        # as the best is recorded).  Masked math instead of an
        # index gate: no host sync inside the device-resident K-loop, and
        # bit-identical — unimproved rows keep their tau_max verbatim, and
        # tau_min recomputed from an unchanged tau_max reproduces the same
        # value (identical operands, deterministic divide).
        fresh_max = 1.0 / (bstate.rho * ctx.best_lengths.astype(np.float64))
        self.tau_max = xp.where(ctx.improved, fresh_max, self.tau_max)
        self.tau_min = self.tau_max / (self.mmas.tau_min_divisor * n)

        evaporate_batch(bstate)

        # Deposit schedule: iteration best, periodically best-so-far.
        k = self.mmas.use_best_so_far_every
        use_bsf = k > 0 and ctx.iteration % k == k - 1
        if use_bsf:
            dep_tours, dep_lengths = ctx.best_tours, ctx.best_lengths
        else:
            rows1 = xp.arange(B)
            dep_tours = tours[rows1, ctx.it_best]
            dep_lengths = ctx.it_best_lengths
        t = dep_tours.astype(np.int64)
        a, b = t[:, :-1], t[:, 1:]
        delta = 1.0 / dep_lengths.astype(np.float64)
        flat = bstate.pheromone.reshape(B, n * n)
        rows = xp.arange(B)[:, None]
        fw = a * n + b
        bw = b * n + a
        flat[rows, fw] += delta[:, None]
        flat[rows, bw] += delta[:, None]

        # Clamp into the per-row limits (diagonal stays 0).
        xp.clip(
            bstate.pheromone,
            self.tau_min[:, None, None],
            self.tau_max[:, None, None],
            out=bstate.pheromone,
        )
        diag = xp.arange(n)
        bstate.pheromone[:, diag, diag] = 0.0

        if self.reinit_branching is not None:
            self._maybe_reinitialise(bstate)

        if not collect:
            return []

        return cached_stage_reports(
            bstate, self, [None] * B, "pheromone", "mmas_update",
            lambda _: self.predict_stats(n, bstate.device),
        )

    # ------------------------------------------------------------ stagnation

    def branching_factors(self, bstate, lam: float = 0.05) -> np.ndarray:
        """Per-row mean λ-branching factor — the classical stagnation gauge.

        For each city, counts edges whose trail exceeds
        ``row_min + lam * (row_max - row_min)``; values near 2 mean the
        colony has converged onto a single tour.  Returns a backend ``(B,)``
        float64 vector.
        """
        xp = bstate.backend.xp
        n = bstate.n
        off = ~xp.eye(n, dtype=bool)
        rows = xp.where(off, bstate.pheromone, xp.nan)
        row_min = xp.nanmin(rows, axis=2, keepdims=True)
        row_max = xp.nanmax(rows, axis=2, keepdims=True)
        threshold = row_min + lam * (row_max - row_min)
        counts = xp.nansum(rows >= threshold, axis=2)
        return counts.mean(axis=1)

    def _maybe_reinitialise(self, bstate) -> None:
        """Masked stagnation reset, fully backend-resident.

        No host crossing inside the device-resident ``report_every=K``
        loop: the below-threshold mask selects between ``tau_max`` and the
        current trails elementwise (bit-identical to an indexed reset —
        unselected rows copy their own values), and the per-row reset
        counters accumulate on the backend; host transfer of the counts
        happens only when a view reads them.
        """
        # lint: hot-region
        xp = bstate.backend.xp
        assert self.tau_max is not None and self.reinit_count is not None
        low = self.branching_factors(bstate) < self.reinit_branching
        bstate.pheromone[...] = xp.where(
            low[:, None, None], self.tau_max[:, None, None], bstate.pheromone
        )
        diag = xp.arange(bstate.n)
        bstate.pheromone[:, diag, diag] = 0.0
        self.reinit_count += low

    def predict_stats(
        self, n: int, device: DeviceSpec
    ) -> tuple[KernelStats, LaunchConfig]:
        """Closed-form per-colony ledger mirroring the solo MMAS update."""
        stats = KernelStats()
        launch = LaunchConfig(grid=grid_for(n * n, 256), block=256)
        gmem = GlobalMemory(device, stats)
        cells = float(n) * n
        # Evaporation sweep (the dominant kernel: n^2 cells).
        Kernel.record_launch(stats, launch)
        gmem.load(cells, 4, AccessPattern.COALESCED)
        gmem.store(cells, 4, AccessPattern.COALESCED)
        stats.flops += cells
        # Single-tour deposit (one block).
        deposit_launch = LaunchConfig(
            grid=1, block=min(256, device.max_threads_per_block)
        )
        Kernel.record_launch(stats, deposit_launch)
        stats.atomics_fp += 2.0 * n
        gmem.load(float(n + 1), 4, AccessPattern.COALESCED)
        # Clamp kernel (fused in practice; counted as one more sweep).
        Kernel.record_launch(stats, launch)
        gmem.load(cells, 4, AccessPattern.COALESCED)
        gmem.store(cells, 4, AccessPattern.COALESCED)
        stats.flops += 2.0 * cells  # two compares per cell
        return stats, launch


# ---------------------------------------------------------------------------
# local-search policies
# ---------------------------------------------------------------------------

#: valid ``--ls-target`` spellings: which tours each boundary polish runs on
LS_TARGETS = ("iteration-best", "best-so-far")


class LocalSearchPolicy(abc.ABC):
    """Boundary-time tour polishing: the third seam of a variant.

    The engine invokes :meth:`improve` at ``report_every`` boundaries on
    one selected tour per batch row (the iteration best or the best so
    far, per :attr:`target`) and folds improvements into the
    backend-resident best-so-far records *before* the update seam — so
    best-so-far deposits (ACS global-best, MMAS schedules) spread the
    improved edges, which is what makes local search the quality lever the
    ACOTSP/GPU-follow-up literature says it is.
    """

    key: str = ""
    enabled: bool = True
    target: str = "iteration-best"

    def bind(self, bstate) -> None:
        """Initialise per-engine state."""

    @abc.abstractmethod
    def improve(self, bstate, tours, lengths):
        """Polish ``(B, n + 1)`` tours; returns a
        :class:`~repro.tsp.local_search.BatchTwoOptResult` with fresh
        ``tours``/``lengths``/``exchanges`` arrays on the backend."""


class NoLocalSearch(LocalSearchPolicy):
    """The default: construction-only, exactly the pre-seam engine."""

    key = "none"
    enabled = False

    def improve(self, bstate, tours, lengths):  # pragma: no cover
        raise ACOConfigError("NoLocalSearch has no improve step")


class BatchedTwoOpt(LocalSearchPolicy):
    """nn-restricted batched best-improvement 2-opt (ACOTSP candidate lists).

    Runs :func:`~repro.tsp.local_search.two_opt_batch` over all B selected
    tours at once through the engine's backend/arena, restricted to the
    candidate lists the construction already built (``bstate.nn_list``).
    ``passes`` caps the lockstep improvement rounds per boundary (``None``
    runs each tour to 2-opt optimality over the nn neighbourhood).
    """

    key = "2opt"

    def __init__(
        self, passes: int | None = None, target: str = "iteration-best"
    ) -> None:
        if passes is not None and passes < 1:
            raise ACOConfigError(f"local-search passes must be >= 1, got {passes}")
        if target not in LS_TARGETS:
            raise ACOConfigError(
                f"unknown ls target {target!r}; valid: {list(LS_TARGETS)}"
            )
        self.passes = passes
        self.target = target

    def improve(self, bstate, tours, lengths):
        from repro.tsp.local_search import two_opt_batch

        return two_opt_batch(
            tours,
            bstate.dist,
            nn_list=bstate.nn_list,
            lengths=lengths,
            max_passes=self.passes,
            xp=bstate.backend.xp,
            work=bstate.work,
        )


#: registered local-search policies, keyed as the CLI / serve protocol
#: spell them
LOCAL_SEARCH = {"none": NoLocalSearch, "2opt": BatchedTwoOpt}


def make_local_search(
    which: str | LocalSearchPolicy, **options
) -> LocalSearchPolicy:
    """Instantiate a local-search policy by key (``"none" | "2opt"``).

    Mirrors :func:`make_variant`: a ready-made policy passes through
    unchanged (options must then be empty), keyword options go to the
    policy constructor — ``make_local_search("2opt", passes=2,
    target="best-so-far")``.
    """
    if isinstance(which, LocalSearchPolicy):
        if options:
            raise ACOConfigError(
                "options cannot be combined with a local-search instance"
            )
        return which
    try:
        cls = LOCAL_SEARCH[which]
    except (KeyError, TypeError):
        raise ACOConfigError(
            f"unknown local search {which!r}; valid: {sorted(LOCAL_SEARCH)}"
        ) from None
    if cls is NoLocalSearch and options:
        raise ACOConfigError(
            "local-search options require an algorithm (got 'none' with "
            f"options {sorted(options)})"
        )
    return cls(**options)


# ---------------------------------------------------------------------------
# variant composition
# ---------------------------------------------------------------------------


class VariantStrategy:
    """One choice policy + one update policy (+ optional local search) =
    one ACO variant.

    Instances are **per-engine**: the policies carry per-row device arrays
    (ACS ``tau0``, MMAS trail limits) installed by :meth:`bind` and must
    not be shared between engines.  Build through :func:`make_variant`;
    the engine installs the local-search policy from its own
    ``local_search=`` argument (every variant composes with every policy).
    """

    def __init__(
        self,
        key: str,
        label: str,
        choice: ChoicePolicy,
        update: UpdatePolicy,
        local: LocalSearchPolicy | None = None,
    ) -> None:
        self.key = key
        self.label = label
        self.choice = choice
        self.update = update
        self.local = local if local is not None else NoLocalSearch()

    def bind(self, bstate) -> None:
        """Install variant state on a freshly created batch state."""
        self.choice.bind(bstate)
        self.update.bind(bstate)
        self.local.bind(bstate)

    def span_labels(self) -> dict[str, str]:
        """Trace-span names for the engine phases this variant owns — the
        policy key rides along (``construct:roulette``,
        ``update:trail_limits``, ``local-search:2opt``) so a chrome-trace
        timeline names the kernel, not just the phase family."""
        return {
            "construct": f"construct:{self.choice.key}",
            "update": f"update:{self.update.key}",
            "local-search": f"local-search:{self.local.key}",
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = f"{type(self.choice).__name__} + {type(self.update).__name__}"
        if self.local.enabled:
            parts += f" + {type(self.local).__name__}"
        return f"<VariantStrategy {self.key!r}: {parts}>"


def _make_as() -> VariantStrategy:
    return VariantStrategy(
        "as", "Ant System", RouletteChoice(), DepositAllUpdate()
    )


def _make_acs(acs: ACSParams | None = None, **knobs) -> VariantStrategy:
    if acs is not None and knobs:
        raise ACOConfigError("pass either acs=ACSParams(...) or q0/xi knobs, not both")
    return VariantStrategy(
        "acs",
        "Ant Colony System",
        PseudoProportionalChoice(acs or ACSParams(**knobs)),
        GlobalBestUpdate(),
    )


def _make_mmas(
    mmas: MMASParams | None = None,
    reinit_branching: float | None = None,
    **knobs,
) -> VariantStrategy:
    if mmas is not None and knobs:
        raise ACOConfigError(
            "pass either mmas=MMASParams(...) or schedule knobs, not both"
        )
    return VariantStrategy(
        "mmas",
        "MAX-MIN Ant System",
        RouletteChoice(),
        TrailLimitsUpdate(mmas or MMASParams(**knobs), reinit_branching),
    )


#: registered variant factories, keyed as the CLI / serve protocol spell them
VARIANTS = {
    "as": _make_as,
    "acs": _make_acs,
    "mmas": _make_mmas,
}


def make_variant(which: str | VariantStrategy, **options) -> VariantStrategy:
    """Instantiate a variant strategy by key (``"as" | "acs" | "mmas"``).

    A ready-made :class:`VariantStrategy` passes through unchanged (options
    must then be empty).  Keyword options go to the variant's parameter
    dataclass: ``make_variant("acs", q0=0.95)``,
    ``make_variant("mmas", mmas=MMASParams(...), reinit_branching=2.05)``.
    """
    if isinstance(which, VariantStrategy):
        if options:
            raise ACOConfigError(
                "options cannot be combined with a variant instance"
            )
        return which
    try:
        factory = VARIANTS[which]
    except (KeyError, TypeError):
        raise ACOConfigError(
            f"unknown variant {which!r}; valid: {sorted(VARIANTS)}"
        ) from None
    return factory(**options)
