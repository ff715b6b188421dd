"""Batched multi-colony execution: ``B`` independent colonies per iteration.

The paper restructures one colony's iteration around data parallelism; this
module applies the same idea one level up.  A :class:`BatchColonyState`
stacks every per-colony array along a leading batch axis (``(B, n, n)``
matrices, ``(B, m, n + 1)`` tours), and a :class:`BatchEngine` advances all
``B`` colonies through choice, construction, tour evaluation and pheromone
update in single vectorized numpy operations — replacing B sequential
Python-level runs with one batched pass.  Rows may be replicas of one
instance with different seeds, parameter-sweep points (alpha/beta/rho), or
distinct instances of equal size.

The engine's defining invariant is **solo equivalence**: batch row ``b``
produces bit-identical tours, lengths and pheromone matrices to a solo
:class:`~repro.core.colony.AntSystem` run configured like that row.  Every
kernel exists once, over the batch; the solo run is the ``B = 1`` view of
this engine.  The batched RNG (:func:`repro.rng.make_batched_rng`) seeds
stream block ``b`` exactly as a one-colony generator would be, and every
kernel consumes each colony's draws in per-step lockstep, so a row never
depends on how many rows share the batch.

Examples
--------
>>> from repro.tsp import uniform_instance
>>> from repro.core import BatchEngine
>>> engine = BatchEngine.replicas(uniform_instance(30, seed=3), replicas=4)
>>> batch = engine.run(iterations=2)
>>> len(batch.results)
4
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.backend import ArrayBackend, WorkBuffers, resolve_backend
from repro.core.choice import ChoiceKernel
from repro.core.construction import TourConstruction, make_construction
from repro.core.params import ACOParams
from repro.core.pheromone import PheromoneUpdate, make_pheromone
from repro.core.report import IterationReport
from repro.core.state import ColonyState
from repro.core.variant import (
    IterationContext,
    LocalSearchPolicy,
    VariantStrategy,
    make_local_search,
    make_variant,
)
from repro.errors import ACOConfigError, RunInterrupted
from repro.obs import MetricsRegistry, PhaseClock, TraceRecorder
from repro.rng import make_batched_rng
from repro.simt.device import TESLA_M2050, DeviceSpec
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import (
    edge_indices,
    nearest_neighbor_tour,
    tour_length,
    tour_lengths_batch,
)
from repro.util.timer import WallClock

__all__ = [
    "BatchColonyState",
    "BatchEngine",
    "BatchRunResult",
    "BoundaryUpdate",
]


def _stack_or_broadcast(rows: list[np.ndarray], B: int, bk: ArrayBackend):
    """Stack per-colony host arrays onto the backend, sharing memory when
    every row is the same object (the replica case — B views of one
    uploaded matrix, not B copies)."""
    if all(r is rows[0] for r in rows):
        return bk.xp.broadcast_to(bk.from_host(rows[0]), (B,) + rows[0].shape)
    return bk.from_host(np.stack(rows))


@dataclass
class BatchColonyState:
    """Device-resident data of ``B`` colonies, batch axis first.

    Read-only per-colony inputs (``dist``, ``eta``, ``nn_list``) are
    broadcast views when all colonies share an instance; the pheromone stack
    is always ``B`` writable rows.  Rows never alias each other's mutable
    state, so batched kernels cannot couple colonies.

    Array residency: the per-colony matrices and exponent vectors live on
    ``backend`` (numpy by default); the reporting fields (``tours``,
    ``lengths``, best records) are **host** numpy arrays, refreshed at
    report boundaries by the owning engine (its backend-resident
    best-so-far fold is the single bookkeeping implementation).
    """

    instances: tuple[TSPInstance, ...]
    params: tuple[ACOParams, ...]
    device: DeviceSpec
    B: int
    n: int
    m: int
    nn: int
    dist: np.ndarray  # (B, n, n) int64, possibly broadcast
    eta: np.ndarray  # (B, n, n) float64, possibly broadcast
    pheromone: np.ndarray  # (B, n, n) float64, always materialized
    nn_list: np.ndarray  # (B, n, nn) int32, possibly broadcast
    tau0: np.ndarray  # (B,) float64
    alpha: np.ndarray  # (B,) float64 per-colony exponents
    beta: np.ndarray  # (B,)
    rho: np.ndarray  # (B,)
    #: per-row greedy nearest-neighbour tour lengths (host int64); the
    #: exact integers variant strategies derive their constants from
    #: (MMAS ``tau_max = 1 / (rho * C_nn)``)
    c_nn: np.ndarray | None = None
    backend: ArrayBackend = field(default_factory=resolve_backend)
    #: scratch arena hoisting kernel buffers across steps and iterations
    #: (an engine may swap in a shared one, see ``BatchEngine(work=)``)
    work: WorkBuffers = field(init=False, repr=False)
    choice_info: np.ndarray | None = None  # (B, n, n), refreshed per iter
    tours: np.ndarray | None = None  # (B, m, n + 1) int32 host, last iteration
    lengths: np.ndarray | None = None  # (B, m) int64 host, last iteration
    iteration: int = 0
    best_tours: np.ndarray | None = field(default=None, repr=False)
    best_lengths: np.ndarray | None = None  # (B,) int64 host

    def __post_init__(self) -> None:
        self.work = WorkBuffers(self.backend)

    @classmethod
    def create(
        cls,
        instances: list[TSPInstance],
        params: list[ACOParams],
        device: DeviceSpec,
        backend: ArrayBackend | str | None = None,
    ) -> "BatchColonyState":
        """Initialise every row the ACOTSP way (``tau0 = m / C_nn`` per row).

        All rows must agree on ``n``, ``m`` and ``nn`` (the batch shares
        array shapes); per-instance derivations are cached so replicas of
        one instance build each matrix once.  Derivations run on the host;
        the resident stacks are then uploaded through ``backend`` (a no-copy
        pass-through on numpy).
        """
        bk = resolve_backend(backend)
        B = len(instances)
        if B == 0:
            raise ACOConfigError("batch needs at least one colony")
        if len(params) != B:
            raise ACOConfigError(
                f"got {B} instances but {len(params)} parameter sets"
            )
        n = instances[0].n
        if any(inst.n != n for inst in instances):
            sizes = sorted({inst.n for inst in instances})
            raise ACOConfigError(
                f"all batch instances must have equal size, got n in {sizes}"
            )
        m = params[0].resolve_ants(n)
        nn = params[0].resolve_nn(n)
        if any(p.resolve_ants(n) != m for p in params):
            raise ACOConfigError("all batch rows must use the same colony size m")
        if any(p.resolve_nn(n) != nn for p in params):
            raise ACOConfigError("all batch rows must use the same nn width")

        dist_cache: dict[int, np.ndarray] = {}
        eta_cache: dict[tuple[int, float], np.ndarray] = {}
        nn_cache: dict[int, np.ndarray] = {}
        cnn_cache: dict[int, int] = {}
        # Host staging by design: rows are filled from python loops below,
        # then shipped across the seam via bk.from_host.
        dist_rows, eta_rows, nn_rows, tau0 = [], [], [], np.empty(B)  # lint: ignore[backend-purity]
        c_nn = np.empty(B, dtype=np.int64)  # lint: ignore[backend-purity]
        for inst, p in zip(instances, params):
            key = id(inst)
            if key not in dist_cache:
                dist_cache[key] = inst.distance_matrix()
                nn_cache[key] = inst.nn_lists(nn)
                cnn_cache[key] = tour_length(
                    nearest_neighbor_tour(dist_cache[key]), dist_cache[key]
                )
            ekey = (key, p.eta_shift)
            if ekey not in eta_cache:
                eta_cache[ekey] = inst.heuristic_matrix(shift=p.eta_shift)
            dist_rows.append(dist_cache[key])
            eta_rows.append(eta_cache[ekey])
            nn_rows.append(nn_cache[key])
            tau0[len(dist_rows) - 1] = m / float(cnn_cache[key])
            c_nn[len(dist_rows) - 1] = cnn_cache[key]

        # Host staging by design: built here, shipped via bk.from_host below.
        pheromone = np.empty((B, n, n), dtype=np.float64)  # lint: ignore[backend-purity]
        pheromone[:] = tau0[:, None, None]
        diag = np.arange(n)  # lint: ignore[backend-purity]
        pheromone[:, diag, diag] = 0.0
        return cls(
            instances=tuple(instances),
            params=tuple(params),
            device=device,
            B=B,
            n=n,
            m=m,
            nn=nn,
            dist=_stack_or_broadcast(dist_rows, B, bk),
            eta=_stack_or_broadcast(eta_rows, B, bk),
            pheromone=bk.from_host(pheromone),
            nn_list=_stack_or_broadcast(nn_rows, B, bk),
            tau0=bk.from_host(tau0),
            c_nn=c_nn,
            alpha=bk.from_host(np.array([p.alpha for p in params], dtype=np.float64)),
            beta=bk.from_host(np.array([p.beta for p in params], dtype=np.float64)),
            rho=bk.from_host(np.array([p.rho for p in params], dtype=np.float64)),
            backend=bk,
        )

    # ----------------------------------------------------------- bookkeeping

    def sync_colony_view(self, view: ColonyState, b: int = 0) -> None:
        """Mirror row ``b``'s per-iteration outputs into a ``colony_view``.

        The pheromone matrix is a live view of the batch row; everything
        the engine *rebinds* each iteration (choice_info, tours, best
        records) must be re-pointed.  The single sync implementation every
        B=1 view (:class:`~repro.core.colony.AntSystem` and the
        ACS/MMAS views) shares.
        """
        view.choice_info = (
            None if self.choice_info is None else self.choice_info[b]
        )
        view.tours = None if self.tours is None else self.tours[b]
        view.lengths = None if self.lengths is None else self.lengths[b]
        view.iteration = self.iteration
        if self.best_lengths is not None:
            assert self.best_tours is not None
            view.best_length = int(self.best_lengths[b])
            view.best_tour = self.best_tours[b].copy()

    def colony_view(self, b: int) -> ColonyState:
        """A :class:`ColonyState` whose arrays view row ``b`` of the batch.

        The pheromone row is a writable view, so engine updates surface in
        the view immediately; per-iteration outputs (``choice_info``,
        ``tours``, best records) are synced by the caller after each
        iteration.
        """
        if not 0 <= b < self.B:
            raise ACOConfigError(f"batch row {b} outside [0, {self.B})")
        return ColonyState(
            n=self.n,
            m=self.m,
            dist=self.dist[b],
            pheromone=self.pheromone[b],
            tau0=float(self.tau0[b]),
        )


@dataclass(frozen=True)
class BoundaryUpdate:
    """Host snapshot of a batch's best-so-far records at a report boundary.

    Handed to :meth:`BatchEngine.run`'s ``on_boundary`` callback after the
    boundary host transfer — the arrays are fresh copies the callback may
    keep or mutate freely without touching engine state.
    """

    iteration: int  #: engine iteration count at this boundary (1-based)
    best_lengths: np.ndarray  #: (B,) int64 best-so-far tour lengths
    best_tours: np.ndarray  #: (B, n + 1) int32 best-so-far tours
    #: wall seconds per engine phase (:data:`repro.obs.PHASES`) spent in
    #: the ``report_every`` block this boundary closes
    phase_seconds: dict[str, float] | None = None


@dataclass
class BatchRunResult:
    """Outcome of a :meth:`BatchEngine.run` call.

    ``results[b]`` is a full per-colony
    :class:`~repro.core.colony.RunResult`, identical in structure (and, by
    the equivalence invariant, in content) to what a solo run of that row
    would return.

    Wall-clock semantics — the two fields measure different things:

    * ``wall_seconds`` (here) is the **true wall-clock of the whole batch
      run**: one shared measurement around the vectorized loop.  All
      throughput accounting (:meth:`colonies_per_second`, service stats)
      must derive from this number.
    * ``results[b].wall_seconds`` is that row's **share**,
      ``batch wall / B`` — the per-colony cost figure a solo run of row
      ``b`` effectively paid inside the batch.  Summing row shares merely
      reconstructs the batch wall; summing shares *across different
      batches* (e.g. per-request results collected from a packing service)
      under-reports real elapsed time and must not be used for throughput.
    """

    results: list  # list[RunResult]
    wall_seconds: float
    device: DeviceSpec
    #: iterations actually executed (< requested when stopped early)
    iterations_run: int = 0
    #: ``True`` when ``on_boundary`` / ``target_lengths`` ended the run early
    stopped_early: bool = False
    #: ``True`` when the run was cut short by Ctrl-C (partial results)
    interrupted: bool = False
    #: 2-opt exchanges applied across all rows and boundaries of this run
    ls_exchanges: int = 0
    #: total tour-length gain those exchanges bought
    ls_gain: int = 0
    #: wall-clock spent inside the local-search kernel during this run
    ls_wall_seconds: float = 0.0
    #: wall seconds per engine phase (:data:`repro.obs.PHASES`) over the
    #: whole run — the paper-style construct/update breakdown; phases sum
    #: to ``wall_seconds`` up to Python loop overhead
    phase_breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def B(self) -> int:
        return len(self.results)

    @property
    def best_lengths(self) -> np.ndarray:
        """Per-colony best tour lengths, shape ``(B,)``."""
        return np.array([r.best_length for r in self.results], dtype=np.int64)

    @property
    def best_row(self) -> int:
        """Index of the colony with the overall best tour."""
        return int(np.argmin(self.best_lengths))

    @property
    def best_length(self) -> int:
        return int(self.best_lengths[self.best_row])

    @property
    def best_tour(self) -> np.ndarray:
        return self.results[self.best_row].best_tour

    def colonies_per_second(self, iterations: int | None = None) -> float:
        """Throughput in colony-iterations per wall second.

        Derived from the batch-level ``wall_seconds`` only (never from
        per-row shares — see the class docstring).  ``iterations`` defaults
        to the recorded ``iterations_run``; passing it explicitly is only
        needed for results predating the field.
        """
        if iterations is None:
            iterations = self.iterations_run
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.B * iterations / self.wall_seconds


class BatchEngine:
    """Run ``B`` independent colonies per iteration, fully vectorized.

    Parameters
    ----------
    instances:
        One :class:`~repro.tsp.instance.TSPInstance` (replicated across the
        batch) or a sequence of equal-size instances.
    params:
        One :class:`~repro.core.params.ACOParams` (replicated) or a sequence
        matching ``instances``; single instance + parameter list (or vice
        versa) broadcasts to the longer side.
    device / construction / pheromone / *_options:
        As for :class:`~repro.core.colony.AntSystem`; one strategy pair is
        shared by the whole batch (strategies are stateless between calls).
    variant:
        The ACO variant the batch runs — ``"as"`` (default), ``"acs"``,
        ``"mmas"``, or a ready-made
        :class:`~repro.core.variant.VariantStrategy`.  The variant supplies
        the choice policy (how ants pick cities; ACS owns its
        pseudo-random-proportional rule, so ``construction`` is ignored
        there) and the update policy (AS deposit-all via ``pheromone``;
        ACS global-best-only and MMAS trail limits own their schedules and
        ignore ``pheromone``).  One variant is shared by the whole batch.
    variant_options:
        Extra arguments for the variant factory (e.g.
        ``{"acs": ACSParams(q0=0.95)}`` or ``{"mmas": MMASParams(...),
        "reinit_branching": 2.05}``).
    local_search:
        Boundary-time tour polishing — ``"none"`` (default), ``"2opt"``
        (the batched nn-restricted 2-opt), or a ready-made
        :class:`~repro.core.variant.LocalSearchPolicy`.  Runs at report
        boundaries on the per-row iteration-best (or best-so-far) tours,
        with improvements folded into the best-so-far records before the
        pheromone update; composes with every variant.
    local_search_options:
        Extra arguments for the local-search policy (e.g. ``{"passes": 2,
        "target": "best-so-far"}``); only valid with an algorithm selected.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` the engine publishes into —
        per-block phase-seconds histograms (``engine.phase.<name>``) and
        iteration/boundary counters.  ``None`` (the default) is the
        shared no-op :class:`~repro.obs.NullRegistry`: nothing is stored.
        Run-level phase *totals* are always kept (two float adds per phase
        per iteration) and surface as
        :attr:`BatchRunResult.phase_breakdown` either way.  Neither path
        perturbs numerics — results are bit-identical with instrumentation
        on, off, or traced (pinned by the parity suites).
    tracer:
        A :class:`~repro.obs.TraceRecorder` collecting one span per phase
        per iteration, exportable as a ``chrome://tracing`` JSON timeline
        of the whole run (``gpu-aco solve --trace``).
    backend:
        Array backend the batch executes on — a name (``"numpy"``,
        ``"cupy"``), an :class:`~repro.backend.ArrayBackend` instance, or
        ``None`` to resolve ``ACO_BACKEND`` / the numpy default.
    work:
        An externally owned :class:`~repro.backend.WorkBuffers` arena to
        use instead of the state's own — the seam that lets a long-lived
        worker (e.g. one solve-service worker thread) reuse scratch
        buffers across *engines*, not just iterations.  Must live
        on the same backend as the engine; buffer keys are geometry-stamped
        so consecutive engines of different shapes coexist safely, but one
        arena must never be driven by two engines **concurrently**.
    """

    def __init__(
        self,
        instances: TSPInstance | list[TSPInstance],
        params: ACOParams | list[ACOParams] | None = None,
        device: DeviceSpec = TESLA_M2050,
        construction: int | str | TourConstruction = 8,
        pheromone: int | str | PheromoneUpdate = 1,
        construction_options: dict | None = None,
        pheromone_options: dict | None = None,
        backend: ArrayBackend | str | None = None,
        work: WorkBuffers | None = None,
        variant: str | VariantStrategy = "as",
        variant_options: dict | None = None,
        local_search: str | LocalSearchPolicy = "none",
        local_search_options: dict | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        if isinstance(instances, TSPInstance):
            instances = [instances]
        instances = list(instances)
        if params is None:
            params = ACOParams()
        plist = [params] if isinstance(params, ACOParams) else list(params)
        if not instances or not plist:
            raise ACOConfigError("batch needs at least one colony")
        if len(instances) == 1 and len(plist) > 1:
            instances = instances * len(plist)
        if len(plist) == 1 and len(instances) > 1:
            plist = plist * len(instances)
        if len(instances) != len(plist):
            raise ACOConfigError(
                f"cannot pair {len(instances)} instances with {len(plist)} "
                "parameter sets"
            )
        self.device = device
        self.backend = resolve_backend(backend)
        self.variant = make_variant(variant, **(variant_options or {}))
        # Kernel selections a variant owns are rejected here, at the engine
        # — the single validation every entry point (library, CLI, serve)
        # goes through — never silently ignored.  The defaults (8 / 1)
        # pass, so variant-agnostic callers stay untouched.
        if self.variant.key == "acs" and construction != 8:
            raise ACOConfigError(
                "variant 'acs' owns its construction rule (pseudo-random-"
                "proportional); a construction selection is only valid "
                "with variant as/mmas"
            )
        if self.variant.key != "as" and pheromone != 1:
            raise ACOConfigError(
                f"variant {self.variant.key!r} owns its pheromone schedule; "
                "a pheromone selection is only valid with variant 'as'"
            )
        # Local-search seam: installed into the variant's third policy slot
        # before bind(); plain "none" keeps the variant's NoLocalSearch
        # default ("none" *with* options is rejected by the factory).
        if local_search != "none" or local_search_options:
            self.variant.local = make_local_search(
                local_search, **(local_search_options or {})
            )
        # Phase accounting: run totals always on, per-block histograms only
        # into a real registry, spans only into an attached tracer.  The
        # clock reads perf_counter and never touches engine arrays, so the
        # instrumented path stays bit-identical to the bare one.
        self.metrics = metrics
        self.tracer = tracer
        self.phase_clock = PhaseClock(metrics=metrics, tracer=tracer)
        self._span_labels = self.variant.span_labels()
        self._phase_mark: dict[str, float] = self.phase_clock.mark()
        # Local-search accounting over the engine's lifetime (host ints);
        # run() snapshots _ls_mark so results carry per-run deltas.
        self.ls_exchanges_total = 0
        self.ls_gain_total = 0
        self.ls_wall_seconds = 0.0
        self._ls_last: tuple[np.ndarray, np.ndarray] | None = None
        self._ls_mark: tuple[int, int, float] = (0, 0, 0.0)
        self.construction = make_construction(
            construction, **(construction_options or {})
        )
        self.pheromone = make_pheromone(pheromone, **(pheromone_options or {}))
        self.state = BatchColonyState.create(
            instances, plist, device, backend=self.backend
        )
        if work is not None:
            if work.backend.name != self.backend.name:
                raise ACOConfigError(
                    f"shared arena lives on backend {work.backend.name!r} but "
                    f"the engine runs on {self.backend.name!r}"
                )
            # Derived constants may bake in the previous owner's data (the
            # hoisted eta^beta); only the shape-checked scratch pool is safe
            # to carry across engines.
            work.reset_derived()
            self.state.work = work
        self.work = self.state.work
        # Variant state (pheromone re-init, trail limits, ACS tau0) installs
        # on the fresh batch state; the RNG layout is the variant's choice
        # policy's to define (AS/MMAS delegate to the construction family).
        self.variant.bind(self.state)
        self.choice_kernel = ChoiceKernel()
        streams = self.variant.choice.rng_streams(
            self.construction, self.state.n, self.state.m
        )
        self.rng = make_batched_rng(
            self.variant.choice.rng_kind(self.construction),
            streams,
            [p.seed for p in plist],
            backend=self.backend,
        )
        # Backend-resident best-so-far fold: seeded lazily (or at run()
        # start) from the host records, consumed by update policies that
        # deposit on the best-so-far tour.
        self._fold_len: np.ndarray | None = None
        self._fold_tours: np.ndarray | None = None

    @classmethod
    def replicas(
        cls,
        instance: TSPInstance,
        params: ACOParams | None = None,
        *,
        replicas: int,
        seed_stride: int = 1,
        **kwargs,
    ) -> "BatchEngine":
        """``replicas`` rows of one instance with seeds ``seed + i * stride``."""
        import dataclasses

        if replicas < 1:
            raise ACOConfigError(f"replicas must be >= 1, got {replicas}")
        if seed_stride == 0 and replicas > 1:
            raise ACOConfigError(
                "seed_stride must be non-zero: a zero stride would run "
                "bit-identical colonies presented as independent replicas"
            )
        base = params or ACOParams()
        plist = [
            dataclasses.replace(base, seed=base.seed + i * seed_stride)
            for i in range(replicas)
        ]
        return cls(instance, plist, **kwargs)

    @property
    def B(self) -> int:
        return self.state.B

    # ----------------------------------------------------------- checkpoint

    def checkpoint(self, path=None):
        """Snapshot the engine's mutable state (optionally writing ``path``).

        Thin delegation to :mod:`repro.core.checkpoint` — returns the
        :class:`~repro.core.checkpoint.EngineCheckpoint`; with ``path``
        the snapshot is also written atomically to disk.  Capture at a
        ``report_every`` boundary (the ``on_boundary`` hook) or while the
        engine is idle; see the module docstring for the exactness
        contract.
        """
        from repro.core.checkpoint import capture_checkpoint, save_checkpoint

        ck = capture_checkpoint(self)
        if path is not None:
            save_checkpoint(ck, path)
            metrics = self.phase_clock.metrics
            if metrics.enabled:
                metrics.inc("engine.checkpoints_written")
        return ck

    def restore(self, source) -> "BatchEngine":
        """Install checkpointed state (an
        :class:`~repro.core.checkpoint.EngineCheckpoint` or a file path)
        into this engine; returns ``self`` for chaining.  The engine must
        be configured exactly like the one that wrote the checkpoint
        (fingerprint-validated)."""
        from repro.core.checkpoint import (
            EngineCheckpoint,
            load_checkpoint,
            restore_engine,
        )

        if not isinstance(source, EngineCheckpoint):
            source = load_checkpoint(source)
        restore_engine(self, source)
        return self

    # ------------------------------------------------------------ iteration

    def _seed_fold(self) -> None:
        """(Re-)seed the backend-resident best-so-far fold from the host
        records — sentinel-initialised when nothing has run yet, so the
        first iteration's fold seeds the records."""
        bs = self.state
        xp = self.backend.xp
        if bs.best_lengths is None:
            self._fold_len = xp.full(
                (bs.B,), np.iinfo(np.int64).max, dtype=np.int64
            )
            self._fold_tours = xp.zeros((bs.B, bs.n + 1), dtype=np.int32)
        else:
            assert bs.best_tours is not None
            self._fold_len = self.backend.from_host(bs.best_lengths).copy()
            self._fold_tours = self.backend.from_host(bs.best_tours).copy()

    def _sync_fold_host(self) -> None:
        """Copy the fold into the host-side best records."""
        bs = self.state
        assert self._fold_len is not None and self._fold_tours is not None
        bs.best_lengths = self.backend.to_host(self._fold_len).copy()
        bs.best_tours = self.backend.to_host(self._fold_tours).copy()

    def _fold_best(self, tours, lengths, edges) -> IterationContext:
        """Fold this iteration's results into the best-so-far records.

        Runs on the backend with the strict-improvement / first-argmin rule
        (a row's best changes only on a strictly shorter tour, the first
        shortest of the iteration), so the fold is bit-identical to
        per-iteration host bookkeeping.  The returned
        :class:`~repro.core.variant.IterationContext` is what best-so-far
        update policies (ACS global-best, MMAS schedules) consume — the
        records already include the current iteration, as the classical
        ACS/MMAS loops record before they deposit.  They are fresh arrays: the
        engine's fold adopts them only once the iteration completes (see
        :meth:`_step`).
        """
        # lint: hot-region
        bs = self.state
        xp = self.backend.xp
        assert self._fold_len is not None and self._fold_tours is not None
        rows = xp.arange(bs.B)
        ib = xp.argmin(lengths, axis=1)
        vals = lengths[rows, ib]
        improved = vals < self._fold_len
        return IterationContext(
            iteration=bs.iteration,
            it_best=ib,
            it_best_lengths=vals,
            best_lengths=xp.where(improved, vals, self._fold_len),
            best_tours=xp.where(
                improved[:, None], tours[rows, ib], self._fold_tours
            ),
            improved=improved,
            edges=edges,
        )

    def _advance(self, collect: bool = True):
        """One iteration's kernels on the backend — no host crossing.

        The variant's choice policy builds the tours (AS/MMAS through the
        Table II construction families, ACS through its own
        pseudo-random-proportional rule), the engine evaluates lengths and
        folds the best-so-far records, then the variant's update policy
        applies the trail update — the fold-then-update order of the
        classical loops, so best-so-far deposits see the current iteration.

        Returns ``(tours, lengths, ctx, stages)`` with tours/lengths still
        backend-resident; ``stages`` is the per-row stage-report list when
        ``collect`` (a report boundary) and ``None`` between boundaries,
        where report materialization — and measurement that exists only to
        feed it, like atomic hot degrees — is skipped entirely.
        """
        # lint: hot-region
        bs = self.state
        clock, labels = self.phase_clock, self._span_labels

        t0 = perf_counter()
        tours, choice_reports, build_reports = self.variant.choice.build_batch(
            bs, self.construction, self.choice_kernel, self.rng, collect=collect
        )
        t1 = perf_counter()
        clock.add("construct", t0, t1, labels["construct"])
        lengths, edges = tour_lengths_batch(
            tours, bs.dist, xp=self.backend.xp, work=self.work
        )
        ctx = self._fold_best(tours, lengths, edges)
        t2 = perf_counter()
        clock.add("fold", t1, t2)
        # The local-search seam rides the run loop: polish only at
        # report boundaries (collect iterations), before the update seam,
        # so best-so-far deposits spread the improved edges.
        if collect and self.variant.local.enabled:
            ctx = self._apply_local_search(tours, lengths, ctx)
            t_ls = perf_counter()
            clock.add("local-search", t2, t_ls, labels["local-search"])
            t2 = t_ls
        pher_reports = self.variant.update.update_batch(
            bs, self.pheromone, tours, lengths, ctx, collect=collect
        )
        clock.add("update", t2, perf_counter(), labels["update"])

        if not collect:
            return tours, lengths, ctx, None
        stages: list[list] = [[] for _ in range(bs.B)]
        for reps in (choice_reports, build_reports, pher_reports):
            for b, rep in enumerate(reps):
                stages[b].append(rep)
        return tours, lengths, ctx, stages

    def _apply_local_search(
        self, tours, lengths, ctx: IterationContext
    ) -> IterationContext:
        """Boundary-time polish of the selected per-row tours.

        Improvements fold into the context's best-so-far records (strict
        improvement, like :meth:`_fold_best`); for the
        ``iteration-best`` target the polished tours also replace the
        winning ants' rows in place, so iteration-best deposits (AS
        deposit-all, the MMAS schedule) and the boundary reports all see
        the improved edges (their edge-table rows are rebuilt).  Per-row
        exchange/gain counts go to the boundary's reports.
        """
        bs = self.state
        xp = self.backend.xp
        policy = self.variant.local
        it_best_lengths = ctx.it_best_lengths
        if policy.target == "best-so-far":
            res = policy.improve(bs, ctx.best_tours, ctx.best_lengths)
        else:
            rows = xp.arange(bs.B)
            res = policy.improve(bs, tours[rows, ctx.it_best], ctx.it_best_lengths)
            tours[rows, ctx.it_best] = res.tours
            lengths[rows, ctx.it_best] = res.lengths
            ctx.edges[rows, ctx.it_best] = (
                edge_indices(res.tours, xp) + (rows * (bs.n * bs.n))[:, None]
            )
            it_best_lengths = res.lengths
        better = res.lengths < ctx.best_lengths
        ex = self.backend.to_host(res.exchanges)
        gain = self.backend.to_host(res.initial_lengths - res.lengths)
        self._ls_last = (ex, gain)
        self.ls_exchanges_total += int(ex.sum())
        self.ls_gain_total += int(gain.sum())
        self.ls_wall_seconds += res.wall_seconds
        return IterationContext(
            iteration=ctx.iteration,
            it_best=ctx.it_best,
            it_best_lengths=it_best_lengths,
            best_lengths=xp.where(better, res.lengths, ctx.best_lengths),
            best_tours=xp.where(better[:, None], res.tours, ctx.best_tours),
            improved=ctx.improved | better,
            edges=ctx.edges,
        )

    def _ls_fields(self, b: int) -> dict:
        """Row ``b``'s local-search stats of the current boundary, as
        :class:`~repro.core.report.IterationReport` keyword fields."""
        if self._ls_last is None:
            return {}
        ex, gain = self._ls_last
        return {"ls_exchanges": int(ex[b]), "ls_gain": int(gain[b])}

    def _step(
        self, boundary: bool, pending: list, bests: list[list[int]]
    ) -> list[IterationReport] | None:
        """One iteration of the run loop; a boundary also syncs the host.

        The iteration counts only once its update has run: then the fold
        adopts the context's records, its iteration-best lengths join
        ``pending`` (still on the backend) and ``state.iteration``
        advances — so an interrupt inside the kernels leaves exactly the
        completed iterations behind.  At a boundary, tours, lengths, the
        fold and ``pending`` cross to the host (the latter into ``bests``)
        and one report per row is returned.  The reports hold no tours:
        :meth:`run` keeps every boundary's reports, so a tour reference
        there would pin one ``(B, m, n + 1)`` batch per boundary.
        """
        bs = self.state
        tours, lengths, ctx, stages = self._advance(collect=boundary)
        self._fold_len, self._fold_tours = ctx.best_lengths, ctx.best_tours
        pending.append(ctx.it_best_lengths)
        bs.iteration += 1
        if not boundary:
            return None
        t0 = perf_counter()
        bs.tours = self.backend.to_host(tours)
        bs.lengths = self.backend.to_host(lengths)
        self._sync_fold_host()
        self._flush_bests(pending, bests)
        reports = [
            IterationReport(
                iteration=bs.iteration,
                lengths=bs.lengths[b],
                stages=stages[b],
                **self._ls_fields(b),
            )
            for b in range(bs.B)
        ]
        self.phase_clock.add("host-sync", t0, perf_counter())
        return reports

    def _flush_bests(self, pending: list, bests: list[list[int]]) -> None:
        """Move the pending backend-resident iteration-best lengths into
        the per-row host lists (one transfer for the whole block)."""
        if not pending:
            return
        host_vals = self.backend.to_host(self.backend.xp.stack(pending))
        pending.clear()
        for b in range(self.state.B):
            bests[b].extend(int(v) for v in host_vals[:, b])

    def run_iteration(self) -> list[IterationReport]:
        """One full variant iteration for every colony; one report per row.

        This is one boundary step of :meth:`run`'s loop: every stage runs
        on ``self.backend`` and tours and lengths cross to the host once,
        at the end of the iteration (a no-copy pass-through on numpy).
        Unlike a run's reports, each carries its row's ``tours``.
        """
        if self._fold_len is None:
            self._seed_fold()
        reports = self._step(True, [], [[] for _ in range(self.B)])
        for b, rep in enumerate(reports):
            rep.tours = self.state.tours[b]
        return reports

    def run(
        self,
        iterations: int,
        report_every: int = 1,
        on_boundary: Callable[[BoundaryUpdate], bool | None] | None = None,
        target_lengths: int | np.ndarray | None = None,
    ) -> BatchRunResult:
        """Run several iterations for every colony, tracking per-row bests.

        One loop serves every ``report_every=K``: iterations run
        device-resident with best-so-far records folded on the backend,
        and every K-th iteration (and the final one) is a report boundary
        — tours/lengths cross to the host and
        :class:`~repro.core.report.IterationReport` rows are materialized
        there only.  ``K=1`` (the default) makes every iteration a
        boundary.  The best tour, best length, per-iteration best lengths
        and the final pheromone stack are bit-identical for every K; only
        the ``reports`` lists thin out (boundary iterations only).  The
        reports carry lengths, stage records and 2-opt counters but no
        tours, so the run holds one tour batch at a time whatever its
        length; tours reach the caller through ``on_boundary``.

        ``on_boundary`` is called at every report boundary (so every K-th
        iteration and the last) with a :class:`BoundaryUpdate` snapshot —
        the streaming/deadline seam: callers observe best-so-far progress
        without forcing ``K=1``.  Returning ``True`` stops the run after
        that boundary.  ``target_lengths`` (scalar or ``(B,)``) stops the
        run at the first boundary where **every** row's best is at or below
        its target.  Early-stopped results are flagged ``stopped_early``
        and carry ``iterations_run < iterations``; neither hook perturbs
        the numerics of the iterations that did run.

        Ctrl-C during the loop raises
        :class:`~repro.errors.RunInterrupted` carrying a partial
        ``BatchRunResult`` with every row's best-so-far as of the last
        completed iteration, at any K (bare ``KeyboardInterrupt``
        propagates when nothing completed).
        """
        if iterations < 1:
            raise ACOConfigError(f"iterations must be >= 1, got {iterations}")
        if report_every < 1:
            raise ACOConfigError(
                f"report_every must be >= 1, got {report_every}"
            )
        targets = None
        if target_lengths is not None:
            targets = np.broadcast_to(
                np.asarray(target_lengths, dtype=np.int64), (self.state.B,)
            )
        bs = self.state
        start_iteration = bs.iteration
        self._seed_fold()
        self._ls_mark = (
            self.ls_exchanges_total,
            self.ls_gain_total,
            self.ls_wall_seconds,
        )
        self._phase_mark = self.phase_clock.mark()
        reports: list[list[IterationReport]] = [[] for _ in range(bs.B)]
        bests: list[list[int]] = [[] for _ in range(bs.B)]
        pending: list = []  # (B,) iteration-best lengths not yet on the host
        stopped_early = False
        clock = WallClock()
        try:
            with clock:
                for it in range(iterations):
                    boundary = (it + 1) % report_every == 0 or it + 1 == iterations
                    step_reports = self._step(boundary, pending, bests)
                    if step_reports is None:
                        continue
                    for b, rep in enumerate(step_reports):
                        reports[b].append(rep)
                    phase_seconds = self.phase_clock.flush_block()
                    if self._boundary_hook(on_boundary, targets, phase_seconds):
                        stopped_early = it + 1 < iterations
                        break
        except KeyboardInterrupt:
            if bs.iteration > start_iteration:
                # Completed iterations since the last boundary are still on
                # the backend; an interrupted one never reached the fold.
                self._sync_fold_host()
                self._flush_bests(pending, bests)
            if bs.best_lengths is None:
                raise  # nothing completed; keep the plain Ctrl-C semantics
            partial = self._collect_results(
                reports, bests, clock.elapsed,
                iterations_run=bs.iteration - start_iteration,
                stopped_early=True, interrupted=True,
            )
            raise RunInterrupted(partial, "batch run interrupted") from None
        return self._collect_results(
            reports, bests, clock.elapsed,
            iterations_run=bs.iteration - start_iteration,
            stopped_early=stopped_early,
        )

    def _collect_results(
        self,
        reports: list[list[IterationReport]],
        bests: list[list[int]],
        elapsed: float,
        *,
        iterations_run: int,
        stopped_early: bool = False,
        interrupted: bool = False,
    ) -> BatchRunResult:
        """Fold the loop's bookkeeping into a :class:`BatchRunResult`.

        Row ``wall_seconds`` is the per-row share ``elapsed / B`` (see
        :class:`BatchRunResult` for the two fields' semantics).
        """
        from repro.core.colony import RunResult

        bs = self.state
        metrics = self.phase_clock.metrics
        if metrics.enabled:
            metrics.inc("engine.runs")
            metrics.inc("engine.iterations", iterations_run)
            metrics.inc("engine.colony_iterations", iterations_run * bs.B)
        assert bs.best_tours is not None and bs.best_lengths is not None
        results = [
            RunResult(
                best_tour=bs.best_tours[b].copy(),
                best_length=int(bs.best_lengths[b]),
                iteration_best_lengths=bests[b],
                reports=reports[b],
                wall_seconds=elapsed / bs.B,
                device=self.device,
            )
            for b in range(bs.B)
        ]
        return BatchRunResult(
            results=results,
            wall_seconds=elapsed,
            device=self.device,
            iterations_run=iterations_run,
            stopped_early=stopped_early,
            interrupted=interrupted,
            ls_exchanges=self.ls_exchanges_total - self._ls_mark[0],
            ls_gain=self.ls_gain_total - self._ls_mark[1],
            ls_wall_seconds=self.ls_wall_seconds - self._ls_mark[2],
            phase_breakdown=self.phase_clock.since(self._phase_mark),
        )

    def _boundary_hook(self, on_boundary, targets, phase_seconds=None) -> bool:
        """Fire the boundary callback / target check on fresh host records.

        Runs strictly after the boundary host transfer, so the snapshot
        handed out is already-copied host data; the hook cannot influence
        the iteration numerics, only whether the loop continues.
        """
        bs = self.state
        if on_boundary is None and targets is None:
            return False
        assert bs.best_lengths is not None and bs.best_tours is not None
        stop = False
        if on_boundary is not None:
            update = BoundaryUpdate(
                iteration=bs.iteration,
                best_lengths=bs.best_lengths.copy(),
                best_tours=bs.best_tours.copy(),
                phase_seconds=phase_seconds,
            )
            stop = bool(on_boundary(update))
        if targets is not None and bool(np.all(bs.best_lengths <= targets)):
            stop = True
        return stop
