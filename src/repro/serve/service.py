"""Async micro-batching solve service: request packing over the batch engine.

The paper's throughput comes from keeping many ants and colonies resident
on the device at once; production traffic arrives as *small individual
solve requests*.  This module closes that gap the way GPU ACO serving
systems do (Skinderowicz 2016; the ICACIT 2014 GPGPU-ACO overview): a
queueing front-end **manufactures batches** out of concurrent requests.

Requests are bucketed by everything a :class:`~repro.core.batch.BatchEngine`
requires rows to share — instance size ``n``, colony size ``m``, candidate
width ``nn``, iteration budget, ``report_every`` and the kernel pair — and
packed, up to ``max_batch`` per batch, into single vectorized engine runs
on worker threads as soon as one is idle (see :class:`SolveService`).
Per-row params (seed, alpha, beta, rho, eta_shift) and per-row *instances*
may differ freely: the engine's solo-equivalence invariant guarantees each
packed row is bit-identical to a solo run of that request, so packing is a
pure throughput transform with no numerical caveat.

Streaming rides the engine's ``on_boundary`` hook: at every ``report_every``
boundary each caller receives a :class:`SolveUpdate` with its row's
best-so-far, and per-request deadlines / target lengths resolve early —
the whole batch stops as soon as every rider is satisfied.

Concurrency model: one asyncio event loop owns all queues, handles and
bookkeeping; engine runs execute in a :class:`~concurrent.futures.
ThreadPoolExecutor` (numpy/CuPy kernels release the GIL), each worker
thread owning a private :class:`~repro.backend.WorkBuffers` arena reused
across batches.  Worker threads talk back only via
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.backend import WorkBuffers, resolve_backend
from repro.core.batch import BatchEngine, BatchRunResult, BoundaryUpdate
from repro.core.colony import RunResult
from repro.core.construction import CONSTRUCTION_VERSIONS
from repro.core.params import ACOParams
from repro.core.pheromone import PHEROMONE_VERSIONS
from repro.errors import (
    ACOConfigError,
    ServeError,
    ServeTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs import PHASE_HISTOGRAMS, MetricsRegistry
from repro.serve.faults import FaultInjector, FaultPlan
from repro.simt.device import TESLA_M2050, DeviceSpec
from repro.tsp.instance import TSPInstance

__all__ = [
    "BatchKey",
    "ServiceStats",
    "SolveHandle",
    "SolveRequest",
    "SolveService",
    "SolveUpdate",
]


class BatchKey(NamedTuple):
    """Everything packed rows must share: the size-bucket queue key.

    Two requests land in the same bucket iff an engine batch can legally
    hold both as rows — equal array geometry (``n``, ``m``, ``nn``), equal
    iteration schedule, one kernel pair and one ACO variant (a batch runs
    a single :class:`~repro.core.variant.VariantStrategy`).  Per-row
    params and instance *data* are free to differ.
    """

    n: int
    m: int
    nn: int
    iterations: int
    report_every: int
    construction: int
    pheromone: int
    variant: str = "as"
    local_search: str = "none"
    ls_passes: int | None = None
    ls_target: str = "iteration-best"


@dataclass(frozen=True)
class SolveRequest:
    """One caller's solve job, as queued by :class:`SolveService`.

    Attributes
    ----------
    instance / params:
        What a solo :class:`~repro.core.AntSystem` would take; results are
        bit-identical to that solo run (unless resolved early).
    iterations:
        Iteration budget.
    report_every:
        Streaming granularity: the caller receives one :class:`SolveUpdate`
        per K-iteration boundary.  Larger K amortises host transfers
        exactly as in :meth:`~repro.core.batch.BatchEngine.run`.
    deadline:
        Optional wall-clock budget in **seconds from submission**.  At the
        first boundary past the deadline the request resolves with its
        best-so-far (the batch keeps running for co-packed riders that
        still have budget).
    target_length:
        Optional solution-quality early-out: resolve at the first boundary
        whose best is at or below this length.
    construction / pheromone:
        Kernel versions (part of the bucket key).
    variant:
        ACO variant the request runs (``"as"``, ``"acs"`` or ``"mmas"``;
        part of the bucket key — a packed batch runs one variant).
    local_search / ls_passes / ls_target:
        Boundary-time local search (``"none"`` or ``"2opt"``, optional
        pass cap, polish target) — part of the bucket key, since a batch
        runs one local-search policy.  The ls knobs are only valid with an
        algorithm selected (accepting them with ``"none"`` would split
        buckets of execution-identical requests).
    timeout:
        Optional hard wall-clock budget in **seconds from submission**.
        Unlike ``deadline`` (which resolves with the best-so-far), a
        timed-out request **fails** with
        :class:`~repro.errors.ServeTimeoutError`.  Enforced lazily at
        scheduling points — batch launch, report boundaries, and retry
        time — not by a per-request timer.
    priority:
        Load-shed ordering (higher = more important, default 0).  When
        :meth:`SolveService.submit_nowait` finds the service at capacity
        it sheds the lowest-priority queued request that ranks strictly
        below the newcomer before refusing.  Not part of the bucket key —
        priorities pack together; they only decide who is shed first.
    """

    instance: TSPInstance
    params: ACOParams = field(default_factory=ACOParams)
    iterations: int = 20
    report_every: int = 1
    deadline: float | None = None
    target_length: int | None = None
    construction: int = 8
    pheromone: int = 1
    variant: str = "as"
    local_search: str = "none"
    ls_passes: int | None = None
    ls_target: str = "iteration-best"
    timeout: float | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        from repro.core.variant import LOCAL_SEARCH, LS_TARGETS, VARIANTS

        # Kernel versions are checked here, at submit time: an unknown one
        # would otherwise fail its whole batch when the engine is built.
        if self.construction not in CONSTRUCTION_VERSIONS:
            raise ACOConfigError(
                f"unknown construction version {self.construction!r}; "
                f"valid: {sorted(CONSTRUCTION_VERSIONS)}"
            )
        if self.pheromone not in PHEROMONE_VERSIONS:
            raise ACOConfigError(
                f"unknown pheromone version {self.pheromone!r}; "
                f"valid: {sorted(PHEROMONE_VERSIONS)}"
            )
        if self.variant not in VARIANTS:
            raise ACOConfigError(
                f"unknown variant {self.variant!r}; valid: {sorted(VARIANTS)}"
            )
        if self.local_search not in LOCAL_SEARCH:
            raise ACOConfigError(
                f"unknown local search {self.local_search!r}; "
                f"valid: {sorted(LOCAL_SEARCH)}"
            )
        if self.ls_target not in LS_TARGETS:
            raise ACOConfigError(
                f"unknown ls target {self.ls_target!r}; "
                f"valid: {list(LS_TARGETS)}"
            )
        if self.ls_passes is not None and self.ls_passes < 1:
            raise ACOConfigError(
                f"ls_passes must be >= 1, got {self.ls_passes}"
            )
        if self.local_search == "none" and (
            self.ls_passes is not None or self.ls_target != "iteration-best"
        ):
            raise ACOConfigError(
                "ls_passes/ls_target require a local-search algorithm "
                "(got local_search='none')"
            )
        # Kernel selections a variant owns are rejected, never silently
        # ignored (the CLI contract) — and since ignored values would still
        # split BatchKey buckets, accepting them would also fragment the
        # packing of execution-identical requests.  The defaults (8 / 1)
        # pass, so clients spelling them out stay compatible.
        if self.variant == "acs" and self.construction != 8:
            raise ACOConfigError(
                "variant 'acs' owns its construction rule (pseudo-random-"
                "proportional); 'construction' is only valid with variant "
                "as/mmas"
            )
        if self.variant != "as" and self.pheromone != 1:
            raise ACOConfigError(
                f"variant {self.variant!r} owns its pheromone schedule; "
                "'pheromone' is only valid with variant 'as'"
            )
        if self.iterations < 1:
            raise ACOConfigError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.report_every < 1:
            raise ACOConfigError(
                f"report_every must be >= 1, got {self.report_every}"
            )
        if self.deadline is not None and self.deadline <= 0.0:
            raise ACOConfigError(f"deadline must be > 0, got {self.deadline}")
        if self.timeout is not None and self.timeout <= 0.0:
            raise ACOConfigError(f"timeout must be > 0, got {self.timeout}")
        if self.target_length is not None and self.target_length < 1:
            raise ACOConfigError(
                f"target_length must be >= 1, got {self.target_length}"
            )

    @property
    def bucket_key(self) -> BatchKey:
        n = self.instance.n
        return BatchKey(
            n=n,
            m=self.params.resolve_ants(n),
            nn=self.params.resolve_nn(n),
            iterations=self.iterations,
            report_every=self.report_every,
            construction=self.construction,
            pheromone=self.pheromone,
            variant=self.variant,
            local_search=self.local_search,
            ls_passes=self.ls_passes,
            ls_target=self.ls_target,
        )


@dataclass(frozen=True)
class SolveUpdate:
    """One streamed best-so-far observation for a single request."""

    iteration: int  #: engine iteration at the boundary
    best_length: int  #: this request's best tour length so far


_DONE = object()  # stream terminator sentinel


class SolveHandle:
    """Caller-side view of one submitted request.

    Async-iterate the handle to stream :class:`SolveUpdate` boundary
    observations (ends when the request resolves), and ``await
    handle.result()`` for the final :class:`~repro.core.colony.RunResult`.
    Both can be used together; the stream always delivers every boundary
    update *before* the result resolves.
    """

    def __init__(self, request: SolveRequest, loop: asyncio.AbstractEventLoop) -> None:
        self.request = request
        self._updates: asyncio.Queue = asyncio.Queue()
        self._result: asyncio.Future = loop.create_future()

    # ------------------------------------------------ service side (loop thread)

    def _push_update(self, update: SolveUpdate) -> None:
        if not self._result.done():
            self._updates.put_nowait(update)

    def _resolve(self, result: RunResult) -> None:
        if not self._result.done():
            self._result.set_result(result)
            self._updates.put_nowait(_DONE)

    def _reject(self, exc: BaseException) -> None:
        if not self._result.done():
            self._result.set_exception(exc)
            self._updates.put_nowait(_DONE)

    # ------------------------------------------------------------- caller side

    @property
    def done(self) -> bool:
        return self._result.done()

    async def result(self) -> RunResult:
        """The final result (bit-identical to a solo run unless the request
        resolved early on a deadline/target, in which case it is the
        best-so-far at the resolving boundary)."""
        return await asyncio.shield(self._result)

    async def __aiter__(self):
        while True:
            item = await self._updates.get()
            if item is _DONE:
                # Re-arm so a second iteration (or a late consumer) ends
                # immediately instead of hanging on an empty queue.
                self._updates.put_nowait(_DONE)
                return
            yield item


#: what ended a request: a full run, an early-out, a failed batch, a
#: hard wall-clock timeout, or a load-shed eviction
REQUEST_OUTCOMES = ("completed", "target", "deadline", "failed", "timeout", "shed")

#: why a bucket launched: filled to ``max_batch``, partial at once on an idle
#: worker, partial when its key's reply window ran out, or by the drain path
FLUSH_CAUSES = ("full", "idle", "max_wait", "drain")


@dataclass
class ServiceStats:
    """Aggregate service counters plus request-lifecycle distributions.

    All throughput numbers derive from **batch-level** wall clocks
    (:attr:`~repro.core.batch.BatchRunResult.wall_seconds`), never from
    summed per-row shares — see :class:`~repro.core.batch.BatchRunResult`
    for why summing shares across batches under-reports.

    Distributions (queue wait, batch wall, end-to-end request latency,
    bucket occupancy at flush) live as log-bucket histograms in
    :attr:`registry` — a :class:`~repro.obs.MetricsRegistry` whose
    snapshot the ``{"op": "stats"}`` admin line returns.

    Thread model: the ``observe_*`` mutators are called from the asyncio
    loop thread (submission, flushes, completed batches) **and** from
    engine worker threads (early resolutions happen inside the engine's
    ``on_boundary`` callback), so every mutation and :meth:`snapshot` hold
    :attr:`_lock` — unguarded ``+=`` from two threads can tear.
    """

    submitted: int = 0  # guarded-by: _lock
    completed: int = 0  #: resolved with a full run — guarded-by: _lock
    resolved_by_target: int = 0  # guarded-by: _lock
    resolved_by_deadline: int = 0  # guarded-by: _lock
    failed: int = 0  # guarded-by: _lock
    requests_timed_out: int = 0  #: hard wall-clock timeouts — guarded-by: _lock
    requests_shed: int = 0  #: load-shed evictions — guarded-by: _lock
    requests_retried: int = 0  #: rows re-run after a batch failure — guarded-by: _lock
    batches_bisected: int = 0  #: failed packs split for quarantine — guarded-by: _lock
    batches: int = 0  # guarded-by: _lock
    rows_packed: int = 0  #: total rows across all batches — guarded-by: _lock
    ls_batches: int = 0  #: batches with local search enabled — guarded-by: _lock
    batches_per_bucket: dict[BatchKey, int] = field(default_factory=dict)  # guarded-by: _lock
    rows_per_bucket: dict[BatchKey, int] = field(default_factory=dict)  # guarded-by: _lock
    # guarded-by: _lock
    flush_causes: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FLUSH_CAUSES, 0)
    )
    engine_wall_seconds: float = 0.0  #: sum of batch-level walls — guarded-by: _lock
    colony_iterations: int = 0  #: sum of B * iterations_run — guarded-by: _lock
    registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False
    )

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self.queue_wait = self.registry.histogram("serve.queue_wait_seconds")
        self.batch_wall = self.registry.histogram("serve.batch_wall_seconds")
        self.request_latency = self.registry.histogram(
            "serve.request_latency_seconds"
        )
        self.batch_rows = self.registry.histogram("serve.batch_rows")
        # Every batch's engine publishes its per-block phase seconds here;
        # created up front so the stats plane names every phase, observed
        # or not.
        for key in PHASE_HISTOGRAMS:
            self.registry.histogram(key)

    # ----------------------------------------------------------- observation

    def observe_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def observe_flush(
        self, key: BatchKey, cause: str, queue_waits: list[float]
    ) -> None:
        """One bucket launch: why it flushed, how full it was, and how long
        each packed request had queued."""
        if cause not in self.flush_causes:
            raise ACOConfigError(
                f"unknown flush cause {cause!r}; valid: {FLUSH_CAUSES}"
            )
        with self._lock:
            self.flush_causes[cause] += 1
            self.rows_per_bucket[key] = (
                self.rows_per_bucket.get(key, 0) + len(queue_waits)
            )
        self.registry.inc(f"serve.flush.{cause}")
        self.batch_rows.observe(len(queue_waits))
        for wait in queue_waits:
            self.queue_wait.observe(wait)

    def observe_batch(self, key: BatchKey, batch: BatchRunResult) -> None:
        """One finished engine run (loop thread, after the worker returns)."""
        with self._lock:
            self.batches += 1
            self.rows_packed += batch.B
            if key.local_search != "none":
                self.ls_batches += 1
            self.batches_per_bucket[key] = (
                self.batches_per_bucket.get(key, 0) + 1
            )
            self.engine_wall_seconds += batch.wall_seconds
            self.colony_iterations += batch.B * batch.iterations_run
        self.batch_wall.observe(batch.wall_seconds)

    def observe_resolution(self, outcome: str, latency: float) -> None:
        """One request reaching its terminal state; ``latency`` is seconds
        from submission.  Early outcomes (``target``/``deadline``) are
        recorded from engine **worker threads** at the resolving boundary
        — the reason every counter here is lock-guarded."""
        if outcome not in REQUEST_OUTCOMES:
            raise ACOConfigError(
                f"unknown outcome {outcome!r}; valid: {REQUEST_OUTCOMES}"
            )
        with self._lock:
            if outcome == "completed":
                self.completed += 1
            elif outcome == "target":
                self.resolved_by_target += 1
            elif outcome == "deadline":
                self.resolved_by_deadline += 1
            elif outcome == "timeout":
                self.requests_timed_out += 1
            elif outcome == "shed":
                self.requests_shed += 1
            else:
                self.failed += 1
        self.request_latency.observe(latency)
        self.registry.inc(f"serve.resolved.{outcome}")

    def observe_retry(self, rows: int) -> None:
        """``rows`` requests being re-run after their batch failed (worker
        failures are observed on the loop thread, but keep the lock — the
        snapshot path reads from anywhere)."""
        with self._lock:
            self.requests_retried += rows
        self.registry.inc("serve.requests_retried", rows)

    def observe_bisection(self) -> None:
        """One failed pack split into halves for quarantine."""
        with self._lock:
            self.batches_bisected += 1
        self.registry.inc("serve.batches_bisected")

    # ------------------------------------------------------------- summaries

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.rows_packed / self.batches

    @property
    def colonies_per_second(self) -> float:
        """Colony-iterations per second of **engine** wall time."""
        if self.engine_wall_seconds <= 0.0:
            return 0.0
        return self.colony_iterations / self.engine_wall_seconds

    @property
    def batches_per_variant(self) -> dict[str, int]:
        """Batch counts keyed by ACO variant (folded over bucket keys)."""
        counts: dict[str, int] = {}
        for key, n in self.batches_per_bucket.items():
            counts[key.variant] = counts.get(key.variant, 0) + n
        return counts

    def snapshot(self) -> dict:
        """A JSON-friendly summary (the ``{"op": "stats"}`` wire payload).

        Batch-level sums plus the request-lifecycle distributions
        (count/mean/p50/p95/p99/max per histogram).
        """
        with self._lock:
            summary = {
                # Which tier produced this payload: a worker shard answers
                # "service"; the shard router's fold answers "router".
                "source": "service",
                "submitted": self.submitted,
                "completed": self.completed,
                "resolved_by_target": self.resolved_by_target,
                "resolved_by_deadline": self.resolved_by_deadline,
                "failed": self.failed,
                "requests_timed_out": self.requests_timed_out,
                "requests_shed": self.requests_shed,
                "requests_retried": self.requests_retried,
                "batches_bisected": self.batches_bisected,
                "batches": self.batches,
                "rows_packed": self.rows_packed,
                "ls_batches": self.ls_batches,
                "batches_per_variant": self.batches_per_variant,
                # BatchKey tuples stringified for the JSON wire.
                "rows_per_bucket": {
                    str(k): v for k, v in sorted(
                        self.rows_per_bucket.items(), key=lambda kv: str(kv[0])
                    )
                },
                "mean_batch_size": round(self.mean_batch_size, 3),
                "engine_wall_seconds": round(self.engine_wall_seconds, 6),
                "colony_iterations": self.colony_iterations,
                "colonies_per_second": round(self.colonies_per_second, 3),
                "flush_causes": dict(self.flush_causes),
            }
        summary["queue_wait_seconds"] = self.queue_wait.snapshot()
        summary["batch_wall_seconds"] = self.batch_wall.snapshot()
        summary["request_latency_seconds"] = self.request_latency.snapshot()
        summary["batch_rows"] = self.batch_rows.snapshot()
        for key in PHASE_HISTOGRAMS:
            summary[key] = self.registry.histogram(key).snapshot()
        return summary


class _Pending:
    """Book-keeping wrapper pairing a request with its handle.

    ``resolved``/``early`` are written by the worker thread while its batch
    runs and read on the loop thread only after the run completes (the
    executor-future completion is the synchronisation point).
    """

    __slots__ = (
        "request",
        "handle",
        "submitted_at",
        "deadline_at",
        "timeout_at",
        "retries_left",
        "resolved",
        "early",
    )

    def __init__(
        self,
        request: SolveRequest,
        handle: SolveHandle,
        now: float,
        retry_budget: int = 0,
    ) -> None:
        self.request = request
        self.handle = handle
        self.submitted_at = now
        self.deadline_at = None if request.deadline is None else now + request.deadline
        self.timeout_at = None if request.timeout is None else now + request.timeout
        self.retries_left = retry_budget
        self.resolved = False
        self.early: str | None = None  # "target" | "deadline"


class SolveService:
    """Asyncio solve service packing concurrent requests into shared batches.

    Parameters
    ----------
    max_batch:
        Largest batch one engine run may hold (``B``).
    workers:
        Engine worker threads; each owns a private
        :class:`~repro.backend.WorkBuffers` arena reused across batches.
        While fewer than ``workers`` packs execute, an idle worker takes up
        to ``max_batch`` rows from the ready bucket whose head is oldest:
        full, or with no open reply window for its key, or holding the rows
        its key's last pack returned plus those queued when it completed
        (the window lasts that pack's batch wall from its completion).
    max_pending:
        Backpressure bound on requests in flight (queued + running).
        :meth:`submit` suspends the caller while the service is at the
        bound; :meth:`submit_nowait` sheds lower-priority queued work
        first and raises :class:`~repro.errors.ServiceOverloadedError`
        only when nothing outranked is queued.
    retry_budget:
        Re-run attempts each request gets after batch failures.  A failed
        pack's live rows are re-run in halves (quarantine bisection), so
        an innocent rider co-batched with one poisoned request burns
        ``ceil(log2(max_batch))`` budget isolating it; the default covers
        that for ``max_batch=8``.  ``0`` disables retries (first failure
        rejects the whole pack, the pre-isolation behaviour).
    retry_backoff / retry_jitter_seed:
        Exponential-backoff base in seconds between retry waves
        (``base * 2^attempt``, with a seeded multiplicative jitter in
        ``[1, 2)``).  ``0`` retries immediately (tests).  The jitter RNG
        is seeded, so backoff schedules are reproducible.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` (or ready
        :class:`~repro.serve.faults.FaultInjector`) — the deterministic
        chaos seam.  ``None`` (production) injects nothing.
    backend / device:
        Engine construction knobs, shared by every batch.

    Use as an async context manager (``async with SolveService(...) as s:``)
    or call :meth:`start` / :meth:`drain` explicitly.  :meth:`drain` is the
    graceful shutdown path: stop accepting, flush queued requests as final
    (possibly partial) batches, wait for in-flight engine runs, then close
    every stream.
    """

    def __init__(
        self,
        *,
        max_batch: int = 8,
        workers: int = 1,
        max_pending: int = 256,
        retry_budget: int = 3,
        retry_backoff: float = 0.05,
        retry_jitter_seed: int = 0,
        faults: FaultPlan | FaultInjector | None = None,
        backend=None,
        device: DeviceSpec = TESLA_M2050,
    ) -> None:
        if max_batch < 1:
            raise ACOConfigError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ACOConfigError(f"workers must be >= 1, got {workers}")
        if max_pending < max_batch:
            raise ACOConfigError(
                f"max_pending ({max_pending}) must be >= max_batch ({max_batch})"
            )
        if retry_budget < 0:
            raise ACOConfigError(
                f"retry_budget must be >= 0, got {retry_budget}"
            )
        if retry_backoff < 0.0:
            raise ACOConfigError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.max_batch = max_batch
        self.workers = workers
        self.max_pending = max_pending
        self.retry_budget = retry_budget
        self.retry_backoff = retry_backoff
        # Loop-thread-only RNG: retry waves are scheduled from async code,
        # so a seeded generator makes backoff schedules reproducible.
        self._retry_rng = random.Random(retry_jitter_seed)  # guarded-by: loop
        self._faults = (
            FaultInjector(faults) if isinstance(faults, FaultPlan) else faults
        )
        self.device = device
        self._backend = resolve_backend(backend)
        self.stats = ServiceStats()
        self._buckets: dict[BatchKey, deque[_Pending]] = {}  # guarded-by: loop
        # key -> reply window (closes_at, rows) — guarded-by: loop
        self._windows: dict[BatchKey, tuple[float, int]] = {}
        self._inflight: set[asyncio.Task] = set()  # guarded-by: loop
        self._accepting = False  # guarded-by: loop
        self._closed = False  # guarded-by: loop
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatcher: asyncio.Task | None = None  # guarded-by: loop
        self._wake: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._slots_taken = 0  # loop-thread mirror of acquired slots — guarded-by: loop
        self._idle_workers: asyncio.Semaphore | None = None
        self._busy = 0  # packs executing on a worker — guarded-by: loop
        self._executor: ThreadPoolExecutor | None = None
        self._last_batch_at: float | None = None  # guarded-by: loop
        self._tls = threading.local()

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> "SolveService":
        """Bind to the running loop and start accepting requests."""
        if self._closed:
            raise ServiceClosedError("service already drained; create a new one")
        if self._accepting:
            return self
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(self.max_pending)
        self._idle_workers = asyncio.Semaphore(self.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="aco-serve"
        )
        self._accepting = True
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="aco-serve-dispatcher"
        )
        return self

    async def __aenter__(self) -> "SolveService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish everything accepted.

        Queued requests launch as final (possibly undersized) batches as
        workers go idle, in-flight engine runs complete, every stream is
        terminated, then the worker pool shuts down.  Idempotent.
        """
        if self._closed:
            return
        self._accepting = False
        if self._loop is not None:
            # Every queued bucket is now ready (cause "drain").
            while self._buckets or self._inflight:
                await self._launch_ready()
                if self._inflight:
                    await asyncio.wait(
                        self._inflight, return_when=asyncio.FIRST_COMPLETED
                    )
            if self._dispatcher is not None:
                # Woken, it sees ``_accepting`` off and returns.  Cancelling
                # it instead can be lost inside ``wait_for`` (Python 3.11).
                self._wake.set()
                await self._dispatcher
                self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._closed = True

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def pending(self) -> int:
        """Requests queued in buckets (not yet launched)."""
        return sum(len(q) for q in self._buckets.values())

    def health(self) -> dict:
        """Liveness snapshot (the ``{"op": "health"}`` wire payload).

        Queue depths per bucket, in-flight batch count, capacity
        occupancy, worker-thread liveness, and the age of the last batch
        to finish — the numbers an external prober needs to distinguish
        "busy", "wedged" and "idle".
        """
        threads = (
            getattr(self._executor, "_threads", ())
            if self._executor is not None
            else ()
        )
        # ThreadPoolExecutor spawns threads lazily; before the first batch
        # an idle pool has none, which is healthy, not dead.  Dead means
        # "spawned but no longer alive".
        alive = (
            sum(1 for t in threads if t.is_alive())
            if threads
            else (self.workers if self._executor is not None else 0)
        )
        last = self._last_batch_at
        return {
            "source": "service",
            "accepting": self._accepting,
            "queued": self.pending,
            "queue_depths": {
                str(k): len(q) for k, q in sorted(
                    self._buckets.items(), key=lambda kv: str(kv[0])
                )
            },
            "inflight_batches": len(self._inflight),
            "slots_taken": self._slots_taken,
            "max_pending": self.max_pending,
            "workers": self.workers,
            "workers_alive": alive,
            "last_batch_age_seconds": (
                None if last is None else round(time.monotonic() - last, 6)
            ),
        }

    # --------------------------------------------------------------- submission

    def _make_pending(self, request: SolveRequest) -> SolveHandle:
        assert self._loop is not None and self._wake is not None
        handle = SolveHandle(request, self._loop)
        pending = _Pending(
            request, handle, time.monotonic(), retry_budget=self.retry_budget
        )
        self._buckets.setdefault(request.bucket_key, deque()).append(pending)
        self.stats.observe_submitted()
        # The dispatcher runs one loop tick later, so requests submitted
        # in the same tick pack together.
        self._wake.set()
        return handle

    async def submit(self, request: SolveRequest) -> SolveHandle:
        """Queue a request, suspending under backpressure.

        Suspends while ``max_pending`` requests are in flight (the
        backpressure path), raises
        :class:`~repro.errors.ServiceClosedError` once draining has begun.
        """
        if not self._accepting:
            raise ServiceClosedError("service is not accepting requests")
        assert self._slots is not None
        await self._slots.acquire()
        if not self._accepting:
            # Drain began while we waited for capacity.
            self._slots.release()
            raise ServiceClosedError("service drained while awaiting capacity")
        self._slots_taken += 1
        return self._make_pending(request)

    # The three calls :func:`~repro.serve.protocol.serve_tcp` makes on a front.

    async def submit_wire(
        self, raw_obj: dict, req_id: str | int, request: SolveRequest, session
    ) -> None:
        """Submit a decoded wire request and stream it onto ``session``."""
        await session.stream(req_id, await self.submit(request))

    async def stats_payload(self) -> dict:
        return self.stats.snapshot()

    async def health_payload(self) -> dict:
        return self.health()

    def _try_acquire_slot(self) -> bool:
        """Acquire one capacity slot without suspending; False when full."""
        assert self._slots is not None
        # Semaphore.acquire completes synchronously when a slot is free;
        # drive the coroutine one step instead of suspending the caller.
        coro = self._slots.acquire()
        acquired = False
        try:
            coro.send(None)
        except StopIteration:
            acquired = True
        finally:
            if not acquired:
                coro.close()
        if acquired:
            self._slots_taken += 1
        return acquired

    def _shed_below(self, priority: int) -> bool:
        """Evict one queued request ranking strictly below ``priority``.

        Policy: shed the *lowest*-priority bucket work first; among equals,
        the youngest (it has invested the least queue time).  Only queued
        (unlaunched) requests are sheddable — rows already packed into a
        running batch are never revoked.  The victim fails with
        :class:`~repro.errors.ServiceOverloadedError`, is counted as
        outcome ``"shed"``, and frees its capacity slot.
        """
        victim: _Pending | None = None
        victim_key: BatchKey | None = None
        for key, bucket in self._buckets.items():
            for p in bucket:
                if p.request.priority >= priority:
                    continue
                if victim is None or (
                    p.request.priority,
                    -p.submitted_at,
                ) < (victim.request.priority, -victim.submitted_at):
                    victim = p
                    victim_key = key
        if victim is None:
            return False
        assert victim_key is not None
        bucket = self._buckets[victim_key]
        bucket.remove(victim)
        if not bucket:
            del self._buckets[victim_key]
        victim.resolved = True
        self.stats.observe_resolution(
            "shed", time.monotonic() - victim.submitted_at
        )
        victim.handle._reject(
            ServiceOverloadedError(
                f"request shed under load (priority {victim.request.priority})"
            )
        )
        assert self._slots is not None
        self._slots.release()
        self._slots_taken -= 1
        return True

    def submit_nowait(self, request: SolveRequest) -> SolveHandle:
        """Like :meth:`submit` but never waits: at the ``max_pending``
        bound it frees capacity by shedding one queued request of
        strictly lower priority (outcome ``"shed"``), and raises
        :class:`~repro.errors.ServiceOverloadedError` only when nothing
        outranked is queued."""
        if not self._accepting:
            raise ServiceClosedError("service is not accepting requests")
        assert self._slots is not None
        acquired = self._try_acquire_slot()
        if not acquired and self._shed_below(request.priority):
            acquired = self._try_acquire_slot()
        if not acquired:
            raise ServiceOverloadedError(
                f"service at capacity ({self.max_pending} requests in flight)"
            )
        return self._make_pending(request)

    # --------------------------------------------------------------- dispatcher

    async def _dispatch_loop(self) -> None:
        """Run the launch rule on each submit, pack completion and window close."""
        assert self._wake is not None
        while self._accepting:
            self._wake.clear()
            timeout = await self._launch_ready()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _launch_cause(self, key: BatchKey, bucket: deque, now: float) -> str | None:
        """Why ``bucket`` may launch now, or ``None`` while it waits for
        more of its key's replies."""
        if not self._accepting:
            return "drain"
        if len(bucket) >= self.max_batch:
            return "full"
        closes_at, rows = self._windows.get(key, (0.0, 0))
        if len(bucket) >= rows or bucket[0].submitted_at >= closes_at:
            return "idle"
        return "max_wait" if closes_at <= now else None

    async def _launch_ready(self) -> float | None:
        """Put ready buckets on idle workers, oldest head first; return the
        seconds until a reply window that a queued bucket waits on closes."""
        assert self._idle_workers is not None
        now = time.monotonic()
        while self._buckets and not self._idle_workers.locked():
            causes = {
                key: cause
                for key, bucket in self._buckets.items()
                if (cause := self._launch_cause(key, bucket, now))
            }
            if not causes:
                break
            key = min(causes, key=lambda k: self._buckets[k][0].submitted_at)
            bucket = self._buckets[key]
            pack = [
                bucket.popleft() for _ in range(min(len(bucket), self.max_batch))
            ]
            # Emptied buckets are deleted (not kept as dead deques): under
            # diverse traffic the dict would otherwise grow with every
            # BatchKey ever seen and each pass here would scan all of them.
            if not bucket:
                del self._buckets[key]
            await self._idle_workers.acquire()  # unlocked: never suspends
            self._busy += 1
            self._launch(key, pack, cause=causes[key])
        closes = [self._windows.get(key, (0.0, 0))[0] for key in self._buckets]
        return min((c - now for c in closes if c > now), default=None)

    def _launch(
        self, key: BatchKey, pack: list[_Pending], *, cause: str
    ) -> None:
        now = time.monotonic()
        self.stats.observe_flush(
            key, cause, [now - p.submitted_at for p in pack]
        )
        task = asyncio.create_task(
            self._run_and_resolve(key, pack), name=f"aco-serve-batch-{key.n}"
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # ------------------------------------------------------------------ workers

    async def _run_and_resolve(self, key: BatchKey, pack: list[_Pending]) -> None:
        """Drive one launched pack to resolution, slots released exactly once.

        All execution (including quarantine bisection and retries) happens
        inside :meth:`_execute_pack`; this wrapper owns the capacity slots
        so recursion cannot double-release them.
        """
        try:
            await self._execute_pack(key, pack, attempt=0)
        finally:
            assert self._slots is not None
            for _ in pack:
                self._slots.release()
            self._slots_taken -= len(pack)

    def _reject_pending(
        self, p: _Pending, exc: ServeError, outcome: str, now: float
    ) -> None:
        p.resolved = True
        self.stats.observe_resolution(outcome, now - p.submitted_at)
        p.handle._reject(exc)

    def _drop_timed_out(self, pack: list[_Pending]) -> list[_Pending]:
        """Fail rows whose hard timeout passed; return the still-live rows.

        Timeouts are enforced lazily at scheduling points (launch and
        retry time here, report boundaries inside the run), so a row that
        timed out while queued behind a failure never burns engine time.
        """
        now = time.monotonic()
        live: list[_Pending] = []
        for p in pack:
            if p.resolved:
                continue
            if p.timeout_at is not None and now >= p.timeout_at:
                self._reject_pending(
                    p,
                    ServeTimeoutError(
                        f"request timed out after {p.request.timeout}s"
                    ),
                    "timeout",
                    now,
                )
            else:
                live.append(p)
        return live

    async def _execute_pack(
        self, key: BatchKey, pack: list[_Pending], attempt: int
    ) -> None:
        """Run a pack on a worker (a retry waits for one; the dispatcher took
        one for attempt 0); on failure, quarantine-and-retry by bisection.

        A failed batch rejects nobody outright (beyond exhausted retry
        budgets): its live rows are re-run in halves, recursively, so a
        single poisoned request is isolated into ever-smaller packs until
        it fails alone — while every innocent co-batched rider lands in a
        poison-free half and completes with its solo-identical result.
        Backoff between waves is exponential with seeded jitter; budgets
        strictly decrease per wave, so recursion terminates.
        """
        assert self._loop is not None and self._executor is not None
        assert self._idle_workers is not None and self._wake is not None
        if attempt:
            await self._idle_workers.acquire()
            self._busy += 1
        failure: BaseException | None = None
        try:
            runnable = self._drop_timed_out(pack)
            if not runnable:
                return
            try:
                batch = await self._loop.run_in_executor(
                    self._executor, self._run_batch_sync, key, runnable
                )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # incl. worker death: never hang riders
                failure = exc
        finally:
            # The worker is idle as soon as the run ends: a retry's backoff
            # sleep must not hold it.
            self._busy -= 1
            self._idle_workers.release()
            self._wake.set()
        if failure is not None:
            await self._quarantine_and_retry(key, runnable, attempt, failure)
            return
        self.stats.observe_batch(key, batch)
        now = self._last_batch_at = time.monotonic()
        # Rent-or-buy; counting queued rows stops two half packs alternating.
        queued = len(self._buckets.get(key, ()))
        self._windows[key] = (now + batch.wall_seconds, queued + batch.B)
        for p, row in zip(runnable, batch.results):
            if not p.resolved:
                p.resolved = True
                self.stats.observe_resolution("completed", now - p.submitted_at)
                p.handle._resolve(row)

    async def _quarantine_and_retry(
        self,
        key: BatchKey,
        pack: list[_Pending],
        attempt: int,
        exc: BaseException,
    ) -> None:
        """One failure wave: charge budgets, reject the exhausted, re-run
        the rest in halves after a jittered exponential backoff."""
        now = self._last_batch_at = time.monotonic()
        wrapped = ServeError(f"batch execution failed: {exc!r}")
        wrapped.__cause__ = exc
        retryable: list[_Pending] = []
        for p in pack:
            # Early-resolved riders already hold their snapshot result and
            # were counted at their resolving boundary (worker thread).
            if p.resolved:
                continue
            p.retries_left -= 1
            if p.retries_left < 0:
                self._reject_pending(p, wrapped, "failed", now)
            else:
                retryable.append(p)
        if not retryable:
            return
        self.stats.observe_retry(len(retryable))
        if self.retry_backoff > 0.0:
            delay = (
                self.retry_backoff
                * (2**attempt)
                * (1.0 + self._retry_rng.random())
            )
            await asyncio.sleep(delay)
        if len(retryable) == 1:
            await self._execute_pack(key, retryable, attempt + 1)
            return
        # Bisection: a poisoned row drags at most half the pack into the
        # next failure; log2(max_batch) waves isolate it completely.
        self.stats.observe_bisection()
        mid = len(retryable) // 2
        await asyncio.gather(
            self._execute_pack(key, retryable[:mid], attempt + 1),
            self._execute_pack(key, retryable[mid:], attempt + 1),
        )

    def _worker_arena(self) -> WorkBuffers:
        """The calling worker thread's private scratch arena (one per
        worker, reused across batches — the cross-engine amortisation
        seam)."""
        # lint: worker-thread
        work = getattr(self._tls, "work", None)
        if work is None:
            work = WorkBuffers(self._backend)
            self._tls.work = work
        return work

    def _run_batch_sync(self, key: BatchKey, pack: list[_Pending]) -> BatchRunResult:
        """Engine run on a worker thread: build, stream boundaries, return.

        Per-boundary duties (all through ``call_soon_threadsafe``): push a
        :class:`SolveUpdate` to every live rider, resolve riders whose
        target length is met or whose deadline expired, fail riders whose
        hard timeout passed, and stop the batch early once every rider
        has resolved.  When a fault injector is installed, its scheduled
        faults fire here — batch start and report boundaries — exactly
        where real worker failures originate.
        """
        # lint: worker-thread
        injector = self._faults
        ordinal = -1
        if injector is not None:
            ordinal = injector.start_batch(
                [p.request.instance.name for p in pack]
            )
        engine = BatchEngine(
            [p.request.instance for p in pack],
            [p.request.params for p in pack],
            device=self.device,
            construction=key.construction,
            pheromone=key.pheromone,
            backend=self._backend,
            work=self._worker_arena(),
            metrics=self.stats.registry,
            variant=key.variant,
            local_search=key.local_search,
            local_search_options=(
                {"passes": key.ls_passes, "target": key.ls_target}
                if key.local_search != "none"
                else None
            ),
        )
        loop = self._loop
        assert loop is not None
        run_start = time.monotonic()
        boundary_index = 0

        def on_boundary(update: BoundaryUpdate) -> bool:
            nonlocal boundary_index
            if injector is not None:
                injector.on_boundary(ordinal, boundary_index)
            boundary_index += 1
            now = time.monotonic()
            all_resolved = True
            for b, p in enumerate(pack):
                if p.resolved:
                    continue
                if p.timeout_at is not None and now >= p.timeout_at:
                    # Hard timeout: fail the rider mid-run (the batch keeps
                    # going for the others).  ServiceStats locks internally,
                    # so worker-thread mutation cannot tear.
                    p.resolved = True
                    self.stats.observe_resolution(
                        "timeout", now - p.submitted_at
                    )
                    loop.call_soon_threadsafe(
                        p.handle._reject,
                        ServeTimeoutError(
                            f"request timed out after {p.request.timeout}s"
                        ),
                    )
                    continue
                best = int(update.best_lengths[b])
                loop.call_soon_threadsafe(
                    p.handle._push_update,
                    SolveUpdate(iteration=update.iteration, best_length=best),
                )
                hit_target = (
                    p.request.target_length is not None
                    and best <= p.request.target_length
                )
                expired = p.deadline_at is not None and now >= p.deadline_at
                if hit_target or expired:
                    # Early resolution: best-so-far snapshot.  No iteration
                    # traces (they live batch-side until the run ends);
                    # wall_seconds is the true batch wall at this boundary.
                    row = RunResult(
                        best_tour=update.best_tours[b].copy(),
                        best_length=best,
                        iteration_best_lengths=[],
                        reports=[],
                        wall_seconds=now - run_start,
                        device=self.device,
                    )
                    p.resolved = True
                    p.early = "target" if hit_target else "deadline"
                    self.stats.observe_resolution(p.early, now - p.submitted_at)
                    loop.call_soon_threadsafe(p.handle._resolve, row)
                else:
                    all_resolved = False
            return all_resolved

        return engine.run(
            key.iterations, report_every=key.report_every, on_boundary=on_boundary
        )
