"""Experiment harness: model-mode artefacts plus batched functional sweeps.

The model-mode half evaluates the calibrated analytical model over the
paper's benchmark sizes.  Model mode needs only instance *dimensions* (n, m,
nn) — never the coordinate data — so reproducing Table II's pr2392 column
takes milliseconds.  The measured counterpart (functional simulation under
``pytest-benchmark``) lives in ``benchmarks/``.

The functional half dispatches parameter-sweep workloads through the
:class:`~repro.core.batch.BatchEngine`: :func:`run_sweep` runs a parameter
grid × replicas as one vectorized batch instead of B sequential Python
runs (plain seed-replicas are ``BatchEngine.replicas(...).run(...)``).

Each model runner returns an :class:`ExperimentResult` bundling the model
rows, the paper rows, shape metrics and rendered tables.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchEngine, BatchRunResult
from repro.core.choice import ChoiceKernel
from repro.core.construction import expected_fallback_steps, make_construction
from repro.core.params import ACOParams
from repro.core.pheromone import make_pheromone
from repro.errors import ExperimentError, RunInterrupted
from repro.experiments.calibration import cpu_cost_params, gpu_cost_params
from repro.seq.cost import estimate_cpu_time
from repro.seq.engine import (
    SequentialAntSystem,
    predict_construction_ops_for,
    predict_update_ops_for,
)
from repro.simt.device import DEVICES, TESLA_M2050, DeviceSpec
from repro.simt.timing import estimate_time
from repro.tsp.instance import TSPInstance
from repro.tsp.suite import suite_entry
from repro.util.tables import Table

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "construction_model_time",
    "pheromone_model_time",
    "sequential_model_time",
    "run_sweep",
    "run_service",
    "ServiceLoadResult",
    "SweepResult",
    "SWEEPABLE_FIELDS",
]


@dataclass
class ExperimentResult:
    """Outcome of one artefact reproduction.

    Attributes
    ----------
    id / title:
        Artefact identifier (``table2`` ...) and human title.
    instances:
        Column names.
    model_rows / paper_rows:
        Row label -> values (milliseconds for tables, speed-up factors for
        figures).
    metrics:
        Shape metrics (orderings, crossovers, log errors).
    notes:
        Caveats to surface in reports.
    """

    id: str
    title: str
    instances: tuple[str, ...]
    model_rows: dict[str, list[float]]
    paper_rows: dict[str, list[float]]
    metrics: dict[str, object] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    unit: str = "ms"

    def table(self, *, paper: bool = False) -> Table:
        """Rendered table of the model (or paper) rows."""
        source = self.paper_rows if paper else self.model_rows
        headers = ["version"] + list(self.instances)
        t = Table(
            headers,
            title=f"{self.title} — {'paper' if paper else 'model'} ({self.unit})",
        )
        for label, values in source.items():
            t.add_row([label] + [_fmt(v) for v in values])
        return t

    def side_by_side(self) -> Table:
        """Model/paper interleaved, for eyeballing agreement."""
        headers = ["version", "source"] + list(self.instances)
        t = Table(headers, title=f"{self.title} — model vs paper ({self.unit})")
        for label in self.model_rows:
            t.add_row([label, "model"] + [_fmt(v) for v in self.model_rows[label]])
            if label in self.paper_rows:
                t.add_row(["", "paper"] + [_fmt(v) for v in self.paper_rows[label]])
        return t

    def render(self) -> str:
        lines = [self.side_by_side().render(), ""]
        if self.metrics:
            lines.append("shape metrics:")
            for key, val in self.metrics.items():
                lines.append(f"  {key}: {val}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(v: float) -> str:
    if v >= 1000:
        return f"{v:.0f}"
    if v >= 10:
        return f"{v:.1f}"
    return f"{v:.2f}"


# ------------------------------------------------------------- model pieces


def _dims(instance_name: str, nn: int = 30) -> tuple[int, int, int]:
    """(n, m, nn) for a paper instance, with the paper's m = n."""
    entry = suite_entry(instance_name)
    n = entry.n
    return n, n, min(nn, n - 1)


def construction_model_time(
    version: int,
    instance_name: str,
    device: DeviceSpec,
    *,
    nn: int = 30,
    fallback_steps: float | None = None,
    include_choice: bool = True,
    params=None,
    **strategy_options,
) -> float:
    """Modeled seconds of one construction iteration (Table II cell).

    ``fallback_steps=None`` uses the closed-form expectation model; pass a
    measured count for higher fidelity.  ``params`` overrides the calibrated
    :class:`~repro.simt.timing.CostParams` (used by the calibration fit).
    """
    n, m, nn = _dims(instance_name, nn)
    strategy = make_construction(version, **strategy_options)
    if fallback_steps is None:
        fallback_steps = (
            expected_fallback_steps(n, m, nn) if 4 <= strategy.version <= 6 else 0.0
        )
    if params is None:
        params = gpu_cost_params(device)
    stats, launch = strategy.predict_stats(n, m, nn, device, fallback_steps=fallback_steps)
    total = estimate_time(
        stats,
        device,
        params,
        effective_parallelism=launch.occupancy(device).effective_parallelism,
    )
    if include_choice and strategy.needs_choice_info:
        ck = ChoiceKernel()
        cstats, claunch = ck.predict_stats(n, device)
        total += estimate_time(
            cstats,
            device,
            params,
            effective_parallelism=claunch.occupancy(device).effective_parallelism,
        )
    return total


def pheromone_model_time(
    version: int,
    instance_name: str,
    device: DeviceSpec,
    *,
    hot_degree: float = 0.0,
    params=None,
    **strategy_options,
) -> float:
    """Modeled seconds of one pheromone update (Table III/IV cell).

    ``params`` overrides the calibrated constants (calibration fit hook).
    """
    n, m, _ = _dims(instance_name)
    strategy = make_pheromone(version, **strategy_options)
    if params is None:
        params = gpu_cost_params(device)
    stats, launch = strategy.predict_stats(n, m, device, hot_degree=hot_degree)
    return estimate_time(
        stats,
        device,
        params,
        effective_parallelism=launch.occupancy(device).effective_parallelism,
    )


_SEQ_KINDS = ("construct_nnlist", "construct_full", "update")


def sequential_model_time(
    kind: str,
    instance_name: str,
    *,
    nn: int = 30,
    fallback_steps: float | None = None,
    params=None,
) -> float:
    """Modeled seconds of the sequential baseline for one stage.

    ``construct_*`` kinds include the per-iteration choice-info pass the C
    code performs before construction, mirroring what the GPU side counts.
    ``params`` overrides the calibrated :class:`~repro.seq.cost.CpuCostParams`.
    """
    if kind not in _SEQ_KINDS:
        raise ExperimentError(f"kind must be one of {_SEQ_KINDS}, got {kind!r}")
    n, m, nn = _dims(instance_name, nn)
    if params is None:
        params = cpu_cost_params()
    if kind == "update":
        ops = predict_update_ops_for(n, m)
        return estimate_cpu_time(ops, params)
    mode = "nnlist" if kind == "construct_nnlist" else "full"
    if fallback_steps is None:
        fallback_steps = expected_fallback_steps(n, m, nn) if mode == "nnlist" else 0.0
    ops = SequentialAntSystem.predict_choice_ops(n) + predict_construction_ops_for(
        n, m, nn, mode, fallback_steps=fallback_steps
    )
    return estimate_cpu_time(ops, params)


# -------------------------------------------------- batched functional runs

#: ACOParams fields a sweep may vary; everything else must stay uniform
#: across the batch (array shapes share n, m and nn).
SWEEPABLE_FIELDS = ("alpha", "beta", "rho", "eta_shift", "seed")


@dataclass
class SweepResult:
    """Outcome of a :func:`run_sweep` call.

    ``points[i]`` holds the parameter overrides of grid point ``i``;
    ``results[i]`` its per-replica
    :class:`~repro.core.colony.RunResult` list.  The underlying
    :class:`~repro.core.batch.BatchRunResult` (one batch over every point ×
    replica) is kept for wall-clock accounting.
    """

    points: list[dict[str, float]]
    results: list[list]  # per point: list[RunResult], one per replica
    batch: BatchRunResult
    iterations: int

    def best_lengths(self, i: int) -> np.ndarray:
        return np.array([r.best_length for r in self.results[i]], dtype=np.int64)

    def table(self) -> Table:
        """One row per grid point: overrides, best/mean/std across replicas."""
        keys = sorted({k for p in self.points for k in p}) or ["-"]
        t = Table(
            keys + ["replicas", "best", "mean", "std"],
            title=f"parameter sweep ({self.iterations} iterations)",
        )
        for i, point in enumerate(self.points):
            lengths = self.best_lengths(i)
            t.add_row(
                [point.get(k, "-") for k in keys]
                + [
                    len(self.results[i]),
                    int(lengths.min()),
                    f"{lengths.mean():.1f}",
                    f"{lengths.std():.1f}",
                ]
            )
        return t


def run_sweep(
    instance: TSPInstance,
    grid: dict[str, Sequence],
    *,
    iterations: int,
    replicas: int = 1,
    params: ACOParams | None = None,
    device: DeviceSpec = TESLA_M2050,
    construction: int | str = 8,
    pheromone: int | str = 1,
    backend=None,
    report_every: int = 1,
    variant: str = "as",
    variant_options: dict | None = None,
    local_search: str = "none",
    local_search_options: dict | None = None,
) -> SweepResult:
    """Cartesian parameter sweep × seed replicas, one vectorized batch.

    ``grid`` maps :data:`SWEEPABLE_FIELDS` names to value lists; every grid
    point is replicated ``replicas`` times with seeds ``seed + r``.  All
    ``len(grid product) * replicas`` colonies run together through the
    :class:`~repro.core.batch.BatchEngine`; ``report_every=K`` amortises
    the host boundary over K-iteration device-resident blocks
    (bit-identical results for every K); ``variant`` selects the ACO
    algorithm the whole sweep runs (``"as"``, ``"acs"``, ``"mmas"``);
    ``local_search`` enables boundary-time tour polishing (``"2opt"``).
    """
    base = params or ACOParams()
    for key, values in grid.items():
        if key not in SWEEPABLE_FIELDS:
            raise ExperimentError(
                f"cannot sweep {key!r}; sweepable fields: {SWEEPABLE_FIELDS}"
            )
        if not values:
            raise ExperimentError(f"sweep axis {key!r} has no values")
    keys = list(grid)
    # An empty grid degenerates to the single base-parameter point
    # (itertools.product() of nothing yields one empty combination).
    points = [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    if replicas < 1:
        raise ExperimentError(f"replicas must be >= 1, got {replicas}")
    if "seed" in grid and replicas > 1:
        # Replica seeds are point_seed + r; combined with a swept seed axis
        # adjacent points would silently share colonies (seed s+1 appears in
        # both point s's replicas and point s+1's), skewing per-point stats.
        raise ExperimentError(
            "cannot combine a 'seed' sweep axis with replicas > 1; sweep the "
            "seed values directly instead"
        )
    plist = []
    for point in points:
        for r in range(replicas):
            overrides = dict(point)
            overrides["seed"] = int(overrides.get("seed", base.seed)) + r
            plist.append(dataclasses.replace(base, **overrides))
    engine = BatchEngine(
        instance,
        plist,
        device=device,
        construction=construction,
        pheromone=pheromone,
        backend=backend,
        variant=variant,
        variant_options=variant_options,
        local_search=local_search,
        local_search_options=local_search_options,
    )

    def _bundle(batch: BatchRunResult) -> SweepResult:
        results = [
            batch.results[i * replicas : (i + 1) * replicas]
            for i in range(len(points))
        ]
        return SweepResult(
            points=points, results=results, batch=batch, iterations=iterations
        )

    try:
        batch = engine.run(iterations, report_every=report_every)
    except RunInterrupted as exc:
        # Re-raise with the partial re-bundled per grid point, so callers
        # (the CLI) can render the same table a finished sweep would get.
        raise RunInterrupted(
            _bundle(exc.partial), "sweep interrupted"
        ) from None
    return _bundle(batch)


# ----------------------------------------------------- service load generation


@dataclass
class ServiceLoadResult:
    """Outcome of a :func:`run_service` burst.

    ``results[i]`` / ``updates[i]`` belong to ``requests[i]`` in submission
    order; ``stats`` is the service's counter block (all throughput numbers
    derived from batch-level wall clocks); ``wall_seconds`` is the whole
    burst end-to-end, queueing and packing overhead included.
    """

    results: list  # list[RunResult]
    updates: list[list]  # per request: list[SolveUpdate]
    stats: object  # ServiceStats
    wall_seconds: float

    @property
    def best_lengths(self) -> np.ndarray:
        return np.array([r.best_length for r in self.results], dtype=np.int64)


def run_service(
    requests: Sequence,
    *,
    max_batch: int = 8,
    workers: int = 1,
    max_pending: int | None = None,
    backend=None,
    device: DeviceSpec = TESLA_M2050,
) -> ServiceLoadResult:
    """Fire a burst of :class:`~repro.serve.SolveRequest` jobs at a fresh
    micro-batching service and gather every stream and final.

    The synchronous load-generator counterpart of :func:`run_sweep`: all
    requests are submitted concurrently, the service packs equal-geometry
    requests into shared engine batches, and the call returns once every
    request resolved and the service drained.  Useful for packing
    experiments ("how full do batches get at this request mix?") and as the
    reference driver for the serve test-suite.
    """
    import asyncio

    from repro.serve import SolveService

    requests = list(requests)
    if not requests:
        raise ExperimentError("run_service needs at least one request")

    async def _drive():
        service = SolveService(
            max_batch=max_batch,
            workers=workers,
            max_pending=max_pending or max(len(requests), max_batch),
            backend=backend,
            device=device,
        )
        async with service:
            handles = [await service.submit(r) for r in requests]

            async def consume(handle):
                ups = [u async for u in handle]
                return ups, await handle.result()

            pairs = await asyncio.gather(*(consume(h) for h in handles))
        return pairs, service.stats

    from repro.util.timer import WallClock

    with WallClock() as clock:
        pairs, stats = asyncio.run(_drive())
    return ServiceLoadResult(
        results=[res for _, res in pairs],
        updates=[ups for ups, _ in pairs],
        stats=stats,
        wall_seconds=clock.elapsed,
    )


# ----------------------------------------------------------------- registry

# Populated by the runner modules at import time (they call register()).
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def register(exp_id: str) -> Callable:
    """Decorator adding a runner to the registry under ``exp_id``."""

    def wrap(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        EXPERIMENTS[exp_id] = fn
        return fn

    return wrap


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one artefact reproduction by id (``table2`` ... ``fig5``)."""
    # Import runners lazily so the registry is populated on first use
    # without import cycles.
    from repro.experiments import figures, tables  # noqa: F401

    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)


def device_by_key(key: str) -> DeviceSpec:
    try:
        return DEVICES[key]
    except KeyError:
        raise ExperimentError(
            f"unknown device key {key!r}; known: {sorted(DEVICES)}"
        ) from None
