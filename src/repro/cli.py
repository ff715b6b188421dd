"""The ``gpu-aco`` console command.

Subcommands
-----------
``solve``
    Run the simulated GPU colony on a TSP instance and report the best
    tour, per-stage modeled kernel times and solution quality.  Every
    solve is one batched multi-colony engine run: ``--replicas K`` (default
    1) seed-replicas advance together in vectorized operations, and
    ``--replicas 1`` reproduces the library's ``AntSystem`` /
    ``AntColonySystem`` / ``MaxMinAntSystem`` result for that seed.
    ``--variant {as,acs,mmas}`` selects the algorithm; ``--replicas``,
    ``--backend`` and ``--report-every`` compose freely with all three.
    Only genuinely unsupported combinations are rejected
    (``--construction`` with ``acs``, which owns its
    pseudo-random-proportional rule, and ``--pheromone`` with
    ``acs``/``mmas``, which own their update schedules).
``serve``
    Async micro-batching solve service: a JSON-lines-over-TCP front-end
    that queues solve requests, packs equal-geometry requests into shared
    batched-engine runs, and streams per-boundary best-so-far updates back
    to each caller.  ``--shards N`` puts the same front over a router and
    N worker processes; ``--shards 0`` (default) solves in process.  A
    client's EOF still gets every accepted request streamed to its end.
    Ctrl-C drains gracefully (stop accepting, finish accepted work, flush
    streams).
``stats``
    Scrape the live stats plane of a running ``serve`` process (the
    ``{"op": "stats"}`` admin line): batch/flush counters plus queue-wait,
    batch-wall, request-latency and engine-phase (``engine.phase.*``)
    percentiles.  ``--json`` emits the raw snapshot.
``sweep``
    Parameter sweep (``--param rho=0.25,0.5,0.75`` style, × ``--replicas``)
    over one instance, executed as a single vectorized batch.
``experiments ...``
    Forward to ``python -m repro.experiments`` (tables, figures, report,
    calibrate).
``lint``
    Repo-invariant static analysis (``repro.lint``): backend purity in
    hot paths, seeded-RNG determinism, no host sync inside K-loop
    interiors, lock discipline on ``# guarded-by:`` attributes.  Exits 1
    when any error-severity finding (or syntax error) survives
    suppression; ``--json`` emits the findings, ``--rule ID`` narrows,
    ``--list-rules`` enumerates.
``devices``
    Print the simulated device inventory (the paper's Table I).
``backends``
    List the registered array backends, their availability, and — for
    unavailable ones — why the probe failed.

``solve`` and ``sweep`` accept ``--report-every K``: the run then keeps
K-iteration blocks device-resident, reporting (and transferring tours to
the host) only at K-boundaries — bit-identical results, amortised
per-iteration overhead.  A run's reports keep each boundary's lengths and
stage records but not its tours, so memory stays flat at any K.

``solve`` and ``sweep`` also accept ``--local-search 2opt`` (with
``--ls-passes N`` and ``--ls-target {iteration-best,best-so-far}``): elite
tours are polished with batched nn-restricted 2-opt at each report
boundary, and the improvements feed the pheromone update.

``solve`` further accepts ``--profile`` (paper-style per-phase wall-clock
table: construct / fold / local-search / update / host-sync) and
``--trace PATH`` (a ``chrome://tracing`` JSON timeline of the run).

Ctrl-C during ``solve``/``sweep`` reports the best-so-far result
and exits with status 130 instead of dumping a traceback.

Examples
--------
::

    gpu-aco solve att48 --iterations 50 --construction 8 --pheromone 1
    gpu-aco solve att48 --replicas 16 --iterations 20 --report-every 10
    gpu-aco solve att48 --variant mmas --replicas 4 --report-every 2
    gpu-aco solve att48 --variant acs --local-search 2opt --report-every 5
    gpu-aco sweep att48 --variant acs --param rho=0.1,0.5 --replicas 2
    gpu-aco solve att48 --backend numpy
    gpu-aco sweep att48 --param rho=0.25,0.5,0.75 --param beta=2,4 --replicas 3
    gpu-aco solve /path/to/berlin52.tsp --device c1060
    gpu-aco solve att48 --replicas 2 --profile --trace trace.json
    gpu-aco serve --port 8642 --max-batch 8
    gpu-aco serve --port 8642 --shards 2
    gpu-aco stats --port 8642 --json
    gpu-aco experiments table2
    gpu-aco lint src benchmarks
    gpu-aco lint --rule lock-discipline --json src
    gpu-aco lint --list-rules
    gpu-aco devices
    gpu-aco backends
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.backend import BACKENDS, available_backends, resolve_backend
from repro.core import ACOParams, BatchEngine
from repro.errors import ACOConfigError, BackendError, RunInterrupted
from repro.simt.device import DEVICES
from repro.tsp import load_instance, parse_tsplib
from repro.tsp.suite import PAPER_INSTANCE_NAMES
from repro.util.tables import Table, format_ms

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-aco",
        description="GPU Ant System for the TSP on a simulated Tesla C1060/M2050",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the colony on an instance")
    solve.add_argument(
        "instance",
        help=f"paper instance name ({', '.join(PAPER_INSTANCE_NAMES)}) or a .tsp file path",
    )
    solve.add_argument("--iterations", type=int, default=20)
    solve.add_argument(
        "--variant",
        choices=("as", "acs", "mmas"),
        default="as",
        help="algorithm: as (paper Ant System), acs (Ant Colony System) or "
        "mmas (MAX-MIN Ant System); all three run on the batched engine "
        "and compose with --replicas/--backend/--report-every",
    )
    solve.add_argument(
        "--construction",
        type=int,
        default=None,
        choices=range(1, 9),
        metavar="1-8",
        help="construction kernel (default 8; not valid with --variant acs, "
        "which owns its pseudo-random-proportional rule)",
    )
    solve.add_argument(
        "--pheromone",
        type=int,
        default=None,
        choices=range(1, 6),
        metavar="1-5",
        help="pheromone kernel (default 1; only valid with --variant as — "
        "acs/mmas own their update schedules)",
    )
    solve.add_argument("--device", choices=sorted(DEVICES), default="m2050")
    solve.add_argument("--ants", type=int, default=None, help="colony size (default m = n)")
    solve.add_argument("--nn", type=int, default=ACOParams.nn, help="candidate-list width")
    solve.add_argument("--seed", type=int, default=ACOParams.seed)
    solve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="independent seed-replicas run as one vectorized batch",
    )
    solve.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="array backend (default: $ACO_BACKEND or numpy)",
    )
    solve.add_argument(
        "--report-every",
        type=int,
        default=1,
        metavar="K",
        help="device-resident run loop: report/transfer only every "
        "K-th iteration (bit-identical results; default 1); reports keep "
        "lengths and stage records, not tours",
    )
    _add_local_search_flags(solve)
    solve.add_argument(
        "--profile",
        action="store_true",
        help="print a paper-style per-phase wall-clock table (construct / "
        "fold / local-search / update / host-sync)",
    )
    solve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a chrome://tracing JSON timeline of the run to PATH "
        "(open in chrome://tracing or Perfetto)",
    )
    solve.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write engine checkpoints to PATH at report boundaries "
        "(atomic replace; Ctrl-C salvages a final checkpoint)",
    )
    solve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint every N iterations (default: every report "
        "boundary; must be a multiple of --report-every)",
    )
    solve.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="restore engine state from a checkpoint and run the "
        "remaining iterations (bit-identical to the uninterrupted run "
        "when the checkpoint sits on a report boundary)",
    )

    sweep = sub.add_parser(
        "sweep", help="batched parameter sweep over one instance"
    )
    sweep.add_argument(
        "instance",
        help=f"paper instance name ({', '.join(PAPER_INSTANCE_NAMES)}) or a .tsp file path",
    )
    sweep.add_argument("--iterations", type=int, default=20)
    sweep.add_argument(
        "--variant",
        choices=("as", "acs", "mmas"),
        default="as",
        help="algorithm the whole sweep runs (all on the batched engine)",
    )
    sweep.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="sweep axis, e.g. rho=0.25,0.5,0.75 (repeatable; axes combine "
        "as a cartesian grid)",
    )
    sweep.add_argument(
        "--replicas", type=int, default=1, help="seed-replicas per grid point"
    )
    sweep.add_argument(
        "--construction",
        type=int,
        default=None,
        choices=range(1, 9),
        metavar="1-8",
        help="construction kernel (default 8; not valid with --variant acs)",
    )
    sweep.add_argument(
        "--pheromone",
        type=int,
        default=None,
        choices=range(1, 6),
        metavar="1-5",
        help="pheromone kernel (default 1; only valid with --variant as)",
    )
    sweep.add_argument("--device", choices=sorted(DEVICES), default="m2050")
    sweep.add_argument("--ants", type=int, default=None)
    sweep.add_argument("--nn", type=int, default=ACOParams.nn)
    sweep.add_argument("--seed", type=int, default=ACOParams.seed)
    sweep.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="array backend (default: $ACO_BACKEND or numpy)",
    )
    sweep.add_argument(
        "--report-every",
        type=int,
        default=1,
        metavar="K",
        help="device-resident run loop: report/transfer only every "
        "K-th iteration (bit-identical results; default 1); reports keep "
        "lengths and stage records, not tours",
    )
    _add_local_search_flags(sweep)

    serve = sub.add_parser(
        "serve",
        help="async micro-batching solve service (JSON-lines over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="largest engine batch one run may hold (B); an idle worker "
        "launches a size bucket at once",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="engine worker threads"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="backpressure bound on requests in flight",
    )
    serve.add_argument("--device", choices=sorted(DEVICES), default="m2050")
    serve.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="array backend (default: $ACO_BACKEND or numpy)",
    )
    serve.add_argument(
        "--retry-budget",
        type=int,
        default=3,
        help="failed-batch re-runs each request may consume before its "
        "failure is surfaced (quarantine bisection; default 3)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run N worker processes behind a BatchKey-hash router (each "
        "worker is a full solve service with the settings above); 0 "
        "(default) serves in-process with no router tier",
    )

    stats = sub.add_parser(
        "stats",
        help="scrape live stats from a running `gpu-aco serve` over TCP",
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=8642)
    stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw snapshot as one JSON object instead of tables",
    )
    stats.add_argument(
        "--health",
        action="store_true",
        help='probe {"op": "health"} (liveness, queue depths, worker '
        "threads) instead of scraping the stats counters",
    )

    exps = sub.add_parser("experiments", help="reproduce paper tables/figures")
    exps.add_argument("args", nargs=argparse.REMAINDER)

    lint = sub.add_parser(
        "lint",
        help="run the repo-invariant static analysis (backend purity, "
        "determinism, host-sync, lock discipline)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to check (default: src/ and benchmarks/ "
        "when run from a checkout)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable mode: print one JSON object with every "
        "finding instead of the table",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="list registered rules and exit",
    )

    sub.add_parser("devices", help="print the simulated device inventory")
    sub.add_parser(
        "backends", help="list registered array backends and their availability"
    )
    return parser


def _add_local_search_flags(parser) -> None:
    """The local-search seam's three flags, shared by solve and sweep."""
    parser.add_argument(
        "--local-search",
        choices=("none", "2opt"),
        default="none",
        dest="local_search",
        help="polish elite tours at each report boundary with batched "
        "nn-restricted 2-opt (default: none)",
    )
    parser.add_argument(
        "--ls-passes",
        type=int,
        default=None,
        metavar="N",
        help="cap 2-opt improvement passes per boundary (default: run to "
        "convergence)",
    )
    parser.add_argument(
        "--ls-target",
        choices=("iteration-best", "best-so-far"),
        default="iteration-best",
        help="which tours 2-opt polishes (default: iteration-best)",
    )


def _load(name_or_path: str):
    if os.path.exists(name_or_path):
        return parse_tsplib(name_or_path)
    return load_instance(name_or_path)


def _resolve_backend_arg(name: str | None):
    """Resolve a ``--backend`` value, exiting cleanly when unavailable."""
    try:
        return resolve_backend(name)
    except BackendError as exc:
        raise SystemExit(f"error: {exc}") from None


def _interrupt_banner() -> None:
    print("\ninterrupted — best-so-far result:", file=sys.stderr)


def _check_variant_flags(variant: str, construction, pheromone) -> None:
    """Reject the genuinely unsupported variant/kernel-flag combinations.

    Every variant composes with ``--replicas``/``--backend``/
    ``--report-every`` (the batched engine runs all three); only kernel
    selections a variant *owns* are rejected.
    """
    if variant == "acs" and construction is not None:
        raise SystemExit(
            "error: variant 'acs' owns its construction rule (pseudo-random-"
            "proportional); --construction is only valid with --variant "
            "as/mmas"
        )
    if variant != "as" and pheromone is not None:
        raise SystemExit(
            f"error: variant {variant!r} owns its pheromone schedule; "
            "--pheromone is only valid with --variant as"
        )


def _check_ls_flags(args) -> dict | None:
    """Validate the local-search flags; return engine options (or None)."""
    if args.local_search == "none":
        if args.ls_passes is not None or args.ls_target != "iteration-best":
            raise SystemExit(
                "error: --ls-passes/--ls-target require --local-search 2opt"
            )
        return None
    if args.ls_passes is not None and args.ls_passes < 1:
        raise SystemExit(
            f"error: --ls-passes must be >= 1, got {args.ls_passes}"
        )
    return {"passes": args.ls_passes, "target": args.ls_target}


def _ls_stats_line(args, batch) -> None:
    if args.local_search == "none":
        return
    print(
        f"local search (2opt, {args.ls_target}): {batch.ls_exchanges} "
        f"exchanges, total gain {batch.ls_gain}, "
        f"{batch.ls_wall_seconds:.2f}s in 2-opt"
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.replicas < 1:
        raise SystemExit(f"error: --replicas must be >= 1, got {args.replicas}")
    if args.report_every < 1:
        raise SystemExit(
            f"error: --report-every must be >= 1, got {args.report_every}"
        )
    _check_variant_flags(args.variant, args.construction, args.pheromone)
    ls_options = _check_ls_flags(args)
    if args.checkpoint_every is not None:
        if args.checkpoint is None:
            raise SystemExit(
                "error: --checkpoint-every requires --checkpoint PATH"
            )
        if args.checkpoint_every < 1:
            raise SystemExit(
                f"error: --checkpoint-every must be >= 1, "
                f"got {args.checkpoint_every}"
            )
        if args.checkpoint_every % args.report_every != 0:
            raise SystemExit(
                f"error: --checkpoint-every ({args.checkpoint_every}) must "
                f"be a multiple of --report-every ({args.report_every}); "
                "checkpoints are written at report boundaries"
            )
    from repro.obs import MetricsRegistry, TraceRecorder

    instance = _load(args.instance)
    device = DEVICES[args.device]
    params = ACOParams(n_ants=args.ants, nn=args.nn, seed=args.seed)
    backend = _resolve_backend_arg(args.backend)
    ck_path = args.checkpoint
    resume_path = args.resume
    metrics = MetricsRegistry() if args.profile else None
    tracer = TraceRecorder() if args.trace else None
    # One path for every variant and replica count: --replicas 1 is the
    # B=1 engine run the library views (AntSystem, ...) wrap.
    engine = BatchEngine.replicas(
        instance,
        params,
        replicas=args.replicas,
        device=device,
        construction=8 if args.construction is None else args.construction,
        pheromone=1 if args.pheromone is None else args.pheromone,
        backend=backend,
        variant=args.variant,
        local_search=args.local_search,
        local_search_options=ls_options,
        metrics=metrics,
        tracer=tracer,
    )
    iterations = args.iterations
    if resume_path is not None:
        from repro.core import load_checkpoint
        from repro.errors import CheckpointError

        try:
            ck = load_checkpoint(resume_path)
            engine.restore(ck)
        except CheckpointError as exc:
            raise SystemExit(f"error: cannot resume from {resume_path}: {exc}") from exc
        iterations = args.iterations - ck.iteration
        if iterations <= 0:
            print(
                f"checkpoint {resume_path} is already at iteration "
                f"{ck.iteration} >= --iterations {args.iterations}; "
                "nothing to run"
            )
            return 0
        print(
            f"resumed from {resume_path} at iteration {ck.iteration}; "
            f"running the remaining {iterations}"
        )
    kernels = (
        f"variant {args.variant}"
        if args.variant != "as"
        else f"construction v{engine.construction.version} + "
        f"pheromone v{engine.pheromone.version}"
    )
    print(
        f"solving {instance.name} (n={instance.n}) on {device.name} "
        f"[backend {backend.name}] with "
        f"{args.replicas} batched replicas, {kernels}"
    )
    on_boundary = None
    if ck_path is not None:
        ck_every = args.checkpoint_every or args.report_every

        def on_boundary(update) -> None:
            # The final boundary fires even off the K-grid; only write on
            # aligned iterations so every checkpoint resumes bit-identical.
            if update.iteration % ck_every == 0:
                engine.checkpoint(ck_path)

    try:
        batch = engine.run(
            iterations, report_every=args.report_every, on_boundary=on_boundary
        )
    except RunInterrupted as exc:
        _interrupt_banner()
        batch = exc.partial
        rc = 130
        if ck_path is not None:
            # Salvage: the interrupt path synced best-so-far records to the
            # host, so the engine is checkpointable at the last completed
            # iteration (off-boundary under local search — best-effort).
            engine.checkpoint(ck_path)
            print(f"salvage checkpoint written to {ck_path} "
                  f"(iteration {engine.state.iteration})")
    else:
        rc = 0
        if ck_path is not None:
            engine.checkpoint(ck_path)
            print(f"final checkpoint written to {ck_path} "
                  f"(iteration {engine.state.iteration})")
    t = Table(["replica", "seed", "best length"], title="per-replica results")
    for b, res in enumerate(batch.results):
        t.add_row([b, engine.state.params[b].seed, res.best_length])
    print(t.render())
    print(f"best overall: {batch.best_length} (replica {batch.best_row})")
    _best_replica_report(engine, batch)
    _ls_stats_line(args, batch)
    iterations_run = batch.iterations_run or iterations
    print(
        f"wall-clock (batched functional simulation): {batch.wall_seconds:.2f}s "
        f"for {args.replicas} x {iterations_run} iterations "
        f"({batch.colonies_per_second(iterations_run):.1f} colony-iterations/s)"
    )
    if args.profile:
        _profile_table(batch)
    if tracer is not None:
        tracer.write(args.trace)
        print(f"chrome trace written to {args.trace} ({len(tracer)} spans)")
    return rc


def _profile_table(batch) -> None:
    """The paper-style per-phase breakdown (its per-stage kernel-time
    tables), from the engine's always-on phase totals."""
    from repro.obs import PHASES

    breakdown = batch.phase_breakdown
    total = sum(breakdown.values())
    wall = batch.wall_seconds
    t = Table(
        ["phase", "seconds", "% of phases", "% of wall"],
        title="per-phase wall-clock (profile)",
    )
    for phase in PHASES:
        sec = breakdown.get(phase, 0.0)
        if sec == 0.0 and phase == "local-search":
            continue  # not installed; don't print a dead row
        t.add_row(
            [
                phase,
                f"{sec:.4f}",
                f"{100.0 * sec / total:5.1f}%" if total else "-",
                f"{100.0 * sec / wall:5.1f}%" if wall else "-",
            ]
        )
    t.add_row(
        [
            "total (phases)",
            f"{total:.4f}",
            "100.0%",
            f"{100.0 * total / wall:5.1f}%" if wall else "-",
        ]
    )
    print(t.render())


def _best_replica_report(engine, batch) -> None:
    """The best replica's tour length, iteration bests, modeled kernel
    times and, under MMAS, trail reinitialisations."""
    from repro.experiments.calibration import gpu_cost_params

    best = batch.results[batch.best_row]
    print(f"best tour length: {best.best_length}")
    if best.iteration_best_lengths:
        print(f"iteration bests:  first={best.iteration_best_lengths[0]} "
              f"last={best.iteration_best_lengths[-1]}")
    cost = gpu_cost_params(engine.device)
    t = Table(["stage", "modeled ms/iter"], title="modeled kernel times")
    for stage in ("choice", "construction", "pheromone"):
        mean = best.mean_stage_time(stage, cost)
        if mean > 0.0:
            t.add_row([stage, format_ms(mean)])
    t.add_row(["total", format_ms(best.mean_iteration_time(cost))])
    print(t.render())
    if engine.variant.key == "mmas":
        reinits = engine.backend.to_host(engine.variant.update.reinit_count)
        print(f"trail reinitialisations: {int(reinits[batch.best_row])}")


def _parse_sweep_params(specs: list[str]) -> dict[str, list[float]]:
    grid: dict[str, list[float]] = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        if not values:
            raise SystemExit(f"bad --param {spec!r}; expected NAME=V1,V2,...")
        try:
            parsed = [float(v) for v in values.split(",") if v]
        except ValueError:
            raise SystemExit(f"bad --param values in {spec!r}") from None
        # Repeating an axis name extends it: --param rho=0.2 --param rho=0.8
        # sweeps both values.
        grid.setdefault(name.strip(), []).extend(parsed)
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.harness import run_sweep

    if args.report_every < 1:
        raise SystemExit(
            f"error: --report-every must be >= 1, got {args.report_every}"
        )
    _check_variant_flags(args.variant, args.construction, args.pheromone)
    ls_options = _check_ls_flags(args)
    instance = _load(args.instance)
    device = DEVICES[args.device]
    backend = _resolve_backend_arg(args.backend)
    grid = _parse_sweep_params(args.param)
    # seed values must stay integers (they feed the RNG's seed derivation)
    if "seed" in grid:
        grid["seed"] = [int(v) for v in grid["seed"]]
    params = ACOParams(n_ants=args.ants, nn=args.nn, seed=args.seed)
    rc = 0
    try:
        sweep = run_sweep(
            instance,
            grid,
            iterations=args.iterations,
            replicas=args.replicas,
            params=params,
            device=device,
            construction=8 if args.construction is None else args.construction,
            pheromone=1 if args.pheromone is None else args.pheromone,
            backend=backend,
            report_every=args.report_every,
            variant=args.variant,
            local_search=args.local_search,
            local_search_options=ls_options,
        )
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunInterrupted as exc:
        _interrupt_banner()
        sweep = exc.partial
        rc = 130
    print(
        f"sweeping {instance.name} (n={instance.n}) on {device.name} "
        f"[variant {args.variant}]: "
        f"{len(sweep.points)} grid points x {args.replicas} replicas = "
        f"{sweep.batch.B} batched colonies"
    )
    print(sweep.table().render())
    _ls_stats_line(args, sweep.batch)
    iterations_run = sweep.batch.iterations_run or args.iterations
    print(
        f"wall-clock (batched functional simulation): "
        f"{sweep.batch.wall_seconds:.2f}s for {sweep.batch.B} x "
        f"{iterations_run} iterations"
    )
    return rc


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the JSON-lines front until interrupted.

    ``--shards 0`` solves in process on one ``SolveService``; ``--shards
    N`` runs the router tier over N worker processes, each a full
    ``SolveService`` built from the same ``ShardConfig``.  Both sit behind
    the same ``serve_tcp`` front.  SIGINT/SIGTERM drain gracefully: the
    listener closes (no new requests), accepted work finishes and every
    stream is terminated before the process exits.
    """
    import asyncio
    import signal

    from repro.errors import ServeError
    from repro.serve import serve_tcp
    from repro.shard import ShardConfig, ShardRouter

    if args.shards < 0:
        raise SystemExit(f"error: --shards must be >= 0, got {args.shards}")
    backend = _resolve_backend_arg(args.backend)
    config = ShardConfig(
        host=args.host,
        max_batch=args.max_batch,
        workers=args.workers,
        max_pending=args.max_pending,
        retry_budget=args.retry_budget,
        backend=backend.name,
        device=args.device,
    )
    # Built before the loop starts, on both paths, so every config error
    # (bad max_batch/workers/max_pending combination) surfaces as a clean
    # usage message from main(), not a traceback out of asyncio.run or a
    # worker process.
    front = config.build_service()
    knobs = f"backend {backend.name}, max_batch {args.max_batch}, {args.workers}"
    if args.shards:
        front, what = ShardRouter(args.shards, config), "fleet"
        banner = (
            f"routing on {{addr}} over {args.shards} worker shard(s) "
            f"[{knobs} thread(s)/shard]"
        )
    else:
        what, banner = "service", f"serving on {{addr}} [{knobs} worker(s)]"

    async def _main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # non-unix loops
                pass
        async with front:
            server = await serve_tcp(
                front, args.host, args.port, max_line_bytes=config.max_line_bytes
            )
            host, port = server.sockets[0].getsockname()[:2]
            print(
                banner.format(addr=f"{host}:{port}"),
                "— Ctrl-C drains gracefully",
                flush=True,
            )
            try:
                await stop.wait()
            finally:
                print("\ndraining: no new requests; finishing accepted "
                      "work ...", flush=True)
                server.close()
                await server.wait_closed()
        if args.shards:
            print("drained; fleet stopped.")
        else:
            s = front.stats
            print(
                f"drained. submitted={s.submitted} completed={s.completed} "
                f"failed={s.failed} timed_out={s.requests_timed_out} "
                f"shed={s.requests_shed}"
            )

    try:
        asyncio.run(_main())
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Signal handler installation failed (non-unix): the interrupt
        # aborted the loop; the front still drained via __aexit__.
        print(f"\ninterrupted — {what} stopped", file=sys.stderr)
        return 130
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Scrape ``{"op": "stats"}`` from a running server and render it."""
    import asyncio
    import json

    from repro.errors import ServeError
    from repro.serve import health_over_tcp, stats_over_tcp
    from repro.shard.stats import HISTOGRAM_KEYS

    plane = "health" if args.health else "stats"
    try:
        if args.health:
            snap = asyncio.run(health_over_tcp(args.host, args.port))
        else:
            snap = asyncio.run(stats_over_tcp(args.host, args.port))
    except (ServeError, OSError) as exc:
        print(
            f"error: cannot scrape {plane} from {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.as_json:
        print(json.dumps(snap, sort_keys=True))
        return 0
    source = snap.get("source", "service")
    if args.health:
        t = Table(
            ["probe", "value"],
            title=f"{source} health @ {args.host}:{args.port}",
        )
        for key, value in snap.items():
            if key == "queue_depths":
                for bucket, depth in sorted(value.items()):
                    t.add_row([f"queue[{bucket}]", depth])
            elif key == "per_shard":
                for sid, summ in sorted(value.items(), key=lambda kv: kv[0]):
                    state = summ.get("state", "?")
                    t.add_row(
                        [
                            f"shard[{sid}]",
                            f"{state} pid={summ.get('pid')} "
                            f"outstanding={summ.get('outstanding', 0)} "
                            f"gen={summ.get('generation', 0)}",
                        ]
                    )
            elif key == "router":
                for rkey, rval in sorted(value.items()):
                    t.add_row([f"router[{rkey}]", rval])
            else:
                t.add_row([key, value])
        print(t.render())
        return 0
    t = Table(
        ["counter", "value"], title=f"{source} stats @ {args.host}:{args.port}"
    )
    t.add_row(["source", source])
    for key in (
        "submitted",
        "completed",
        "resolved_by_target",
        "resolved_by_deadline",
        "failed",
        "requests_timed_out",
        "requests_shed",
        "requests_retried",
        "batches_bisected",
        "batches",
        "rows_packed",
        "ls_batches",
    ):
        t.add_row([key, snap.get(key, 0)])
    for cause, count in sorted(snap.get("flush_causes", {}).items()):
        t.add_row([f"flush[{cause}]", count])
    for rkey, rval in sorted(snap.get("router", {}).items()):
        t.add_row([f"router[{rkey}]", rval])
    print(t.render())
    h = Table(
        ["distribution", "count", "mean", "p50", "p95", "p99", "max"],
        title=(
            "request lifecycle and engine phase distributions "
            "(seconds; rows for batch_rows)"
        ),
    )
    for key in HISTOGRAM_KEYS:
        dist = snap.get(key)
        if not dist:
            continue
        h.add_row(
            [
                key,
                dist["count"],
                f"{dist['mean']:.6g}",
                f"{dist['p50']:.6g}",
                f"{dist['p95']:.6g}",
                f"{dist['p99']:.6g}",
                f"{dist['max']:.6g}",
            ]
        )
    print(h.render())
    return 0


def _cmd_backends() -> int:
    t = Table(
        ["key", "available", "accelerated", "detail"],
        title="registered array backends",
    )
    for info in available_backends():
        t.add_row(
            [
                info.name,
                "yes" if info.available else "no",
                "yes" if info.accelerated else "no",
                "-" if info.available else (info.reason or "unavailable"),
            ]
        )
    print(t.render())
    print(
        "select with --backend NAME, the ACO_BACKEND environment variable, "
        "or AntSystem/BatchEngine(backend=...)"
    )
    return 0


def _cmd_devices() -> int:
    t = Table(
        ["key", "name", "CC", "SMs", "SPs", "clock MHz", "shared/SM", "BW GB/s",
         "fp32 atomics"],
        title="simulated devices (paper Table I)",
    )
    for key, dev in sorted(DEVICES.items()):
        t.add_row(
            [
                key,
                dev.name,
                f"{dev.compute_capability:.1f}",
                dev.sm_count,
                dev.total_sps,
                f"{dev.clock_hz / 1e6:.0f}",
                f"{dev.shared_mem_per_sm // 1024} KB",
                f"{dev.bandwidth_bytes_s / 1e9:.0f}",
                "yes" if dev.has_fp32_global_atomics else "no (emulated)",
            ]
        )
    print(t.render())
    return 0


def _cmd_lint(args) -> int:
    """Run the repo-invariant linter (``repro.lint``) over the given paths."""
    from repro.lint import all_rules, lint_paths, select_rules
    from repro.lint.report import render_findings, render_json, render_rule_list

    if args.list_rules:
        print(render_rule_list(all_rules()))
        return 0
    try:
        rules = select_rules(args.rules)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    paths = list(args.paths or [])
    if not paths:
        paths = [p for p in ("src", "benchmarks") if os.path.isdir(p)]
        if not paths:
            print(
                "error: no paths given and no src/ or benchmarks/ under the "
                "current directory",
                file=sys.stderr,
            )
            return 2
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = lint_paths(paths, rules=rules)
    print(render_json(result) if args.as_json else render_findings(result))
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "devices":
            return _cmd_devices()
        if args.command == "backends":
            return _cmd_backends()
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "experiments":
            from repro.experiments.__main__ import main as exp_main

            return exp_main(args.args)
    except ACOConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    except KeyboardInterrupt:
        # Backstop for interrupts the command didn't turn into a best-so-far
        # report (e.g. before the first iteration completed): still exit
        # with the conventional 128 + SIGINT status instead of a traceback.
        print("\ninterrupted", file=sys.stderr)
        return 130
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
