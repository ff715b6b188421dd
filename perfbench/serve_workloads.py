"""Serve workloads: a real ``gpu-aco serve`` driven over its JSON-lines TCP wire.

``serve-open``
    Single-process server with CLI defaults.  An open loop sends seeded
    Poisson arrivals at a fixed rate; sizes n in {24, 32, 48} from a small
    instance pool per size, so instances repeat and only seeds differ.
    Each request is timed from when it was due, not from when it was sent.

``serve-sharded``
    ``gpu-aco serve --shards 2``.  A closed loop of 2 connections each
    keeps a fixed window in flight.  Every request carries a distinct
    inline instance, in two sizes chosen so their batch keys hash to
    different shards.

The server is started (and, for the set-up metric, restarted) before the
timed window, warmed with one request per size, and scraped through its
``{"op": "stats"}`` plane before and after the window.  Results are
checked after the window: every tour is validated and its length
recomputed, and a seeded sample is compared bit-for-bit with a solo
``BatchEngine`` run of the same request.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import select
import signal
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

from harness import (
    HERE,
    OUT_DIR,
    ROOT,
    Outcome,
    beyond,
    digest,
    host_block,
    median,
    out_path,
    percentile,
    subprocess_env,
)

REPORT_EVERY = 10
#: rows the CLI default ``--max-batch`` packs into one engine
MAX_BATCH = 8

SERVE_WORKLOADS = {
    "serve-open": {
        "sizes": (24, 32, 48),
        "pool_per_size": 4,
        "iterations": 10,
        # a third of the ~150 req/s this mix sustains open-loop on a 2-core
        # x86 box: at half, the schedule's own bursts queue up and the tail
        # depends more on the seed than on the server.  A 25 s run holds
        # 1,250 requests, 125 per latency slice, so 12 lie beyond its p90.
        "rate_per_s": 50.0,
        "latency_limit_ms": 1000.0,
    },
    "serve-sharded": {
        "shards": 2,
        "iterations": 30,
        "size_candidates": tuple(range(32, 48)),
        "connections": 2,
        "window": 8,
        "latency_limit_ms": 3000.0,
    },
}

#: where the traced single-process server leaves its per-layer values and spans
LAYERS_FILE = os.path.join(OUT_DIR, "serve-open-layers.json")
TRACE_FILE = os.path.join(OUT_DIR, "trace-serve-open.json")
#: server starts per run; the set-up metric is their median
SETUP_STARTS = 5
#: solo re-runs per benchmark run (a seeded sample of the completed requests)
SOLO_SAMPLE = 24
#: equal spans of send time the latency percentiles are taken over
SLICES = 10
#: how long stragglers may take after the last send before they count as failed
DRAIN_TIMEOUT_S = 30.0


# ------------------------------------------------------------------- requests


@dataclass
class Request:
    rid: str
    n: int
    coords: list
    seed: int
    iterations: int
    line: bytes = b""
    due: float = 0.0  #: scheduled (open loop) or actual (closed loop) send time
    sent: float = 0.0
    done: float = 0.0
    result: dict | None = None
    error: str | None = None


def _coords(rng: random.Random, n: int) -> list:
    return [[rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)] for _ in range(n)]


def _encode(req: Request) -> bytes:
    payload = {
        "id": req.rid,
        "instance": {"name": f"bench{req.n}", "coords": req.coords},
        "iterations": req.iterations,
        "report_every": REPORT_EVERY,
        "params": {"seed": req.seed},
    }
    return (json.dumps(payload) + "\n").encode()


def shard_sizes(shards: int, candidates, iterations: int) -> tuple[int, ...]:
    """The first candidate size whose batch key hashes to each shard."""
    from repro.core.params import ACOParams
    from repro.serve.service import BatchKey
    from repro.shard.router import shard_index

    chosen: dict[int, int] = {}
    params = ACOParams()
    for n in candidates:
        key = BatchKey(
            n=n, m=params.resolve_ants(n), nn=params.resolve_nn(n),
            iterations=iterations, report_every=REPORT_EVERY,
            construction=8, pheromone=1,
        )
        chosen.setdefault(shard_index(key, shards), n)
    if len(chosen) < shards:
        raise RuntimeError(f"no candidate sizes cover all {shards} shards")
    return tuple(chosen[i] for i in range(shards))


# --------------------------------------------------------------------- server


@dataclass
class Server:
    """One ``gpu-aco serve`` process (and, sharded, its worker fleet)."""

    argv: list
    log_name: str
    proc: subprocess.Popen | None = None
    port: int = 0
    _log: object = field(default=None, repr=False)

    def start(self, timeout: float = 90.0) -> None:
        self._log = open(out_path(self.log_name), "ab")
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            left = timeout - (perf_counter() - t0)
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server did not come up: {self.argv}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited during start: {self.argv}")
                buf += chunk
        banner = buf.split(b"\n", 1)[0].decode()
        # "serving on HOST:PORT [...]" / "routing on HOST:PORT over ..."
        self.port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the server's process tree."""
        total_kb = 0
        for pid in _process_tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL the group if it hangs."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.communicate(timeout=10)
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._log.close()
            self.proc = None


def _process_tree(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


# --------------------------------------------------------------------- client


class WireClient:
    """Pipelined JSON-lines connections; resolves requests by id."""

    def __init__(self) -> None:
        self.conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.waiting: dict[str, tuple[Request, asyncio.Future]] = {}
        self._readers: list[asyncio.Task] = []

    async def connect(self, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
            self.conns.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            now = perf_counter()
            obj = json.loads(line)
            kind = obj.get("type")
            if kind not in ("result", "error"):
                continue
            entry = self.waiting.pop(str(obj.get("id")), None)
            if entry is None:
                continue
            req, fut = entry
            req.done = now
            if kind == "result":
                req.result = obj
            else:
                req.error = f"{obj.get('error')}: {obj.get('message')}"
            if not fut.done():
                fut.set_result(req)
        for req, fut in list(self.waiting.values()):
            if not fut.done():
                req.error = "connection closed"
                fut.set_result(req)

    def send(self, req: Request, conn: int) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.waiting[req.rid] = (req, fut)
        req.sent = perf_counter()
        self.conns[conn][1].write(req.line)
        return fut

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def _settle(futs: list, timeout: float) -> None:
    if futs:
        await asyncio.wait(futs, timeout=timeout)


async def open_loop(port: int, reqs: list[Request], offsets: list[float],
                    conns: int, on_half=None) -> None:
    """Send ``reqs[i]`` at ``t0 + offsets[i]`` whatever the server does."""
    client = WireClient()
    await client.connect(port, conns)
    futs = []
    t0 = perf_counter() + 0.05
    half = offsets[-1] / 2.0 if offsets else 0.0
    halved = on_half is None
    for i, (req, off) in enumerate(zip(reqs, offsets)):
        if not halved and off >= half:
            on_half()
            halved = True
        req.due = t0 + off
        delay = req.due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futs.append(client.send(req, i % conns))
    await _settle(futs, DRAIN_TIMEOUT_S)
    for req in reqs:
        if req.result is None and req.error is None:
            req.error = "no result within the drain timeout"
    await client.close()


async def closed_loop(port: int, make: Callable[[int], Request], conns: int, window: int,
                      seconds: float) -> list[Request]:
    """Each connection keeps ``window`` requests in flight for ``seconds``.

    Every in-flight slot sends its next request as soon as its previous
    one resolves; ``make(slot)`` builds it, so a slot can keep one size
    (and with it one batch key, one shard) for the whole run.
    """
    client = WireClient()
    await client.connect(port, conns)
    sent: list[Request] = []
    t_end = perf_counter() + seconds

    async def slot_loop(conn: int, slot: int) -> None:
        while perf_counter() < t_end:
            req = make(slot)
            sent.append(req)
            fut = client.send(req, conn)
            req.due = req.sent
            await asyncio.wait([fut], timeout=DRAIN_TIMEOUT_S)
            if not fut.done():
                req.error = "no result within the drain timeout"
                break

    await asyncio.gather(
        *(slot_loop(c, c * window + s) for c in range(conns) for s in range(window))
    )
    await client.close()
    return sent


async def _warm(port: int, reqs: list[Request]) -> None:
    client = WireClient()
    await client.connect(port, 1)
    await _settle([client.send(r, 0) for r in reqs], DRAIN_TIMEOUT_S)
    await client.close()
    bad = [r for r in reqs if r.result is None]
    if bad:
        raise RuntimeError(f"warm-up request failed: {bad[0].error}")


def _stats(port: int) -> dict:
    from repro.serve import stats_over_tcp

    return asyncio.run(stats_over_tcp("127.0.0.1", port, connect_timeout=10, read_timeout=30))


# ------------------------------------------------------------------- checking


def _verify(reqs: list[Request], seed: int) -> tuple[set[str], list[str]]:
    """Ids of wrong results: invalid tours, wrong lengths, solo mismatches."""
    import numpy as np

    from repro.core import BatchEngine
    from repro.core.params import ACOParams
    from repro.errors import InvalidTourError
    from repro.tsp.instance import TSPInstance
    from repro.tsp.tour import tour_length, validate_tour

    instances: dict[int, TSPInstance] = {}

    def instance(r: Request) -> TSPInstance:
        if id(r.coords) not in instances:
            instances[id(r.coords)] = TSPInstance(
                name=f"bench{r.n}", coords=np.asarray(r.coords, dtype=np.float64)
            )
        return instances[id(r.coords)]

    wrong: set[str] = set()
    done = [r for r in reqs if r.result is not None]
    for r in done:
        try:
            tour = validate_tour(np.asarray(r.result["best_tour"]), r.n)
        except InvalidTourError:
            wrong.add(r.rid)
            continue
        if tour_length(tour, instance(r).distance_matrix()) != r.result["best_length"] \
                or r.result.get("iterations_run") != r.iterations:
            wrong.add(r.rid)
    sample = random.Random(seed).sample(done, min(SOLO_SAMPLE, len(done)))
    mismatches = 0
    for r in sample:
        solo = BatchEngine(instance(r), ACOParams(seed=r.seed)).run(
            r.iterations, report_every=REPORT_EVERY
        ).results[0]
        if not (
            solo.best_length == r.result["best_length"]
            and solo.best_tour.tolist() == r.result["best_tour"]
            and list(solo.iteration_best_lengths) == r.result["iteration_best_lengths"]
        ):
            mismatches += 1
            wrong.add(r.rid)
    notes = [f"{len(done)} results validated, {len(wrong)} wrong; {len(sample)} "
             f"compared with a solo BatchEngine run, {mismatches} mismatched"]
    return wrong, notes


# ------------------------------------------------------------------ workloads


def _launch(name: str, cfg: dict, trace: bool) -> tuple[Server, list[float]]:
    """Start the server ``SETUP_STARTS`` times (keeping the last); each
    set-up sample is process start until it accepts plus the warm-up."""
    if name == "serve-open":
        flags = ["--port", "0"]
        if trace:
            if os.path.exists(LAYERS_FILE):
                os.remove(LAYERS_FILE)
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                    LAYERS_FILE, TRACE_FILE, "--", *flags]
        else:
            argv = [sys.executable, "-m", "repro.cli", "serve", *flags]
        sizes = cfg["sizes"]
    else:
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--shards", str(cfg["shards"])]
        sizes = shard_sizes(cfg["shards"], cfg["size_candidates"], cfg["iterations"])
    setups = []
    server = None
    for k in range(SETUP_STARTS):
        if server is not None:
            server.stop()
        server = Server(argv, f"{name}.log")
        rng = random.Random(-1 - k)
        warm = [Request(f"warm{k}-{n}", n, _coords(rng, n), 1 + n, cfg["iterations"])
                for n in sizes]
        for r in warm:
            r.line = _encode(r)
        t0 = perf_counter()
        try:
            server.start()
            asyncio.run(_warm(server.port, warm))
        except BaseException:
            server.stop()
            raise
        setups.append(perf_counter() - t0)
    return server, setups


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.backend import resolve_backend

    cfg = SERVE_WORKLOADS[name]
    server, setups = _launch(name, cfg, trace)
    notes: list[str] = []
    try:
        before = _stats(server.port)
        if name == "serve-open":
            reqs, lag_ms, halves = _drive_open(server, cfg, seed, seconds, trace)
        else:
            reqs = _drive_closed(server, cfg, seed, seconds)
            lag_ms, halves = [0.0], None
        after = _stats(server.port)
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    ok = [r for r in reqs if r.result is not None]
    lat_ms = [(r.done - r.due) * 1e3 for r in ok]
    slices = _slices(ok)
    failures = [r for r in reqs if r.result is None]
    wrong, check_notes = _verify(reqs, seed)
    limit = cfg["latency_limit_ms"]
    good = sum(1 for r, ms in zip(ok, lat_ms) if ms <= limit and r.rid not in wrong)
    # the served window: first scheduled send to last result
    span = max(r.done for r in ok) - min(r.due for r in reqs)
    metrics = {
        "colony_iters_per_s": (len(ok) * cfg["iterations"] / span, "1/s"),
        "latency_p50_ms": (median([median(s) for s in slices]), "ms"),
        "latency_p90_ms": (median([percentile(s, 90.0) for s in slices]), "ms"),
        "goodput_rps": (good / span, "req/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes.append(f"{len(reqs)} requests sent, {len(ok)} completed, "
                 f"{len(failures)} failed; {SLICES} slices of {min(map(len, slices))}-"
                 f"{max(map(len, slices))} results, {beyond(slices[0], 90.0)} beyond "
                 f"the first slice's p90")
    notes.append(f"whole-run latency (ms): p50 {median(lat_ms):.2f}, "
                 f"p90 {percentile(lat_ms, 90.0):.2f}, p99 {percentile(lat_ms, 99.0):.2f}")
    if failures:
        notes.append(f"first failure: {failures[0].error}")
    notes.extend(check_notes)
    notes.append(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    outcome = Outcome(
        workload=name,
        attempted=len(reqs),
        failed=len(failures) + len(wrong),
        correct=not wrong,
        metrics=metrics,
        host=host_block(seed, resolve_backend(None).name, limit),
        digest=digest(sorted((r.rid, r.result["best_length"]) for r in ok)),
        notes=notes,
    )
    if trace:
        _apply_trace(outcome, name, cfg, before, after, lat_ms, lag_ms, halves)
    return outcome


def _slices(ok: list[Request]) -> list[list[float]]:
    """Latencies (ms) in ``SLICES`` equal spans of send time.

    The latency metrics are medians over the slices of each slice's
    percentile: a host stall of a second or two spoils one or two slices
    instead of the whole run's tail.
    """
    t0 = min(r.due for r in ok)
    width = (max(r.due for r in ok) - t0) / SLICES or 1.0
    slices: list[list[float]] = [[] for _ in range(SLICES)]
    for r in ok:
        slices[min(SLICES - 1, int((r.due - t0) / width))].append((r.done - r.due) * 1e3)
    return [s for s in slices if s]


def _drive_open(server: Server, cfg: dict, seed: int, seconds: float, trace: bool):
    rng = random.Random(seed)
    pool = {n: [_coords(rng, n) for _ in range(cfg["pool_per_size"])] for n in cfg["sizes"]}
    # A Poisson process conditioned on rate x seconds arrivals: sorted
    # uniform arrival times.  Every run offers the same load.
    count = round(cfg["rate_per_s"] * seconds)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    reqs = []
    for _ in offsets:
        n = rng.choice(cfg["sizes"])
        req = Request(f"r{len(reqs)}", n, rng.choice(pool[n]), 1 + rng.randrange(1 << 30),
                      cfg["iterations"])
        req.line = _encode(req)
        reqs.append(req)
    # Traced run: the first half runs with the wrappers off, the second on.
    on_half = (lambda: server.proc.send_signal(signal.SIGUSR1)) if trace else None
    conns = max(1, min(os.cpu_count() or 1, 4))
    asyncio.run(open_loop(server.port, reqs, offsets, conns, on_half))
    lag_ms = [(r.sent - r.due) * 1e3 for r in reqs if r.sent]
    halves = None
    if trace:
        mid = offsets[-1] / 2.0
        halves = (
            [(r.done - r.due) * 1e3 for r, o in zip(reqs, offsets) if o < mid and r.result],
            [(r.done - r.due) * 1e3 for r, o in zip(reqs, offsets) if o >= mid and r.result],
        )
    return reqs, lag_ms, halves


def _drive_closed(server: Server, cfg: dict, seed: int, seconds: float) -> list[Request]:
    sizes = shard_sizes(cfg["shards"], cfg["size_candidates"], cfg["iterations"])

    # One seeded stream per slot: the j-th request of a slot is the same
    # on every run with this seed, however the slots interleave.
    streams: dict[int, tuple[random.Random, itertools.count]] = {}

    def make(slot: int) -> Request:
        rng, count = streams.setdefault(
            slot, (random.Random(f"{seed}/{slot}"), itertools.count())
        )
        n = sizes[slot % len(sizes)]
        req = Request(f"s{slot}-{next(count)}", n, _coords(rng, n),
                      1 + rng.randrange(1 << 30), cfg["iterations"])
        req.line = _encode(req)
        return req

    return asyncio.run(
        closed_loop(server.port, make, cfg["connections"], cfg["window"], seconds)
    )


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _apply_trace(outcome, name, cfg, before, after, lat_ms, lag_ms, halves) -> None:
    """Per-layer metrics from the stats plane, the launcher and the client."""
    from layers import as_metrics

    client_p50 = median(lat_ms)
    svc_p50 = after["request_latency_seconds"]["p50"] * 1e3
    batches = _delta(after, before, "batches")
    flush_b, flush_a = before["flush_causes"], after["flush_causes"]
    engine_wall = _delta(after, before, "engine_wall_seconds")
    layers = {
        "serve.service.queue_wait_ms_p50": after["queue_wait_seconds"]["p50"] * 1e3,
        "serve.service.queue_wait_ms_p99": after["queue_wait_seconds"]["p99"] * 1e3,
        "serve.service.flush_full": flush_a["full"] - flush_b["full"],
        "serve.service.flush_max_wait": flush_a["max_wait"] - flush_b["max_wait"],
        "serve.service.batch_wall_ms_p50": after["batch_wall_seconds"]["p50"] * 1e3,
        "serve.service.batch_wall_ms_p99": after["batch_wall_seconds"]["p99"] * 1e3,
        "serve.service.pack_ratio": (
            _delta(after, before, "rows_packed") / (batches * MAX_BATCH) if batches else 0.0
        ),
        "serve.service.colonies_per_s": (
            _delta(after, before, "colony_iterations") / engine_wall if engine_wall else 0.0
        ),
        "serve.service.shed": _delta(after, before, "requests_shed"),
        "serve.service.timed_out": _delta(after, before, "requests_timed_out"),
        "serve.service.retried": _delta(after, before, "requests_retried"),
        "loadgen.lag_p99_ms": percentile(lag_ms, 99.0),
    }
    if name == "serve-open":
        with open(LAYERS_FILE, encoding="utf-8") as fh:
            layers.update(json.load(fh))
        layers["serve.wire_overhead_ms"] = client_p50 - svc_p50
        untraced, traced = median(halves[0]), median(halves[1])
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        shares = {
            "queue wait": layers["serve.service.queue_wait_ms_p50"],
            "batch wall": layers["serve.service.batch_wall_ms_p50"],
            "engine build": (
                1e3 * layers["core.batch.engine_init_s"] / layers["core.batch.engine_init_count"]
                if layers["core.batch.engine_init_count"] else 0.0
            ),
            "wire": layers["serve.wire_overhead_ms"],
        }
        largest = max(shares, key=shares.get)
        outcome.notes.append(
            "p50 latency parts (ms): "
            + ", ".join(f"{k} {v:.2f}" for k, v in shares.items())
            + f"; largest: {largest}"
        )
        outcome.notes.append(f"chrome trace written to {TRACE_FILE}")
    else:
        router_b, router_a = before["router"], after["router"]
        per_b, per_a = before["per_shard"], after["per_shard"]
        rows = [
            float(per_a[s]["rows_packed"]) - float(per_b.get(s, {}).get("rows_packed", 0))
            for s in per_a
        ]
        mean_rows = sum(rows) / len(rows) if rows else 0.0
        layers.update({
            "shard.router.requests_routed": _delta(router_a, router_b, "requests_routed"),
            "shard.router.spillovers": _delta(router_a, router_b, "spillovers"),
            "shard.router.shards_respawned": _delta(router_a, router_b, "shards_respawned"),
            "shard.router.imbalance": max(rows) / mean_rows if mean_rows else 0.0,
            "shard.router.forward_overhead_ms": client_p50 - svc_p50,
            # the fleet runs untraced: nothing is installed in its processes
            "trace.overhead_frac": 0.0,
        })
    outcome.metrics = as_metrics(layers)
