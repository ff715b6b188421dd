"""The shard router: BatchKey-hash routing over N worker processes.

One asyncio process owns N :class:`~repro.shard.supervisor.WorkerShard`
workers and is a front for :func:`~repro.serve.protocol.serve_tcp`, the
one JSON-lines handler ``gpu-aco serve`` runs on either tier, so every
existing client/CLI works unchanged.  The handler decodes and validates
each line exactly like a single server (errors become ``error`` lines
without a worker round-trip) and hands solve requests to
:meth:`ShardRouter.submit_wire`, which:

1. routes by a **stable hash** of the request's
   :class:`~repro.serve.service.BatchKey` — equal-geometry requests land
   on the same shard, preserving the micro-batcher's packing density —
   unless the primary is dead or scoring past ``spill_threshold``, in
   which case the request spills to the least-loaded healthy shard
   (scored from each worker's ``{"op": "health"}`` probe + the router's
   own outstanding counts);
3. forwards over the shard's **trunk** (one pipelined connection per
   worker) under a router-assigned wire id, and relays ``update``/
   ``result``/``error`` lines back under the client's id.

Failover: a worker death surfaces as trunk EOF.  The router respawns the
shard (``shards_respawned``) and re-forwards every outstanding request
that died with it — full deterministic re-runs, so the client still
receives the bit-identical result (updates may replay: delivery is
at-least-once, results exactly-once).  A seeded
:class:`~repro.serve.faults.FaultPlan.kill_workers` schedule drives this
deterministically in tests.  Load shedding: router-level ``max_routed``
backpressure plus verbatim propagation of worker
:class:`~repro.errors.ServiceOverloadedError` error lines.

Thread model: everything here is event-loop-confined (``guarded-by:
loop``); the only off-loop work is ``Process.join`` inside
:meth:`~repro.shard.supervisor.WorkerShard.wait_exit`'s executor call.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json

from repro.errors import ReproError, ServeError, ServiceOverloadedError
from repro.obs import MetricsRegistry
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.protocol import (
    ClientSession,
    encode_error,
    encode_request,
    health_over_tcp,
    stats_over_tcp,
)
from repro.serve.service import BatchKey, SolveRequest
from repro.shard.stats import fold_health, fold_stats
from repro.shard.supervisor import WorkerShard
from repro.shard.worker import ShardConfig

__all__ = ["ShardRouter", "shard_index"]

_PROBE_NET = {"connect_timeout": 2.0, "read_timeout": 5.0}


def shard_index(key: BatchKey, nshards: int) -> int:
    """Stable shard assignment for a bucket key.

    A content hash, not builtin ``hash()`` — str hashing is salted per
    process, and routing must be reproducible across router restarts for
    tests and capacity reasoning alike.
    """
    digest = hashlib.sha256(repr(tuple(key)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % nshards


class _Routed:
    """Router book-keeping for one in-flight forwarded request."""

    __slots__ = ("wid", "req_id", "key", "wire", "session", "shard_id", "reroutes")

    def __init__(
        self,
        wid: str,
        req_id: str | int,
        key: BatchKey,
        wire: bytes,
        session: ClientSession,
    ) -> None:
        self.wid = wid
        self.req_id = req_id
        self.key = key
        self.wire = wire
        self.session = session
        self.shard_id = -1
        self.reroutes = 0


class ShardRouter:
    """Supervisor + router over N worker-process shards.

    Parameters
    ----------
    shards:
        Worker-process count (>= 1).
    config:
        Per-worker :class:`~repro.shard.worker.ShardConfig` (service
        knobs, backend/device names); one shared config for all shards.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan`: the router honours
        ``kill_workers`` (SIGKILL the target shard after forwarding the
        scheduled routed-request ordinals) and passes nothing to workers —
        worker-level fault injection stays a worker constructor concern.
    spill_threshold:
        Primary-shard score (queued + in-flight + outstanding) at or above
        which a request overflows to the least-loaded healthy shard.
    max_routed:
        Router-level backpressure bound on outstanding forwarded requests;
        submissions past it are answered with
        :class:`~repro.errors.ServiceOverloadedError` (the same error type
        a worker's own shedding propagates through the router verbatim).
    health_interval:
        Seconds between background ``{"op": "health"}`` probe rounds.
    max_reroutes:
        Times one request may fail over before the router gives up and
        answers with an ``error`` line.
    """

    def __init__(
        self,
        shards: int,
        config: ShardConfig | None = None,
        *,
        faults: FaultPlan | FaultInjector | None = None,
        spill_threshold: float = 16.0,
        max_routed: int = 1024,
        health_interval: float = 0.25,
        max_reroutes: int = 2,
        ready_timeout: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        if max_routed < 1:
            raise ServeError(f"max_routed must be >= 1, got {max_routed}")
        self.config = config or ShardConfig()
        plan = faults.plan if isinstance(faults, FaultInjector) else faults
        self._fault_plan: FaultPlan | None = plan
        self.spill_threshold = float(spill_threshold)
        self.max_routed = max_routed
        self.health_interval = float(health_interval)
        self.max_reroutes = max_reroutes
        self.shards = [
            WorkerShard(i, self.config, ready_timeout=ready_timeout)
            for i in range(shards)
        ]
        self.metrics = MetricsRegistry()
        self._requests_routed = self.metrics.counter("router.requests_routed")
        self._shards_respawned = self.metrics.counter("router.shards_respawned")
        self._spillovers = self.metrics.counter("router.spillovers")
        self._shed = self.metrics.counter("router.requests_shed")
        self._outstanding: dict[str, _Routed] = {}  # guarded-by: loop
        self._wid_seq = itertools.count()
        self._route_ordinal = 0  # guarded-by: loop — FaultPlan addressing
        self._accepting = False  # guarded-by: loop
        self._closing = False  # guarded-by: loop
        self._readers: dict[int, asyncio.Task] = {}  # guarded-by: loop
        self._prober: asyncio.Task | None = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> "ShardRouter":
        """Spawn every shard, connect trunks, start readers + prober."""
        try:
            for shard in self.shards:
                await shard.spawn()
                self._start_reader(shard)
        except BaseException:
            await self.stop()
            raise
        self._prober = asyncio.create_task(
            self._probe_loop(), name="aco-router-prober"
        )
        self._accepting = True
        return self

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, let workers finish what was
        accepted (results relay as usual), then stop the fleet."""
        self._accepting = False
        while self._outstanding and any(
            s.state in ("healthy", "starting") for s in self.shards
        ):
            await asyncio.sleep(0.02)
        await self.stop()

    async def stop(self) -> None:
        """Tear the fleet down: SIGTERM every worker (graceful drain in the
        worker), escalate to SIGKILL on a hung exit.  Outstanding requests
        that can no longer complete are answered with error lines.
        Idempotent."""
        if self._closing:
            return
        self._closing = True
        self._accepting = False
        if self._prober is not None:
            self._prober.cancel()
            self._prober = None
        for shard in self.shards:
            shard.terminate()
        for shard in self.shards:
            await shard.wait_exit(timeout=10.0)
            shard.kill()  # escalate if the graceful exit hung
            await shard.wait_exit(timeout=5.0)
            await shard.close_trunk()
            shard.state = "dead"
        for task in list(self._readers.values()):
            task.cancel()
        self._readers.clear()
        for routed in list(self._outstanding.values()):
            await self._end(
                routed,
                encode_error(
                    routed.req_id,
                    ServeError("router stopped before the request resolved"),
                ),
            )

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    async def rolling_restart(self) -> None:
        """Drain/restart shards one at a time, fleet staying up throughout.

        Each shard is SIGTERMed (its service finishes accepted work and
        streams the results over the trunk before exiting — nothing is
        re-routed), awaited, respawned, and re-marked healthy before the
        next one goes down.
        """
        for shard in self.shards:
            if self._closing:
                return
            shard.state = "restarting"
            shard.terminate()
            await shard.wait_exit()
            await shard.close_trunk()
            reader = self._readers.pop(shard.id, None)
            if reader is not None:
                reader.cancel()
            if self._closing:
                return
            await shard.spawn()
            self._start_reader(shard)

    # --------------------------------------------------------------- routing

    def _healthy(self) -> list[WorkerShard]:
        return [s for s in self.shards if s.state == "healthy"]

    def _pick_shard(self, key: BatchKey) -> tuple[WorkerShard, bool]:
        """Primary-by-hash with overflow/failover spill; ``(shard, spilled)``.

        Raises :class:`~repro.errors.ServiceOverloadedError` when no shard
        is healthy (a dying fleet sheds rather than queues blind).
        """
        healthy = self._healthy()
        if not healthy:
            raise ServiceOverloadedError(
                "no healthy shards (fleet down or mid-respawn); retry"
            )
        primary = self.shards[shard_index(key, len(self.shards))]
        if primary.state == "healthy" and primary.score() < self.spill_threshold:
            return primary, False
        spill = min(healthy, key=lambda s: (s.score(), s.id))
        return spill, spill is not primary and primary.state == "healthy"

    async def _forward(self, routed: _Routed) -> None:
        """Write one request down a chosen shard's trunk, with bounded
        retargeting if the shard dies under the write."""
        for _attempt in range(len(self.shards) + 1):
            shard, spilled = self._pick_shard(routed.key)
            try:
                async with shard.trunk_lock:
                    if shard.state != "healthy" or shard.writer is None:
                        continue  # died while we awaited the lock
                    shard.writer.write(routed.wire)
                    await shard.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                # Trunk broke mid-write: the reader task drives the actual
                # failover; retarget this request right away.
                if shard.state == "healthy":
                    shard.state = "dead"
                continue
            routed.shard_id = shard.id
            shard.outstanding += 1
            shard.routed_total += 1
            if spilled:
                self._spillovers.inc()
            return
        raise ServiceOverloadedError("no shard accepted the request; retry")

    @staticmethod
    def _instance_wire_form(raw_instance: dict) -> dict:
        """Suite stubs pass through by name; a coordinate instance is
        forwarded inline as the client sent it.  The front's decode has
        already validated that object, and JSON floats round-trip
        exactly, so the worker builds the same instance."""
        if "suite" in raw_instance:
            return {"suite": raw_instance["suite"]}
        return raw_instance

    async def _end(self, routed: _Routed, line: bytes) -> None:
        """Resolve an accepted request and send its last line.  Every path
        that finishes one — relay, failover give-up, respawn failure,
        :meth:`stop` — ends here, so its session counts it once."""
        if self._outstanding.pop(routed.wid, None) is not None:
            await routed.session.finish(line)

    async def submit_wire(
        self,
        raw_obj: dict,
        req_id: str | int,
        request: SolveRequest,
        session: ClientSession,
    ) -> None:
        """Route one decoded solve request; ``accepted`` goes onto the
        client ``session`` on success (the wire-front call
        :func:`~repro.serve.protocol.serve_tcp` makes).

        Raises :class:`~repro.errors.ReproError` subclasses for the caller
        to turn into ``error`` lines (closed router, shed load, no healthy
        shard).
        """
        if not self._accepting:
            raise ServeError("router is draining; no new requests")
        if len(self._outstanding) >= self.max_routed:
            self._shed.inc()
            raise ServiceOverloadedError(
                f"router at max_routed={self.max_routed} outstanding requests"
            )
        wid = f"x{next(self._wid_seq)}"
        wire = encode_request(
            request, wid, instance_obj=self._instance_wire_form(raw_obj["instance"])
        )
        routed = _Routed(wid, req_id, request.bucket_key, wire, session)
        self._outstanding[wid] = routed
        try:
            await self._forward(routed)
        except BaseException:
            self._outstanding.pop(wid, None)
            raise
        ordinal = self._route_ordinal
        self._route_ordinal += 1
        self._requests_routed.inc()
        await session.accept(req_id)
        plan = self._fault_plan
        if plan is not None and ordinal in plan.kill_workers:
            # Deterministic chaos: SIGKILL the shard this request landed
            # on, after the forward — real process death, mid-burst.
            self.shards[routed.shard_id].kill()

    # ----------------------------------------------------------- trunk relay

    def _start_reader(self, shard: WorkerShard) -> None:
        self._readers[shard.id] = asyncio.create_task(
            self._trunk_reader(shard, shard.generation),
            name=f"aco-router-trunk-{shard.id}",
        )

    async def _trunk_reader(self, shard: WorkerShard, generation: int) -> None:
        """Relay one worker's response stream; EOF triggers failover."""
        reader = shard.reader
        assert reader is not None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    break
                if not line:
                    break
                await self._relay(shard, line)
        except asyncio.CancelledError:
            raise
        finally:
            if not self._closing and shard.generation == generation:
                await self._on_trunk_down(shard)

    async def _relay(self, shard: WorkerShard, line: bytes) -> None:
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return  # a worker never sends garbage; drop defensively
        kind = obj.get("type")
        if kind == "accepted":
            return  # the router already accepted under the client id
        routed = self._outstanding.get(str(obj.get("id")))
        if routed is None:
            return  # resolved elsewhere (e.g. re-routed) or unknown
        obj["id"] = routed.req_id
        line = (json.dumps(obj) + "\n").encode("utf-8")
        if kind not in ("result", "error"):
            await routed.session.send(line)
            return
        if 0 <= routed.shard_id < len(self.shards):
            target = self.shards[routed.shard_id]
            target.outstanding = max(0, target.outstanding - 1)
        await self._end(routed, line)

    async def _on_trunk_down(self, shard: WorkerShard) -> None:
        """A worker went away: planned restarts just mark state; unplanned
        deaths respawn the shard and re-forward its outstanding requests."""
        planned = shard.state == "restarting"
        if not planned:
            shard.state = "dead"
        await shard.close_trunk()
        orphans = [
            r for r in self._outstanding.values() if r.shard_id == shard.id
        ]
        if planned:
            return  # rolling_restart owns the respawn
        self._readers.pop(shard.id, None)
        await shard.wait_exit(timeout=10.0)
        if self._closing:
            return
        try:
            await shard.spawn()
        except ServeError as exc:
            for routed in orphans:
                await self._end(routed, encode_error(routed.req_id, exc))
            return
        self._start_reader(shard)
        self._shards_respawned.inc()
        for routed in orphans:
            if routed.wid not in self._outstanding:
                continue  # resolved while we respawned
            routed.reroutes += 1
            if routed.reroutes > self.max_reroutes:
                await self._end(
                    routed,
                    encode_error(
                        routed.req_id,
                        ServeError(
                            f"request failed over {routed.reroutes} times "
                            "without completing"
                        ),
                    ),
                )
                continue
            try:
                await self._forward(routed)
            except ReproError as exc:
                await self._end(routed, encode_error(routed.req_id, exc))

    # ------------------------------------------------------------- observers

    async def _probe_loop(self) -> None:
        """Background health sampling: feeds the spill scorer and the
        aggregated health payload."""
        while True:
            await asyncio.sleep(self.health_interval)
            await asyncio.gather(
                *(self._probe(s) for s in self.shards if s.state == "healthy"),
                return_exceptions=True,
            )

    async def _probe(self, shard: WorkerShard) -> None:
        generation = shard.generation
        try:
            sample = await health_over_tcp(
                self.config.host, shard.port, **_PROBE_NET
            )
        except (ServeError, OSError):
            if shard.generation == generation:
                shard.probe_failures += 1
            return
        if shard.generation == generation and shard.state == "healthy":
            shard.health_sample = sample

    def _router_block(self) -> dict:
        return {
            "requests_routed": self._requests_routed.value,
            "shards_respawned": self._shards_respawned.value,
            "spillovers": self._spillovers.value,
            "requests_shed": self._shed.value,
            "shards": len(self.shards),
            "shards_healthy": len(self._healthy()),
            "outstanding": len(self._outstanding),
        }

    async def _scrape_healthy(self, scrape) -> dict[int, dict]:
        """``scrape`` (an admin client call) on every healthy shard at once;
        shard id -> payload, shards that failed to answer left out."""
        shards = self._healthy()
        payloads = await asyncio.gather(
            *(scrape(self.config.host, s.port, **_PROBE_NET) for s in shards),
            return_exceptions=True,
        )
        return {
            s.id: payload
            for s, payload in zip(shards, payloads)
            if isinstance(payload, dict)
        }

    async def stats_payload(self) -> dict:
        """The router's ``{"op": "stats"}`` answer: live per-shard scrapes
        folded into one service-shaped aggregate (see
        :func:`~repro.shard.stats.fold_stats`)."""
        per_shard = await self._scrape_healthy(stats_over_tcp)
        return fold_stats(per_shard, router=self._router_block())

    async def health_payload(self) -> dict:
        """The router's ``{"op": "health"}`` answer (every shard appears,
        dead ones included)."""
        per_shard = await self._scrape_healthy(health_over_tcp)
        summaries = {s.id: s.summary() for s in self.shards}
        return fold_health(per_shard, summaries, router=self._router_block())
