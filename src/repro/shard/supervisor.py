"""Per-shard process lifecycle: spawn, ready-handshake, trunk, teardown.

A :class:`WorkerShard` is the router's handle on one worker process: the
``multiprocessing.Process`` itself, the readiness pipe, the **trunk**
(the router's one pipelined client connection to the worker's TCP wire),
and the router-side routing state the scorer reads (outstanding count,
last health sample).  The router owns all mutation from its event loop;
the only off-loop work is ``Process.join``, pushed to the default
executor so a slow worker exit never blocks routing.

States: ``starting`` (spawned, pre-handshake) → ``healthy`` (trunk up)
→ ``restarting`` (planned drain: SIGTERM sent, EOF expected — no
failover) or ``dead`` (unplanned EOF/kill — failover path) → respawn
cycles back to ``healthy`` with a fresh process and generation counter.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp

from repro.errors import ServeError
from repro.serve.protocol import MAX_RESPONSE_LINE_BYTES
from repro.shard.worker import ShardConfig, worker_main

__all__ = ["WorkerShard"]

#: long-lived process spawns include a full interpreter + numpy import
_READY_POLL_SECONDS = 0.02


class WorkerShard:
    """One worker process from the router's point of view.

    All attributes are mutated from the router's event loop only
    (``guarded-by: loop``); the scorer and the stats plane read them
    from the same loop.
    """

    def __init__(
        self, shard_id: int, config: ShardConfig, *, ready_timeout: float = 60.0
    ) -> None:
        self.id = shard_id
        self.config = config
        self.ready_timeout = ready_timeout
        self.state = "starting"  # guarded-by: loop
        self.generation = 0  # guarded-by: loop — bumps on every (re)spawn
        self.process: mp.Process | None = None  # guarded-by: loop
        self.port: int | None = None  # guarded-by: loop
        self.pid: int | None = None  # guarded-by: loop
        self.reader: asyncio.StreamReader | None = None  # guarded-by: loop
        self.writer: asyncio.StreamWriter | None = None  # guarded-by: loop
        self.trunk_lock = asyncio.Lock()
        self.outstanding = 0  # guarded-by: loop — requests routed, unresolved
        self.routed_total = 0  # guarded-by: loop
        self.health_sample: dict | None = None  # guarded-by: loop
        self.probe_failures = 0  # guarded-by: loop

    # ------------------------------------------------------------- lifecycle

    async def spawn(self) -> None:
        """Start the worker process and connect the trunk.

        The ready handshake is polled asynchronously (spawned children
        pay a full interpreter + numpy import before they can answer),
        then the trunk connects to the reported ephemeral port.
        """
        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=worker_main,
            args=(self.id, self.config, child_conn),
            name=f"aco-shard-{self.id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            ready = await self._await_ready(parent_conn, process)
        finally:
            parent_conn.close()
        self.process = process
        self.port = int(ready["port"])
        self.pid = int(ready["pid"])
        self.generation += 1
        self.reader, self.writer = await asyncio.open_connection(
            self.config.host, self.port, limit=MAX_RESPONSE_LINE_BYTES
        )
        self.health_sample = None
        self.probe_failures = 0
        self.outstanding = 0
        self.state = "healthy"

    async def _await_ready(self, conn, process: mp.Process) -> dict:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.ready_timeout
        while not conn.poll(0):
            if not process.is_alive():
                raise ServeError(
                    f"shard {self.id} worker died before reporting ready "
                    f"(exitcode {process.exitcode})"
                )
            if loop.time() > deadline:
                process.kill()
                raise ServeError(
                    f"shard {self.id} worker not ready within "
                    f"{self.ready_timeout}s"
                )
            await asyncio.sleep(_READY_POLL_SECONDS)
        return conn.recv()

    def terminate(self) -> None:
        """SIGTERM → the worker's graceful drain (planned shutdown)."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()

    def kill(self) -> None:
        """SIGKILL — immediate, ungraceful (chaos / unresponsive worker)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    async def wait_exit(self, timeout: float | None = None) -> None:
        """Await process exit without blocking the loop (executor join)."""
        process = self.process
        if process is None:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, process.join, timeout)

    async def close_trunk(self) -> None:
        writer, self.writer, self.reader = self.writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # --------------------------------------------------------------- scoring

    def score(self) -> float:
        """Load estimate for spill decisions: the router's own live view
        (routed-but-unresolved requests) plus the worker's last health
        probe (queued + in-flight batches) — probe data ages between
        prober ticks, the outstanding count never does."""
        probed = 0.0
        sample = self.health_sample
        if sample:
            probed = float(
                sample.get("queued", 0) + sample.get("inflight_batches", 0)
            )
        return self.outstanding + probed

    def summary(self) -> dict:
        """Per-shard block of the router's health payload."""
        sample = self.health_sample or {}
        return {
            "state": self.state,
            "pid": self.pid,
            "port": self.port,
            "generation": self.generation,
            "outstanding": self.outstanding,
            "routed_total": self.routed_total,
            "probe_failures": self.probe_failures,
            "queued": sample.get("queued"),
            "inflight_batches": sample.get("inflight_batches"),
            "workers_alive": sample.get("workers_alive"),
            "last_batch_age_seconds": sample.get("last_batch_age_seconds"),
        }
