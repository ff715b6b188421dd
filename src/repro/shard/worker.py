"""Worker-process entry point for the shard tier.

A worker is *today's* serve stack, unchanged: one
:class:`~repro.serve.service.SolveService` behind the standard
JSON-lines TCP wire (:func:`~repro.serve.protocol.serve_tcp`) on an
ephemeral loopback port.  The only shard-specific pieces are the
lifecycle edges:

* **Config** crosses the process boundary as a :class:`ShardConfig` of
  primitives (backend by registry name, device by key) — ``spawn``
  pickles the entry point's arguments, and backend/device objects don't
  pickle.  :meth:`ShardConfig.build_service` turns it into the service,
  here and in ``gpu-aco serve --shards 0``.
* **Readiness** is a one-shot ``{"shard": i, "port": p, "pid": ...}``
  message through a ``multiprocessing.Pipe``; the supervisor connects
  its trunk to that port.
* **Shutdown** is SIGTERM → the service's graceful drain (queued
  requests flush, in-flight batches finish, streams terminate) — the
  same path ``gpu-aco serve`` takes on Ctrl-C, so a rolling restart
  loses nothing it accepted.  SIGKILL (chaos, OOM) skips all of this and
  is the router's failover problem.

``worker_main`` must stay a plain module-level function: the ``spawn``
start method re-imports ``__main__`` in the child, so the entry point
has to be importable by dotted path, never a closure.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass

__all__ = ["ShardConfig", "worker_main"]


@dataclass(frozen=True)
class ShardConfig:
    """Picklable per-worker service construction knobs (primitives only).

    Mirrors the :class:`~repro.serve.service.SolveService` constructor;
    ``backend`` is a registry name (``None`` = environment default) and
    ``device`` a :data:`~repro.simt.device.DEVICES` key, both resolved
    inside the worker process.
    """

    host: str = "127.0.0.1"
    max_batch: int = 8
    workers: int = 1
    max_pending: int = 256
    retry_budget: int = 3
    retry_backoff: float = 0.05
    retry_jitter_seed: int = 0
    backend: str | None = None
    device: str = "m2050"
    max_line_bytes: int = 1 << 20

    def build_service(self):
        """The :class:`~repro.serve.service.SolveService` these knobs
        describe — what each worker serves, and ``gpu-aco serve --shards
        0`` in process.  Raises :class:`~repro.errors.ACOConfigError` on
        a bad combination."""
        from repro.backend import resolve_backend
        from repro.serve import SolveService
        from repro.simt.device import DEVICES

        return SolveService(
            max_batch=self.max_batch,
            workers=self.workers,
            max_pending=self.max_pending,
            retry_budget=self.retry_budget,
            retry_backoff=self.retry_backoff,
            retry_jitter_seed=self.retry_jitter_seed,
            backend=resolve_backend(self.backend),
            device=DEVICES[self.device],
        )


async def _worker_amain(shard_id: int, config: ShardConfig, conn) -> None:
    """Build the service, serve the wire, report readiness, await SIGTERM."""
    # lint: worker-thread — runs in the worker process, off the router's
    # loop: router state marked `guarded-by: loop` must never be touched
    # from here (it crosses a process boundary, not just a thread one).
    from repro.serve import serve_tcp

    service = config.build_service()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    async with service:
        server = await serve_tcp(
            service, config.host, 0, max_line_bytes=config.max_line_bytes
        )
        try:
            port = server.sockets[0].getsockname()[1]
            import os

            conn.send({"shard": shard_id, "port": int(port), "pid": os.getpid()})
            conn.close()
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
    # __aexit__ drained the service: every accepted request has streamed
    # its result over the trunk before the process exits.


def worker_main(shard_id: int, config: ShardConfig, conn) -> None:
    """``multiprocessing.Process`` target: run one worker shard to drain."""
    # lint: worker-thread
    asyncio.run(_worker_amain(shard_id, config, conn))
