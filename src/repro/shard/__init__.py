"""Multi-process sharded serving: a router tier over N worker shards.

The ROADMAP's "millions of users" spine: one asyncio front **router**
speaking the same JSON-lines TCP wire as ``gpu-aco serve``, hashing each
request's :class:`~repro.serve.service.BatchKey` to one of N long-lived
worker **processes**, each running today's
:class:`~repro.serve.service.SolveService` end-to-end.  Process shards
step around the GIL ceiling that caps numpy-backend throughput in a
single serve process.

Layers (one module each):

* :mod:`repro.shard.worker` — the child-process entry point: build a
  ``SolveService`` from a picklable :class:`~repro.shard.worker.ShardConfig`,
  serve the standard wire on an ephemeral port, report the port through a
  pipe, drain gracefully on SIGTERM.
* :mod:`repro.shard.supervisor` — one :class:`~repro.shard.supervisor.WorkerShard`
  per worker: spawn/ready-handshake/trunk-connect/terminate/kill lifecycle.
* :mod:`repro.shard.router` — :class:`~repro.shard.router.ShardRouter`:
  BatchKey-hash routing with health-scored spill to the least-loaded
  healthy shard, failover (dead shard → re-route + respawn), rolling
  drain/restart and router-level shedding.  A coordinate instance rides
  inline in the forwarded request line, so a worker decodes it exactly
  as a single server does.  Clients reach it through
  :func:`~repro.serve.protocol.serve_tcp`, the same JSON-lines front a
  single ``SolveService`` runs behind.
* :mod:`repro.shard.stats` — fold per-shard
  :meth:`~repro.serve.service.ServiceStats.snapshot` payloads (exact
  counter sums + exact :class:`~repro.obs.LogHistogram` bucket merges)
  into one router-level ``{"op": "stats"}`` payload.

``gpu-aco serve --shards N`` is the CLI surface; ``N=0`` solves in
process behind the same front.
"""

from __future__ import annotations

from repro.shard.router import ShardRouter, shard_index
from repro.shard.stats import fold_health, fold_stats
from repro.shard.supervisor import WorkerShard
from repro.shard.worker import ShardConfig, worker_main

__all__ = [
    "ShardConfig",
    "ShardRouter",
    "WorkerShard",
    "fold_health",
    "fold_stats",
    "shard_index",
    "worker_main",
]
