"""Deterministic fault injection for the solve service (chaos seam).

Chaos tests are only trustworthy when they are reproducible: a fault that
fires "sometimes" produces a suite that flakes instead of a suite that
pins behaviour.  This module injects failures on an explicit, seeded
schedule — a :class:`FaultPlan` says *which* batch ordinals fail, run
slow, or die, and *which* instances are poisoned; a :class:`FaultInjector`
executes that plan from the service's worker threads.

Two scheduling families, chosen for determinism under retries:

* **By batch ordinal** (``fail_batches``, ``slow_batches``,
  ``kill_batches``, ``fail_boundaries``): the injector counts every batch
  the service launches (retries included) under a lock, so "the third
  batch fails" means the same batch in every run with the same traffic.
  Ordinal faults are *transient* — the retried batch gets a fresh ordinal
  and (unless also scheduled) succeeds — modelling flaky workers.
* **By instance name** (``poison_instances``): every batch containing a
  poisoned instance fails, regardless of ordinal.  Poison is
  *persistent* and schedule-free, so it stays deterministic as the
  quarantine bisection reorders and re-runs sub-batches — the bisection
  provably isolates the poisoned row while every co-batched rider
  completes.

Faults surface as :class:`~repro.errors.InjectedFaultError` (a normal
:class:`~repro.errors.ServeError`) except worker death, which raises
:class:`~repro.errors.WorkerKilledError` — a ``BaseException``, because
real worker death does not flow through ``except Exception`` recovery;
only the service's outermost failure barrier may catch it.

:func:`malformed_wire_lines` generates the deterministic garbage-line
corpus (oversized, non-UTF-8, broken JSON, non-object JSON) the wire
chaos tests replay against a live server.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import InjectedFaultError, WorkerKilledError

__all__ = ["FaultInjector", "FaultPlan", "malformed_wire_lines"]


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule (see the module docstring).

    Attributes
    ----------
    seed:
        Identity tag for logs and the malformed-line corpus; the schedule
        itself is explicit, not derived.
    fail_batches:
        Batch ordinals (0-based launch order, retries included) that raise
        :class:`~repro.errors.InjectedFaultError` before running.
    slow_batches:
        Ordinal -> extra seconds of sleep injected before the batch runs.
    kill_batches:
        Ordinals that raise :class:`~repro.errors.WorkerKilledError`
        (simulated worker death, a ``BaseException``).
    fail_boundaries:
        Ordinal -> report-boundary index (0-based) at which the batch
        raises mid-run — state built up before the failure is lost,
        exactly like a real mid-run crash.
    poison_instances:
        Instance names whose presence always fails the batch.
    kill_workers:
        Router-level schedule (ignored by :class:`FaultInjector`): 0-based
        *routed-request* ordinals after whose forwarding the shard router
        SIGKILLs the worker **process** that request was routed to — real
        OS-level death, not the simulated in-thread
        :class:`~repro.errors.WorkerKilledError` of ``kill_batches``.
        Deterministic because the router assigns routing ordinals in
        arrival order; the failover tests drive shard death with this.
    """

    seed: int = 0
    fail_batches: tuple[int, ...] = ()
    slow_batches: dict[int, float] = field(default_factory=dict)
    kill_batches: tuple[int, ...] = ()
    fail_boundaries: dict[int, int] = field(default_factory=dict)
    poison_instances: tuple[str, ...] = ()
    kill_workers: tuple[int, ...] = ()


class FaultInjector:
    """Executes a :class:`FaultPlan` from service worker threads.

    Batch ordinals are assigned under a lock in launch order, so a plan
    addresses "the N-th batch this service ever ran" deterministically
    even with several worker threads.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._next = 0

    def start_batch(self, instance_names: list[str]) -> int:
        """Claim the next ordinal and fire any batch-start faults.

        Called by the worker before it builds the engine; returns the
        ordinal for subsequent :meth:`on_boundary` checks.
        """
        with self._lock:
            ordinal = self._next
            self._next += 1
        plan = self.plan
        delay = plan.slow_batches.get(ordinal)
        if delay:
            time.sleep(delay)
        if ordinal in plan.kill_batches:
            raise WorkerKilledError(
                f"fault plan (seed {plan.seed}) killed the worker running "
                f"batch {ordinal}"
            )
        poisoned = [n for n in instance_names if n in plan.poison_instances]
        if poisoned:
            raise InjectedFaultError(
                f"fault plan (seed {plan.seed}) poisoned instance(s) "
                f"{sorted(set(poisoned))} in batch {ordinal}"
            )
        if ordinal in plan.fail_batches:
            raise InjectedFaultError(
                f"fault plan (seed {plan.seed}) failed batch {ordinal} at start"
            )
        return ordinal

    def on_boundary(self, ordinal: int, boundary_index: int) -> None:
        """Fire a scheduled mid-run failure at a report boundary."""
        if self.plan.fail_boundaries.get(ordinal) == boundary_index:
            raise InjectedFaultError(
                f"fault plan (seed {self.plan.seed}) failed batch {ordinal} "
                f"at boundary {boundary_index}"
            )


def malformed_wire_lines(
    *, seed: int = 0, oversized_bytes: int = 1 << 20
) -> list[bytes]:
    """The deterministic garbage corpus for wire chaos tests.

    Every entry is one ``\\n``-terminated line a hardened server must
    answer with a structured ``error`` line — without dropping the
    connection or buffering without bound.
    """
    chunk = b"x" * 64 + str(seed).encode("ascii")
    filler = chunk * (oversized_bytes // len(chunk) + 1)
    return [
        b'{"oversized": "' + filler + b'"}\n',  # exceeds the line cap
        b"\xff\xfe not utf-8 \x80\x81\n",  # undecodable bytes
        b'{"broken": \n',  # truncated JSON
        b'["not", "an", "object"]\n',  # JSON, but not an object
        b"plain text, not json at all\n",
    ]
