"""Deterministic fault injection against the live solve service.

Every test drives a real :class:`~repro.serve.service.SolveService` with a
seeded :class:`~repro.serve.faults.FaultPlan` — the failures are injected
on an explicit schedule, so each scenario reproduces exactly.  Written
against plain ``asyncio.run`` (no pytest-asyncio in the tier-1
environment).
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.core import ACOParams
from repro.errors import (
    InjectedFaultError,
    ServeError,
    ServeTimeoutError,
    WorkerKilledError,
)
from repro.serve import FaultInjector, FaultPlan, SolveRequest, SolveService
from repro.tsp import uniform_instance

ITERATIONS = 6
K = 3


def _request(instance, seed: int, **kwargs) -> SolveRequest:
    kwargs.setdefault("iterations", ITERATIONS)
    kwargs.setdefault("report_every", K)
    return SolveRequest(
        instance=instance, params=ACOParams(seed=seed, nn=7), **kwargs
    )


def _service(**kwargs) -> SolveService:
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retry_backoff", 0.0)
    return SolveService(**kwargs)


async def _submit_all(service, requests):
    handles = [await service.submit(r) for r in requests]
    return await asyncio.gather(
        *[h.result() for h in handles], return_exceptions=True
    )


async def _solo(request) -> "RunResult":
    async with SolveService(max_batch=1, workers=1) as solo:
        handle = await solo.submit(request)
        return await handle.result()


class TestInjectorUnit:
    def test_ordinals_assigned_in_launch_order(self):
        injector = FaultInjector(FaultPlan())
        assert [injector.start_batch([]) for _ in range(3)] == [0, 1, 2]

    def test_schedule_is_explicit_and_reproducible(self):
        plan = FaultPlan(seed=5, fail_batches=(1,), poison_instances=("bad",))
        for _ in range(2):  # identical behaviour on every fresh injector
            injector = FaultInjector(plan)
            assert injector.start_batch(["a"]) == 0
            with pytest.raises(InjectedFaultError):
                injector.start_batch(["a"])
            with pytest.raises(InjectedFaultError):
                injector.start_batch(["a", "bad"])

    def test_kill_raises_base_exception(self):
        injector = FaultInjector(FaultPlan(kill_batches=(0,)))
        with pytest.raises(WorkerKilledError):
            injector.start_batch([])
        assert not issubclass(WorkerKilledError, Exception)

    def test_boundary_faults_fire_once_at_the_scheduled_index(self):
        injector = FaultInjector(FaultPlan(fail_boundaries={0: 1}))
        ordinal = injector.start_batch([])
        injector.on_boundary(ordinal, 0)
        with pytest.raises(InjectedFaultError):
            injector.on_boundary(ordinal, 1)
        injector.on_boundary(ordinal, 2)


class TestTransientFaults:
    def test_failed_batch_is_retried_to_completion(self):
        async def main():
            inst = uniform_instance(14, seed=900)
            plan = FaultPlan(fail_batches=(0,))
            async with _service(faults=plan) as service:
                (got,) = await _submit_all(service, [_request(inst, 7)])
            assert got.best_length == (await _solo(_request(inst, 7))).best_length
            snap = service.stats.snapshot()
            assert snap["completed"] == 1
            assert snap["failed"] == 0
            assert snap["requests_retried"] == 1
            return None

        asyncio.run(main())

    def test_worker_death_is_contained_and_retried(self):
        async def main():
            inst = uniform_instance(14, seed=901)
            plan = FaultPlan(kill_batches=(0,))
            async with _service(faults=plan) as service:
                (got,) = await _submit_all(service, [_request(inst, 7)])
            assert not isinstance(got, BaseException)
            assert service.stats.snapshot()["requests_retried"] == 1

        asyncio.run(main())

    def test_midrun_boundary_fault_is_retried(self):
        async def main():
            inst = uniform_instance(14, seed=902)
            plan = FaultPlan(fail_boundaries={0: 1})
            async with _service(faults=plan) as service:
                (got,) = await _submit_all(service, [_request(inst, 7)])
            assert not isinstance(got, BaseException)
            assert got.best_length == (await _solo(_request(inst, 7))).best_length

        asyncio.run(main())

    def test_retry_budget_exhaustion_fails_the_request(self):
        async def main():
            inst = uniform_instance(14, seed=903)
            plan = FaultPlan(fail_batches=tuple(range(10)))
            async with _service(faults=plan, retry_budget=2) as service:
                (got,) = await _submit_all(service, [_request(inst, 7)])
            assert isinstance(got, ServeError)
            assert isinstance(got.__cause__, InjectedFaultError)
            snap = service.stats.snapshot()
            assert snap["failed"] == 1
            assert snap["requests_retried"] == 2

        asyncio.run(main())


class TestPoisonIsolation:
    def test_poison_errors_while_riders_complete_solo_identical(self):
        """The headline acceptance: one poisoned request in a packed batch
        gets an error; every co-batched rider completes bit-identical to
        its solo run."""

        async def main():
            riders = [
                _request(uniform_instance(14, seed=910 + i), 20 + i)
                for i in range(3)
            ]
            poisoned = _request(
                dataclasses.replace(
                    uniform_instance(14, seed=990), name="poisoned"
                ),
                9,
            )
            plan = FaultPlan(poison_instances=("poisoned",))
            async with _service(faults=plan, retry_budget=3) as service:
                handles = [await service.submit(r) for r in riders[:2]]
                handles.append(await service.submit(poisoned))
                handles.append(await service.submit(riders[2]))
                results = await asyncio.gather(
                    *[h.result() for h in handles], return_exceptions=True
                )
            snap = service.stats.snapshot()
            assert isinstance(results[2], ServeError)
            assert snap["batches_bisected"] >= 1
            assert snap["completed"] == 3
            assert snap["failed"] == 1
            for req, got in zip(riders, [results[0], results[1], results[3]]):
                solo = await _solo(req)
                assert got.best_length == solo.best_length
                assert list(got.best_tour) == list(solo.best_tour)

        asyncio.run(main())

    def test_same_plan_same_traffic_same_outcome(self):
        """Chaos runs reproduce: identical plans and traffic yield identical
        per-request outcomes and identical failure counters."""

        async def run_once():
            riders = [
                _request(uniform_instance(14, seed=920 + i), 30 + i)
                for i in range(3)
            ]
            poisoned = _request(
                dataclasses.replace(uniform_instance(14, seed=991), name="p2"),
                5,
            )
            plan = FaultPlan(seed=3, poison_instances=("p2",))
            async with _service(faults=plan) as service:
                results = await _submit_all(
                    service, riders[:1] + [poisoned] + riders[1:]
                )
            snap = service.stats.snapshot()
            return (
                [
                    r.best_length if not isinstance(r, BaseException) else None
                    for r in results
                ],
                {
                    k: snap[k]
                    for k in ("completed", "failed", "batches_bisected")
                },
            )

        first = asyncio.run(run_once())
        second = asyncio.run(run_once())
        assert first == second


class TestSlowAndTimeout:
    def test_slow_batch_trips_the_request_timeout(self):
        async def main():
            inst = uniform_instance(14, seed=930)
            plan = FaultPlan(slow_batches={0: 0.3})
            async with _service(faults=plan, retry_budget=0) as service:
                (got,) = await _submit_all(
                    service, [_request(inst, 7, timeout=0.1)]
                )
            assert isinstance(got, ServeTimeoutError)
            assert service.stats.snapshot()["requests_timed_out"] == 1

        asyncio.run(main())

    def test_slow_batch_without_timeout_still_completes(self):
        async def main():
            inst = uniform_instance(14, seed=931)
            plan = FaultPlan(slow_batches={0: 0.05})
            async with _service(faults=plan) as service:
                (got,) = await _submit_all(service, [_request(inst, 7)])
            assert not isinstance(got, BaseException)

        asyncio.run(main())
