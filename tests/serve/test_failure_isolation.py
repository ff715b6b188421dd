"""Serve-tier failure isolation: retries, timeouts, shedding, health.

Chaos scenarios driven by injected faults live in :mod:`tests.chaos`;
this file pins the service-level policy surface — retry budgets and
validation, hard-timeout semantics vs. the soft deadline, priority
shedding through ``submit_nowait``, and the health probe.  Plain
``asyncio.run`` throughout (no pytest-asyncio in tier-1).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import ACOParams
from repro.errors import (
    ACOConfigError,
    ServeError,
    ServeTimeoutError,
    ServiceOverloadedError,
)
from repro.serve import FaultPlan, SolveRequest, SolveService
from repro.tsp import uniform_instance


def _request(seed: int, **kwargs) -> SolveRequest:
    kwargs.setdefault("iterations", 4)
    kwargs.setdefault("report_every", 2)
    return SolveRequest(
        instance=uniform_instance(12, seed=700 + seed),
        params=ACOParams(seed=seed, nn=7),
        **kwargs,
    )


class TestRequestValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ACOConfigError):
            _request(1, timeout=0.0)
        with pytest.raises(ACOConfigError):
            _request(1, timeout=-1.0)

    def test_priority_not_part_of_bucket_key(self):
        a = _request(1, priority=0)
        b = _request(1, priority=9)
        assert a.bucket_key == b.bucket_key

    def test_service_rejects_negative_retry_budget(self):
        with pytest.raises(ACOConfigError):
            SolveService(retry_budget=-1)
        with pytest.raises(ACOConfigError):
            SolveService(retry_backoff=-0.1)


class TestHardTimeout:
    def test_expired_before_launch_fails_with_timeout(self):
        """A request whose budget is gone before its batch launches is
        rejected at the flush boundary, never run."""

        async def main():
            async with SolveService(
                max_batch=4, workers=1
            ) as service:
                handle = await service.submit(_request(1, timeout=1e-6))
                with pytest.raises(ServeTimeoutError):
                    await handle.result()
                snap = service.stats.snapshot()
            assert snap["requests_timed_out"] == 1
            assert snap["completed"] == 0

        asyncio.run(main())

    def test_timeout_does_not_sink_co_batched_riders(self):
        async def main():
            async with SolveService(
                max_batch=2, workers=1
            ) as service:
                doomed = await service.submit(_request(1, timeout=1e-6))
                rider = await service.submit(_request(2))
                with pytest.raises(ServeTimeoutError):
                    await doomed.result()
                result = await rider.result()
            assert result.best_length > 0

        asyncio.run(main())

    def test_deadline_still_resolves_best_so_far(self):
        """The soft deadline keeps its resolve-with-partial contract —
        distinct from the hard timeout's failure contract."""

        async def main():
            async with SolveService(
                max_batch=1, workers=1
            ) as service:
                handle = await service.submit(
                    _request(3, iterations=400, report_every=2, deadline=0.05)
                )
                result = await handle.result()
            assert result.best_length > 0

        asyncio.run(main())


class TestLoadShedding:
    @staticmethod
    def _full_service() -> SolveService:
        # A blocker request (batch 0, slowed) holds the only worker, so
        # later requests stay queued (sheddable); the blocker plus two
        # queued requests fill max_pending.
        return SolveService(
            max_batch=2,
            workers=1,
            max_pending=3,
            faults=FaultPlan(slow_batches={0: 0.3}),
        )

    @staticmethod
    async def _hold_worker(service: SolveService) -> None:
        service.submit_nowait(_request(0, iterations=2))
        for _ in range(100):
            if not service.pending:
                break
            await asyncio.sleep(0)
        assert service.pending == 0  # the blocker is running

    def test_sheds_lowest_priority_for_a_higher_one(self):
        async def main():
            async with self._full_service() as service:
                await self._hold_worker(service)
                low = service.submit_nowait(_request(1, priority=0))
                high = service.submit_nowait(
                    _request(2, iterations=6, priority=5)
                )
                vip = service.submit_nowait(
                    _request(3, iterations=8, priority=9)
                )
                with pytest.raises(ServiceOverloadedError):
                    await low.result()
                snap = service.stats.snapshot()
                assert snap["requests_shed"] == 1
                # Drain completes the two survivors.
            assert (await high.result()).best_length > 0
            assert (await vip.result()).best_length > 0

        asyncio.run(main())

    def test_refuses_when_nothing_outranked_is_queued(self):
        async def main():
            async with self._full_service() as service:
                await self._hold_worker(service)
                service.submit_nowait(_request(1, iterations=4, priority=5))
                service.submit_nowait(_request(2, iterations=6, priority=5))
                with pytest.raises(ServiceOverloadedError):
                    service.submit_nowait(_request(3, iterations=8, priority=5))
                snap = service.stats.snapshot()
                assert snap["requests_shed"] == 0

        asyncio.run(main())

    def test_sheds_youngest_among_equal_priority(self):
        async def main():
            async with self._full_service() as service:
                await self._hold_worker(service)
                older = service.submit_nowait(_request(1, iterations=4))
                await asyncio.sleep(0.01)
                younger = service.submit_nowait(_request(2, iterations=6))
                service.submit_nowait(_request(3, iterations=8, priority=1))
                with pytest.raises(ServiceOverloadedError):
                    await younger.result()
                assert not older.done

        asyncio.run(main())


class TestRetryPolicy:
    def test_jittered_backoff_schedule_is_seeded(self):
        """Same jitter seed => same backoff schedule (reproducible chaos)."""
        import random

        def schedule(seed):
            rng = random.Random(seed)
            return [
                0.05 * (2**attempt) * (1.0 + rng.random())
                for attempt in range(4)
            ]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_zero_budget_surfaces_first_failure(self):
        async def main():
            plan = FaultPlan(fail_batches=(0,))
            async with SolveService(
                max_batch=2,
                workers=1,
                retry_budget=0,
                retry_backoff=0.0,
                faults=plan,
            ) as service:
                handle = await service.submit(_request(1))
                with pytest.raises(ServeError) as err:
                    await handle.result()
                assert "batch execution failed" in str(err.value)
                snap = service.stats.snapshot()
            assert snap["failed"] == 1
            assert snap["requests_retried"] == 0

        asyncio.run(main())


class TestHealthProbe:
    def test_idle_service_reports_healthy(self):
        async def main():
            async with SolveService(max_batch=2, workers=2) as service:
                health = service.health()
            assert health["accepting"] is True
            assert health["queued"] == 0
            assert health["inflight_batches"] == 0
            assert health["workers"] == 2
            assert health["workers_alive"] == 2
            assert health["last_batch_age_seconds"] is None

        asyncio.run(main())

    def test_health_reflects_completed_work_and_drain(self):
        async def main():
            service = SolveService(max_batch=1, workers=1)
            async with service:
                handle = await service.submit(_request(1))
                await handle.result()
                live = service.health()
                assert live["last_batch_age_seconds"] is not None
                assert live["slots_taken"] == 0
            after = service.health()
            assert after["accepting"] is False

        asyncio.run(main())

    def test_client_health_mirrors_service(self):
        from repro.serve import AsyncSolveClient

        async def main():
            async with SolveService(max_batch=2) as service:
                client = AsyncSolveClient(service)
                assert client.health() == service.health()

        asyncio.run(main())
