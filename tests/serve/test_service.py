"""Tests for the async micro-batching solve service.

Written against plain ``asyncio.run`` so the suite needs no pytest-asyncio
plugin (CI installs it for the dedicated serve job, but the tier-1 run must
pass in a bare ``[test]`` environment).
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem
from repro.errors import (
    ACOConfigError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve import (
    AsyncSolveClient,
    FaultPlan,
    SolveRequest,
    SolveService,
)
from repro.serve.service import FLUSH_CAUSES
from repro.tsp import uniform_instance

ITERATIONS = 6
K = 3  # report_every: boundaries at iterations 3 and 6


def run_async(coro):
    return asyncio.run(coro)


def _params(seed: int) -> ACOParams:
    return ACOParams(seed=seed, nn=7)


def _request(instance, seed: int, **kwargs) -> SolveRequest:
    kwargs.setdefault("iterations", ITERATIONS)
    kwargs.setdefault("report_every", K)
    return SolveRequest(instance=instance, params=_params(seed), **kwargs)


@pytest.fixture(scope="module")
def sized_instances():
    """Four distinct instances for each of three distinct sizes."""
    return {
        n: [uniform_instance(n, seed=1000 * n + i) for i in range(4)]
        for n in (16, 20, 24)
    }


class TestRequestValidation:
    def test_rejects_bad_iterations(self):
        inst = uniform_instance(12, seed=1)
        with pytest.raises(ACOConfigError):
            SolveRequest(instance=inst, iterations=0)

    def test_rejects_bad_report_every(self):
        inst = uniform_instance(12, seed=1)
        with pytest.raises(ACOConfigError):
            SolveRequest(instance=inst, report_every=0)

    def test_rejects_bad_deadline_and_target(self):
        inst = uniform_instance(12, seed=1)
        with pytest.raises(ACOConfigError):
            SolveRequest(instance=inst, deadline=0.0)
        with pytest.raises(ACOConfigError):
            SolveRequest(instance=inst, target_length=0)

    def test_bucket_key_separates_sizes_and_schedules(self):
        a = _request(uniform_instance(16, seed=1), 1)
        b = _request(uniform_instance(16, seed=2), 2)
        c = _request(uniform_instance(20, seed=1), 1)
        d = _request(uniform_instance(16, seed=1), 1, iterations=9)
        assert a.bucket_key == b.bucket_key  # same geometry+schedule pack
        assert a.bucket_key != c.bucket_key  # size splits
        assert a.bucket_key != d.bucket_key  # iteration budget splits

    def test_service_config_validation(self):
        with pytest.raises(ACOConfigError):
            SolveService(max_batch=0)
        with pytest.raises(ACOConfigError):
            SolveService(workers=0)
        with pytest.raises(ACOConfigError):
            SolveService(max_batch=8, max_pending=4)


class TestEndToEndPacking:
    """The acceptance scenario: a concurrent mixed-size burst is packed,
    streamed, and bit-identical to solo runs."""

    def test_burst_packs_streams_and_matches_solo(self, sized_instances):
        requests = [
            _request(inst, seed=10 + i)
            for n, group in sized_instances.items()
            for i, inst in enumerate(group)
        ]
        assert len(requests) == 12  # >= 12 requests over >= 3 distinct sizes
        max_batch = 4

        async def drive():
            async with SolveService(
                max_batch=max_batch, workers=2
            ) as service:
                handles = [await service.submit(r) for r in requests]

                async def consume(handle):
                    ups = [u async for u in handle]
                    return ups, await handle.result()

                pairs = await asyncio.gather(*(consume(h) for h in handles))
                return pairs, service.stats

        pairs, stats = run_async(drive())

        # Packing: at most ceil(requests-per-size / B) batches per bucket.
        per_size = 4
        assert stats.batches == 3 * math.ceil(per_size / max_batch)
        for key, count in stats.batches_per_bucket.items():
            assert count <= math.ceil(per_size / max_batch), key
        assert stats.rows_packed == 12 and stats.mean_batch_size == 4.0
        assert stats.submitted == 12
        assert stats.completed == 12
        assert stats.failed == 0

        for request, (updates, result) in zip(requests, pairs):
            # Streaming: >= 1 boundary update before the final result, and
            # best-so-far streams are monotone non-increasing.
            assert len(updates) == ITERATIONS // K
            bests = [u.best_length for u in updates]
            assert bests == sorted(bests, reverse=True) or all(
                a >= b for a, b in zip(bests, bests[1:])
            )
            assert result.best_length == bests[-1]

            # Finals: bit-identical to a solo run with the same seed/params.
            solo = AntSystem(request.instance, request.params).run(ITERATIONS)
            assert result.best_length == solo.best_length
            np.testing.assert_array_equal(result.best_tour, solo.best_tour)
            assert (
                result.iteration_best_lengths == solo.iteration_best_lengths
            )

    def test_heterogeneous_params_share_a_bucket(self):
        """Same geometry but different alpha/beta/rho/seed rows pack into
        one batch and still match their solo references."""
        import dataclasses

        inst_a = uniform_instance(18, seed=5)
        inst_b = uniform_instance(18, seed=6)
        base = _params(3)
        combos = [
            (inst_a, dataclasses.replace(base, alpha=1.0, beta=2.0, rho=0.5)),
            (inst_b, dataclasses.replace(base, alpha=2.0, beta=3.0, rho=0.2, seed=9)),
            (inst_a, dataclasses.replace(base, alpha=0.5, beta=5.0, rho=0.9, seed=4)),
        ]
        requests = [
            SolveRequest(
                instance=inst, params=p, iterations=ITERATIONS, report_every=K
            )
            for inst, p in combos
        ]

        async def drive():
            async with SolveService(max_batch=3) as service:
                handles = [await service.submit(r) for r in requests]
                results = await asyncio.gather(*(h.result() for h in handles))
                return results, service.stats

        results, stats = run_async(drive())
        assert stats.batches == 1 and stats.rows_packed == 3
        for (inst, p), result in zip(combos, results):
            solo = AntSystem(inst, p).run(ITERATIONS)
            assert result.best_length == solo.best_length
            np.testing.assert_array_equal(result.best_tour, solo.best_tour)


async def _ticks(n: int = 8) -> None:
    """Yield ``n`` loop ticks: enough for the dispatcher to run its launch
    rule, far shorter than any engine batch."""
    for _ in range(n):
        await asyncio.sleep(0)


def _assert_causes(stats, **expected) -> None:
    assert stats.flush_causes == {**dict.fromkeys(FLUSH_CAUSES, 0), **expected}
    assert sum(stats.flush_causes.values()) == stats.batches


class TestLaunchRule:
    """Work-conserving launch: an idle worker takes a bucket at once, and
    a bucket waits only while its key's reply window is open."""

    def test_lone_request_launches_at_once_as_idle(self):
        inst = uniform_instance(14, seed=2)

        async def drive():
            async with SolveService(max_batch=8) as service:
                handle = await service.submit(_request(inst, 7))
                await _ticks()
                assert service.pending == 0  # launched, not queued
                result = await asyncio.wait_for(handle.result(), timeout=30)
                return result, service.stats

        result, stats = run_async(drive())
        assert stats.batches == 1 and stats.rows_packed == 1
        _assert_causes(stats, idle=1)
        solo = AntSystem(inst, _params(7)).run(ITERATIONS)
        assert result.best_length == solo.best_length

    @staticmethod
    async def _replies_after_full_pack(service, inst, replies):
        """Run one ``max_batch`` pack, then submit ``replies`` requests of
        its key one at a time, letting the dispatcher run between them."""
        first = [
            await service.submit(_request(inst, s))
            for s in range(service.max_batch)
        ]
        await asyncio.gather(*(h.result() for h in first))
        handles = []
        for i in range(replies):
            handles.append(await service.submit(_request(inst, 100 + i)))
            await _ticks()
            if i < service.max_batch - 1:
                # The reply window is open: the bucket waits for more rows
                # even though the only worker is idle.
                assert service.pending == i + 1
        return await asyncio.gather(*(h.result() for h in handles))

    def test_replies_within_window_launch_as_one_full_pack(self):
        inst = uniform_instance(40, seed=3)

        async def drive():
            async with SolveService(max_batch=4) as service:
                await self._replies_after_full_pack(service, inst, 4)
                return service.stats

        stats = run_async(drive())
        assert stats.batches == 2 and stats.rows_packed == 8
        _assert_causes(stats, full=2)

    def test_fewer_replies_launch_as_max_wait_when_window_closes(self):
        inst = uniform_instance(40, seed=3)

        async def drive():
            async with SolveService(max_batch=4) as service:
                results = await self._replies_after_full_pack(service, inst, 2)
                return results, service.stats

        results, stats = run_async(drive())
        assert stats.batches == 2 and stats.rows_packed == 6
        _assert_causes(stats, full=1, max_wait=1)
        solo = AntSystem(inst, _params(101)).run(ITERATIONS)
        assert results[1].best_length == solo.best_length

    def test_arrivals_accumulate_while_the_only_worker_is_busy(self):
        inst = uniform_instance(14, seed=2)

        async def drive():
            async with SolveService(
                max_batch=8, faults=FaultPlan(slow_batches={0: 0.3})
            ) as service:
                handles = [await service.submit(_request(inst, 0))]
                await _ticks()
                assert service.pending == 0  # the blocker holds the worker
                for s in range(1, 4):
                    handles.append(await service.submit(_request(inst, s)))
                    await _ticks()
                assert service.pending == 3
                await asyncio.gather(*(h.result() for h in handles))
                return service.stats

        stats = run_async(drive())
        assert stats.batches == 2 and stats.rows_packed == 4
        assert stats.batch_rows.max == 3.0  # the three arrivals, one pack
        # Queued behind the blocker, they also waited out its reply window.
        _assert_causes(stats, idle=1, max_wait=1)

    def test_half_packs_of_one_key_merge(self):
        """Rows queued behind a completing pack wait for its replies too,
        so two half packs of one key do not keep launching each other."""
        inst = uniform_instance(40, seed=3)

        async def drive():
            async with SolveService(
                max_batch=4, faults=FaultPlan(slow_batches={0: 0.3})
            ) as service:
                first = [await service.submit(_request(inst, s)) for s in (0, 1)]
                await _ticks()
                queued = []
                for s in (2, 3):
                    queued.append(await service.submit(_request(inst, s)))
                    await _ticks()
                await asyncio.gather(*(h.result() for h in first))
                await _ticks()
                assert service.pending == 2  # waiting for the replies
                replies = []
                for s in (4, 5):
                    replies.append(await service.submit(_request(inst, s)))
                    await _ticks()
                await asyncio.gather(*(h.result() for h in queued + replies))
                return service.stats

        stats = run_async(drive())
        assert stats.batches == 2 and stats.rows_packed == 6
        _assert_causes(stats, idle=1, full=1)

    def test_retry_backoff_does_not_hold_the_worker(self):
        inst = uniform_instance(14, seed=2)

        async def drive():
            async with SolveService(
                max_batch=8,
                retry_backoff=0.5,
                faults=FaultPlan(fail_batches=(0,)),
            ) as service:
                failed_once = await service.submit(_request(inst, 0))
                await _ticks()
                for _ in range(30_000):
                    if service.stats.requests_retried:
                        break
                    await asyncio.sleep(0.001)
                assert service.stats.requests_retried == 1
                # Batch 0 failed; its row sleeps out a >= 0.5 s backoff
                # while another key's request takes the idle worker.
                other = await service.submit(_request(inst, 1, iterations=3))
                await asyncio.wait_for(other.result(), timeout=30)
                assert not failed_once.done
                return await failed_once.result()

        result = run_async(drive())
        assert result.best_length == AntSystem(inst, _params(0)).run(
            ITERATIONS
        ).best_length


class TestEarlyResolution:
    def test_target_length_resolves_early(self):
        inst = uniform_instance(16, seed=3)
        # Any positive tour length satisfies a huge target at boundary one.
        request = _request(inst, 5, iterations=40, target_length=10**9)

        async def drive():
            async with SolveService(max_batch=1) as service:
                handle = await service.submit(request)
                ups = [u async for u in handle]
                result = await handle.result()
                return ups, result, service.stats

        ups, result, stats = run_async(drive())
        assert len(ups) >= 1
        assert result.iteration_best_lengths == []  # early snapshot, no trace
        assert stats.resolved_by_target == 1
        assert stats.completed == 0
        # The batch stopped early: fewer colony-iterations than the budget.
        assert stats.colony_iterations < 40

    def test_deadline_resolves_early_with_best_so_far(self):
        inst = uniform_instance(16, seed=4)
        # Deadline far below one boundary's wall time, but checked at the
        # first boundary: resolves there with the best-so-far.
        request = _request(inst, 6, iterations=40, deadline=1e-6)

        async def drive():
            async with SolveService(max_batch=1) as service:
                handle = await service.submit(request)
                result = await handle.result()
                return result, service.stats

        result, stats = run_async(drive())
        assert result.best_length > 0
        assert stats.resolved_by_deadline == 1
        assert stats.colony_iterations < 40

    def test_deadline_rider_does_not_stop_patient_riders(self):
        inst_a = uniform_instance(16, seed=7)
        inst_b = uniform_instance(16, seed=8)
        hurried = _request(inst_a, 11, iterations=9, deadline=1e-6)
        patient = _request(inst_b, 12, iterations=9)

        async def drive():
            async with SolveService(max_batch=2) as service:
                h1 = await service.submit(hurried)
                h2 = await service.submit(patient)
                r1 = await h1.result()
                r2 = await h2.result()
                return r1, r2, service.stats

        r1, r2, stats = run_async(drive())
        solo = AntSystem(inst_b, _params(12)).run(9)
        assert r2.best_length == solo.best_length  # patient rider unharmed
        assert r2.iteration_best_lengths == solo.iteration_best_lengths
        assert r1.iteration_best_lengths == []  # hurried rider resolved early
        assert stats.resolved_by_deadline == 1 and stats.completed == 1


class TestBackpressureAndDrain:
    def test_submit_nowait_overload(self):
        inst = uniform_instance(14, seed=9)

        async def drive():
            async with SolveService(
                max_batch=4, max_pending=4
            ) as service:
                for i in range(3):
                    service.submit_nowait(_request(inst, 20 + i))
                # Queued or running, a request holds its slot until it
                # resolves, so a 5th immediate submit overflows.
                service.submit_nowait(_request(inst, 23))
                with pytest.raises(ServiceOverloadedError):
                    service.submit_nowait(_request(inst, 24))

        run_async(drive())

    def test_submit_blocks_until_capacity_frees(self):
        inst = uniform_instance(14, seed=10)

        async def drive():
            async with SolveService(
                max_batch=2, max_pending=2
            ) as service:
                h1 = await service.submit(_request(inst, 30))
                h2 = await service.submit(_request(inst, 31))
                # Full: this submit must suspend, then complete once the
                # in-flight batch resolves and releases slots.
                h3 = await asyncio.wait_for(
                    service.submit(_request(inst, 32)), timeout=30
                )
                await asyncio.gather(h1.result(), h2.result(), h3.result())
                return service.stats

        stats = run_async(drive())
        assert stats.submitted == 3
        assert stats.completed == 3

    def test_drain_flushes_queued_and_rejects_new(self):
        inst = uniform_instance(14, seed=11)

        async def drive():
            service = SolveService(max_batch=8)
            await service.start()
            handle = await service.submit(_request(inst, 40))
            # Drain in the submitting tick, before the dispatcher runs:
            # drain itself must launch the queued request.
            await service.drain()
            assert handle.done
            result = await handle.result()
            with pytest.raises(ServiceClosedError):
                await service.submit(_request(inst, 41))
            with pytest.raises(ServiceClosedError):
                service.submit_nowait(_request(inst, 41))
            return result, service.stats

        result, stats = run_async(drive())
        assert stats.batches == 1
        solo = AntSystem(inst, _params(40)).run(ITERATIONS)
        assert result.best_length == solo.best_length

    def test_drain_while_a_bucket_waits_on_a_reply_window(self):
        inst = uniform_instance(40, seed=3)

        async def drive():
            async with SolveService(max_batch=4) as service:
                first = [await service.submit(_request(inst, s)) for s in range(4)]
                await asyncio.gather(*(h.result() for h in first))
                handle = await service.submit(_request(inst, 100))
                await _ticks()
                assert service.pending == 1  # waiting on the reply window
            return await handle.result(), service.stats

        start = time.monotonic()
        result, stats = run_async(asyncio.wait_for(drive(), timeout=30))
        assert time.monotonic() - start < 10  # drain did not hang
        _assert_causes(stats, full=1, drain=1)
        solo = AntSystem(inst, _params(100)).run(ITERATIONS)
        assert result.best_length == solo.best_length

    def test_drain_is_idempotent_and_restart_refused(self):
        async def drive():
            service = SolveService()
            await service.start()
            await service.drain()
            await service.drain()
            with pytest.raises(ServiceClosedError):
                await service.start()

        run_async(drive())


class TestStatsSemantics:
    def test_throughput_derives_from_batch_level_wall(self, sized_instances):
        """Service stats must use BatchRunResult.wall_seconds sums, never
        summed per-row shares (the satellite regression)."""
        requests = [
            _request(inst, 50 + i)
            for i, inst in enumerate(sized_instances[16])
        ]

        async def drive():
            async with SolveService(max_batch=2) as service:
                handles = [await service.submit(r) for r in requests]
                results = await asyncio.gather(*(h.result() for h in handles))
                return results, service.stats

        results, stats = run_async(drive())
        assert stats.batches == 2
        # Per-row shares: each row reports batch_wall / B, so summing all
        # rows of all batches reconstructs the engine wall exactly...
        row_share_sum = sum(r.wall_seconds for r in results)
        assert row_share_sum == pytest.approx(stats.engine_wall_seconds)
        # ... and the throughput derives from the batch-level number.
        assert stats.colony_iterations == len(requests) * ITERATIONS
        assert stats.colonies_per_second == pytest.approx(
            stats.colony_iterations / stats.engine_wall_seconds
        )
        snap = stats.snapshot()
        assert snap["batches"] == 2 and snap["mean_batch_size"] == 2.0

    def test_failed_batch_rejects_all_riders(self, monkeypatch):
        inst = uniform_instance(14, seed=12)

        async def drive():
            async with SolveService(max_batch=1) as service:
                def boom(key, pack):
                    raise RuntimeError("engine exploded")

                monkeypatch.setattr(service, "_run_batch_sync", boom)
                handle = await service.submit(_request(inst, 60))
                with pytest.raises(ServeError):
                    await handle.result()
                # The stream terminates instead of hanging.
                ups = [u async for u in handle]
                return ups, service.stats

        ups, stats = run_async(drive())
        assert ups == []
        assert stats.failed == 1


class TestAsyncClient:
    def test_client_solve_and_stream(self):
        inst = uniform_instance(16, seed=13)

        async def drive():
            async with SolveService(max_batch=1) as service:
                client = AsyncSolveClient(service)
                handle = await client.solve(
                    inst, _params(8), iterations=ITERATIONS, report_every=K
                )
                ups = [u async for u in handle]
                result = await handle.result()
                direct = await client.solve_and_wait(
                    inst,
                    params=_params(8),
                    iterations=ITERATIONS,
                    report_every=K,
                )
                return ups, result, direct

        ups, result, direct = run_async(drive())
        assert len(ups) == ITERATIONS // K
        solo = AntSystem(inst, _params(8)).run(ITERATIONS)
        assert result.best_length == solo.best_length
        assert direct.best_length == solo.best_length
