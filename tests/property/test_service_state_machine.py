"""Stateful property test: :class:`~repro.serve.SolveService` under any
interleaving of submit, priority submit, short timeouts, injected batch
failures and slow batches, waits and drain.

Invariants checked after every step:

* every handle is resolved at most once, and exactly once when the
  service is quiescent;
* at quiescence ``submitted == completed + failed + shed + timed_out``,
  and the capacity slots and busy workers are back to 0;
* no more than ``workers`` packs execute at once;
* every completed row equals a solo run of its request;
* drain terminates.

The tier-1 run draws a small number of examples; set
``SERVICE_STATE_MACHINE=deep`` for the deeper profile CI runs.
"""

from __future__ import annotations

import asyncio
import os
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import ACOParams, AntSystem
from repro.errors import ServeError, ServiceOverloadedError
from repro.serve import FaultPlan, SolveRequest, SolveService
from repro.tsp import uniform_instance

DEEP = os.environ.get("SERVICE_STATE_MACHINE") == "deep"
STEP_TIMEOUT = 30.0  # seconds; a step that takes longer is a hang

INSTANCES = [uniform_instance(8, seed=80 + i) for i in range(2)]
ITERATIONS = (2, 3)  # two bucket keys
_SOLO: dict[tuple[int, int, int], int] = {}


def _request(instance: int, seed: int, iterations: int, **kwargs) -> SolveRequest:
    return SolveRequest(
        instance=INSTANCES[instance],
        params=ACOParams(seed=seed, nn=5),
        iterations=iterations,
        report_every=1,
        **kwargs,
    )


def _solo_best(instance: int, seed: int, iterations: int) -> int:
    key = (instance, seed, iterations)
    if key not in _SOLO:
        params = ACOParams(seed=seed, nn=5)
        _SOLO[key] = AntSystem(INSTANCES[instance], params).run(
            iterations
        ).best_length
    return _SOLO[key]


class _Tracked:
    """A handle plus how many times the service resolved or rejected it."""

    def __init__(self, handle):
        request = handle.request
        self.handle = handle
        self.solo_key = (
            next(i for i, inst in enumerate(INSTANCES) if inst is request.instance),
            request.params.seed,
            request.iterations,
        )
        self.resolutions = 0
        for name in ("_resolve", "_reject"):
            method = getattr(handle, name)
            setattr(handle, name, self._counting(method))

    def _counting(self, method):
        def wrapped(value):
            self.resolutions += 1
            method(value)

        return wrapped


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.service: SolveService | None = None
        self.tracked: list[_Tracked] = []
        self.drained = False
        self._running = 0
        self.max_running = 0
        self._lock = threading.Lock()

    def _run(self, coro):
        return self.loop.run_until_complete(
            asyncio.wait_for(coro, STEP_TIMEOUT)
        )

    @initialize(
        workers=st.integers(1, 2),
        max_batch=st.integers(1, 4),
        extra_pending=st.integers(0, 3),
        fail=st.sets(st.integers(0, 7), max_size=3),
        slow=st.dictionaries(
            st.integers(0, 7), st.sampled_from([0.005, 0.02]), max_size=2
        ),
        backoff=st.sampled_from([0.0, 0.002]),
    )
    def start(self, workers, max_batch, extra_pending, fail, slow, backoff):
        self.service = SolveService(
            max_batch=max_batch,
            workers=workers,
            max_pending=max_batch + extra_pending,
            retry_backoff=backoff,
            faults=FaultPlan(fail_batches=tuple(sorted(fail)), slow_batches=slow),
        )
        run_batch = self.service._run_batch_sync

        def counted(key, pack):
            with self._lock:
                self._running += 1
                self.max_running = max(self.max_running, self._running)
            try:
                return run_batch(key, pack)
            finally:
                with self._lock:
                    self._running -= 1

        make_pending = self.service._make_pending

        def tracked(request):
            # Wrapped before the submitting call returns: a request may
            # resolve in the loop ticks that follow it.
            handle = make_pending(request)
            self.tracked.append(_Tracked(handle))
            return handle

        self.service._run_batch_sync = counted
        self.service._make_pending = tracked
        self._run(self.service.start())

    @precondition(lambda self: not self.drained)
    @rule(
        instance=st.integers(0, 1),
        seed=st.integers(1, 4),
        iterations=st.sampled_from(ITERATIONS),
        timeout=st.none() | st.sampled_from([0.001, 0.01]),
    )
    def submit(self, instance, seed, iterations, timeout):
        request = _request(instance, seed, iterations, timeout=timeout)
        self._run(self.service.submit(request))

    @precondition(lambda self: not self.drained)
    @rule(
        instance=st.integers(0, 1),
        seed=st.integers(1, 4),
        iterations=st.sampled_from(ITERATIONS),
        priority=st.integers(0, 2),
    )
    def submit_nowait(self, instance, seed, iterations, priority):
        request = _request(instance, seed, iterations, priority=priority)

        async def submit_nowait():  # called from the loop, as in serving
            self.service.submit_nowait(request)

        try:
            self._run(submit_nowait())
        except ServiceOverloadedError:
            pass  # nothing outranked was queued: refused, never submitted

    @rule(seconds=st.sampled_from([0.0, 0.002, 0.02]))
    def wait(self, seconds):
        self._run(asyncio.sleep(seconds))

    @precondition(lambda self: not self.drained)
    @rule()
    def settle(self):
        """Wait for every handle: a quiescent service."""
        self._run(self._settle())
        self._check_quiescent()

    @precondition(lambda self: not self.drained)
    @rule()
    def drain(self):
        self._run(self.service.drain())
        self.drained = True
        self._check_quiescent()

    async def _settle(self) -> None:
        await asyncio.gather(
            *(t.handle.result() for t in self.tracked), return_exceptions=True
        )
        # Slot release runs in the pack task's ``finally`` just after the
        # last handle resolves; give it the ticks to finish.
        while self.service._inflight:
            await asyncio.gather(
                *list(self.service._inflight), return_exceptions=True
            )

    def _check_quiescent(self) -> None:
        service = self.service
        stats = service.stats
        assert service.pending == 0
        assert service._slots_taken == 0
        assert service._busy == 0
        for t in self.tracked:
            assert t.handle.done and t.resolutions == 1
        assert stats.submitted == len(self.tracked)
        assert stats.submitted == (
            stats.completed
            + stats.failed
            + stats.requests_shed
            + stats.requests_timed_out
        )
        for t in self.tracked:
            exc = t.handle._result.exception()
            if exc is None:
                best = t.handle._result.result().best_length
                assert best == _solo_best(*t.solo_key)
            else:
                assert isinstance(exc, ServeError)

    @invariant()
    def resolved_at_most_once(self):
        for t in self.tracked:
            assert t.resolutions <= 1

    @invariant()
    def workers_bounded(self):
        if self.service is None:
            return
        assert 0 <= self.service._busy <= self.service.workers
        assert self.max_running <= self.service.workers
        assert 0 <= self.service._slots_taken <= self.service.max_pending

    def teardown(self):
        try:
            if self.service is not None and not self.drained:
                self._run(self.service.drain())
                self._check_quiescent()
        finally:
            self.loop.close()


ServiceMachine.TestCase.settings = settings(
    max_examples=150 if DEEP else 12,
    stateful_step_count=40 if DEEP else 15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceStateMachine = ServiceMachine.TestCase
