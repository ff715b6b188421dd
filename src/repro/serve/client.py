"""In-process async client for :class:`~repro.serve.service.SolveService`.

The thinnest useful wrapper: callers hold plain instances/params and get
back :class:`~repro.serve.service.SolveHandle` streams without building
:class:`~repro.serve.service.SolveRequest` records by hand.  The TCP
front-end (:mod:`repro.serve.protocol`) speaks to the same service object;
this client is the zero-serialization path for embedding the service in an
existing asyncio application.
"""

from __future__ import annotations

from repro.core.colony import RunResult
from repro.core.params import ACOParams
from repro.serve.service import SolveHandle, SolveRequest, SolveService
from repro.tsp.instance import TSPInstance

__all__ = ["AsyncSolveClient"]


class AsyncSolveClient:
    """Submit solve jobs to an in-process :class:`SolveService`.

    Examples
    --------
    ::

        async with SolveService(max_batch=8) as service:
            client = AsyncSolveClient(service)
            handle = await client.solve(instance, iterations=50, report_every=10)
            async for update in handle:          # one per K-boundary
                print(update.iteration, update.best_length)
            result = await handle.result()        # bit-identical to solo
    """

    def __init__(self, service: SolveService) -> None:
        self.service = service

    async def solve(
        self, instance: TSPInstance, params: ACOParams | None = None, **fields
    ) -> SolveHandle:
        """Queue one solve; returns once the request is accepted (which may
        suspend under backpressure).  Stream/await the returned handle.

        ``fields`` are the other :class:`SolveRequest` fields
        (``iterations``, ``report_every``, ``deadline``, ...); omitted ones
        keep its defaults, and an unknown one raises :class:`TypeError`.
        """
        request = SolveRequest(instance=instance, params=params or ACOParams(), **fields)
        return await self.service.submit(request)

    async def solve_and_wait(self, instance: TSPInstance, **kwargs) -> RunResult:
        """Submit and block until the final result (ignores the stream)."""
        handle = await self.solve(instance, **kwargs)
        return await handle.result()

    def stats(self) -> dict:
        """Live :meth:`~repro.serve.service.ServiceStats.snapshot` of the
        wrapped service (same payload the TCP ``{"op": "stats"}`` line
        returns)."""
        return self.service.stats.snapshot()

    def health(self) -> dict:
        """Live :meth:`~repro.serve.service.SolveService.health` probe
        (same payload the TCP ``{"op": "health"}`` line returns)."""
        return self.service.health()
