"""Literal per-thread SIMT executor, for differential testing.

The production kernels in :mod:`repro.core` are vectorised across threads for
speed.  To check that the vectorisation preserves CUDA semantics, this module
executes a *thread program* — a Python generator function, one instance per
simulated thread — with real barrier synchronisation: every ``yield`` is a
``__syncthreads()``, and the executor advances all threads of a block in
lock-step between barriers.

This is intentionally slow and only used on tiny problems in the test-suite
(e.g. validating the bit-packed tabu list and the data-parallel next-city
selection against their vectorised equivalents).

Examples
--------
>>> def program(tid, shared, n):
...     shared["vals"][tid] = tid * 2
...     yield  # __syncthreads()
...     if tid == 0:
...         shared["total"] = sum(shared["vals"][:n])
...     yield
...     return shared["total"]
>>> shared = {"vals": [0] * 4, "total": None}
>>> run_block(program, 4, shared, 4)
[12, 12, 12, 12]
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.errors import SimtError

__all__ = ["run_block", "run_grid", "BarrierDivergenceError"]


class BarrierDivergenceError(SimtError):
    """Threads of one block disagreed on the number of barriers executed.

    On real hardware, a ``__syncthreads()`` inside a divergent branch hangs
    the block; the literal executor turns that bug into this exception.
    """


ThreadProgram = Callable[..., Generator[None, None, Any]]


def run_block(
    program: ThreadProgram,
    block_dim: int,
    shared: dict[str, Any],
    *args: Any,
) -> list[Any]:
    """Run ``block_dim`` instances of ``program`` with barrier semantics.

    Parameters
    ----------
    program:
        Generator function ``program(tid, shared, *args)``; each ``yield``
        is a block-wide barrier; the ``return`` value is the thread result.
    block_dim:
        Number of threads in the block.
    shared:
        The block's shared memory: a dict every thread sees.
    *args:
        Extra arguments passed to every thread.

    Returns
    -------
    list
        Per-thread return values, index = thread id.

    Raises
    ------
    BarrierDivergenceError
        If some threads hit a barrier while others finish.
    """
    if block_dim <= 0:
        raise SimtError(f"block_dim must be positive, got {block_dim}")
    threads = [program(tid, shared, *args) for tid in range(block_dim)]
    results: list[Any] = [None] * block_dim
    live: set[int] = set(range(block_dim))

    generation = 0
    while live:
        arrived: set[int] = set()
        finished: set[int] = set()
        for tid in sorted(live):
            try:
                next(threads[tid])
                arrived.add(tid)
            except StopIteration as stop:
                results[tid] = stop.value
                finished.add(tid)
        if arrived and finished:
            raise BarrierDivergenceError(
                f"barrier generation {generation}: threads {sorted(arrived)} "
                f"are waiting while threads {sorted(finished)} exited"
            )
        live -= finished
        generation += 1

    return results


def run_grid(
    program: ThreadProgram,
    grid_dim: int,
    block_dim: int,
    make_shared: Callable[[int], dict[str, Any]],
    *args: Any,
) -> list[list[Any]]:
    """Run a 1-D grid of blocks; blocks are independent (no global barrier).

    Parameters
    ----------
    program:
        Generator function ``program(tid, shared, block_idx, *args)``.
    grid_dim / block_dim:
        Grid shape.
    make_shared:
        Factory called with the block index, returning that block's shared
        dict (mirrors per-block shared memory allocation).

    Returns
    -------
    list of per-block result lists.
    """
    if grid_dim <= 0:
        raise SimtError(f"grid_dim must be positive, got {grid_dim}")
    out: list[list[Any]] = []
    for block in range(grid_dim):
        shared = make_shared(block)
        out.append(
            run_block(
                lambda tid, sh, *a, _b=block: program(tid, sh, _b, *a),
                block_dim,
                shared,
                *args,
            )
        )
    return out
