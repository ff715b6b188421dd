"""Test helpers: brute-force TSP ground truth and one-colony batch states.

Several tests validate heuristics against the *optimal* tour; for n <= 9 an
exhaustive permutation search is instant and unarguable.  Kernel tests run
the batch kernels on a one-row :class:`~repro.core.batch.BatchColonyState`
(:func:`one_row_state`), since a single colony is a batch of one.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.tsp.tour import close_tour, tour_length

__all__ = ["brute_force_optimum", "one_row_state"]


def one_row_state(instance, params, device, *, choice: bool = True):
    """A ``B = 1`` :class:`~repro.core.batch.BatchColonyState` of one
    colony, its ``choice_info`` computed by the Choice kernel when
    ``choice``."""
    from repro.core.batch import BatchColonyState
    from repro.core.choice import ChoiceKernel

    bstate = BatchColonyState.create([instance], [params], device)
    if choice:
        ChoiceKernel().run_batch(bstate, collect=False)
    return bstate


def brute_force_optimum(dist: np.ndarray) -> tuple[np.ndarray, int]:
    """Optimal closed tour by exhaustive search (fixes city 0 first).

    Only feasible for small n (the call guards at n <= 10: 9! = 362 880
    permutations).

    Returns
    -------
    (tour, length):
        The optimal closed tour (``n + 1`` entries) and its length.
    """
    n = dist.shape[0]
    if n > 10:
        raise ValueError(f"brute force limited to n <= 10, got {n}")
    best_len: int | None = None
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(1, n)):
        candidate = (0, *perm)
        length = int(
            sum(dist[candidate[i], candidate[(i + 1) % n]] for i in range(n))
        )
        if best_len is None or length < best_len:
            best_len = length
            best_perm = candidate
    assert best_perm is not None and best_len is not None
    tour = close_tour(np.array(best_perm, dtype=np.int32))
    assert tour_length(tour, dist) == best_len
    return tour, best_len
