"""Tour utilities: validation, length, edges, heuristic constructions.

A tour is stored the ACOTSP way: an ``int32`` array of ``n + 1`` city
indices whose last entry repeats the first (the closing edge is explicit).
The GPU kernels in the paper use the same layout — it is what makes the
"thread per tour position" pheromone-deposit kernels natural.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidTourError

__all__ = [
    "tour_length",
    "tour_lengths",
    "tour_lengths_batch",
    "edge_indices",
    "tour_edges",
    "validate_tour",
    "random_tour",
    "nearest_neighbor_tour",
    "close_tour",
]


def close_tour(perm: np.ndarray) -> np.ndarray:
    """Append the starting city to a permutation, yielding the n+1 layout."""
    perm = np.asarray(perm, dtype=np.int32)
    if perm.ndim != 1:
        raise InvalidTourError(f"permutation must be 1-D, got shape {perm.shape}")
    return np.concatenate([perm, perm[:1]])


def validate_tour(tour: np.ndarray, n: int) -> np.ndarray:
    """Validate the closed-tour layout; returns the tour as ``int32``.

    Raises
    ------
    InvalidTourError
        If the tour has the wrong length, is not closed, visits a city twice
        or references a city outside ``[0, n)``.
    """
    t = np.asarray(tour)
    if t.ndim != 1 or t.shape[0] != n + 1:
        raise InvalidTourError(
            f"tour must have n + 1 = {n + 1} entries, got shape {t.shape}"
        )
    t = t.astype(np.int32, copy=False)
    if t[0] != t[-1]:
        raise InvalidTourError(
            f"tour must be closed (first == last), got {t[0]} != {t[-1]}"
        )
    body = t[:-1]
    if body.min(initial=0) < 0 or body.max(initial=0) >= n:
        raise InvalidTourError("tour references a city outside [0, n)")
    counts = np.bincount(body, minlength=n)
    if not np.all(counts == 1):
        dupes = np.nonzero(counts != 1)[0][:5]
        raise InvalidTourError(f"tour is not a permutation (bad cities: {dupes.tolist()})")
    return t


def tour_length(tour: np.ndarray, dist: np.ndarray) -> int:
    """Length of a closed tour under an integer distance matrix."""
    t = np.asarray(tour, dtype=np.int64)
    return int(dist[t[:-1], t[1:]].sum())


def tour_lengths(tours: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Vectorised lengths of ``(m, n + 1)`` closed tours; returns ``int64``."""
    t = np.asarray(tours, dtype=np.int64)
    if t.ndim != 2:
        raise InvalidTourError(f"tours must be (m, n + 1), got shape {t.shape}")
    return dist[t[:, :-1], t[:, 1:]].sum(axis=1)


def edge_indices(tours: np.ndarray, xp=np, out=None) -> np.ndarray:
    """Flat indices ``frm * n + to`` of the edges of ``(..., n + 1)`` closed
    tours, as ``(..., n)`` int64 (into ``out`` when given)."""
    out = xp.multiply(tours[..., :-1], tours.shape[-1] - 1, out=out, dtype=np.int64)
    return xp.add(out, tours[..., 1:], out=out)


def tour_lengths_batch(
    tours: np.ndarray, dist: np.ndarray, xp=np, *, work
) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and edge table of ``(B, m, n + 1)`` closed tours.

    ``dist`` is a ``(B, n, n)`` stack or a broadcast view with a zero batch
    stride (replicas of one instance); row ``b`` of the lengths equals
    ``tour_lengths(tours[b], dist[b])`` on every backend ``xp`` (integer
    sums are exact in any order).  Returns ``(lengths, edges)``: fresh
    ``(B, m)`` int64 lengths, and the ``(B, m, n)`` int64 ant-major table
    of global flat edge indices ``frm * n + to + b * n * n`` the deposit
    reads.  The table and the gathered distances are ``work`` arena buffers
    (keys ``"edges"``, ``"edges.dist"``), valid until the next call.
    """
    if tours.ndim != 3:
        raise InvalidTourError(f"tours must be (B, m, n + 1), got shape {tours.shape}")
    B, m, n1 = tours.shape
    n = n1 - 1
    edges = edge_indices(tours, xp, out=work.get("edges", (B, m, n), np.int64))
    offsets = work.cached(
        f"edges.offsets.{B}x{n}",
        lambda: (xp.arange(B, dtype=np.int64) * (n * n))[:, None, None],
    )
    d = work.get("edges.dist", (B, m, n), np.int64)
    # Indices are in range by construction; mode="clip" skips numpy's
    # bounds check (and its buffered out=).  CuPy's take has no mode.
    clip = ("clip",) if xp is np else ()
    if dist.strides[0] == 0:
        # Replicas: gather the local indices from the one shared matrix
        # (reshaping the broadcast stack would copy B * n * n values).
        dist[0].reshape(-1).take(edges, None, d, *clip)
        xp.add(edges, offsets, out=edges)
    else:
        xp.add(edges, offsets, out=edges)
        dist.reshape(-1).take(edges, None, d, *clip)
    return d.sum(axis=2), edges


def tour_edges(tour: np.ndarray) -> np.ndarray:
    """Directed edge list ``(n, 2)`` of a closed tour."""
    t = np.asarray(tour, dtype=np.int32)
    return np.stack([t[:-1], t[1:]], axis=1)


def random_tour(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random closed tour over ``n`` cities."""
    return close_tour(rng.permutation(n).astype(np.int32))


def nearest_neighbor_tour(dist: np.ndarray, start: int = 0) -> np.ndarray:
    """Greedy nearest-neighbour heuristic tour.

    ACOTSP seeds the pheromone matrix with ``tau0 = m / C_nn`` where ``C_nn``
    is the length of this tour, so the heuristic is part of the substrate.

    Parameters
    ----------
    dist:
        ``(n, n)`` distance matrix.
    start:
        Starting city.

    Returns
    -------
    numpy.ndarray
        Closed tour of ``n + 1`` ``int32`` entries.
    """
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    if not 0 <= start < n:
        raise InvalidTourError(f"start city {start} outside [0, {n})")
    visited = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int32)
    perm[0] = start
    visited[start] = True
    cur = start
    # The O(n^2) greedy scan; each step vectorises the candidate search.
    masked = d.copy()
    masked[:, start] = np.inf
    for step in range(1, n):
        row = masked[cur]
        nxt = int(np.argmin(row))
        perm[step] = nxt
        visited[nxt] = True
        masked[:, nxt] = np.inf
        cur = nxt
    return close_tour(perm)
