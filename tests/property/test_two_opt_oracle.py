"""Generated inputs: the batched 2-opt kernel against a pure-Python oracle.

:func:`~repro.tsp.local_search.two_opt_batch` must make, row by row, the
moves of the plain per-row loop below: nn-restricted best-improvement
2-opt that applies the first maximum-gain exchange in position-major
``(i, k)`` order (lowest tour position, then lowest candidate rank) while
that gain is at least ``min_gain``.  The inputs are generated: n 4..40,
B 1..4, heterogeneous or replica (broadcast) rows, distances on a small
lattice or small random integers (so equal gains are everywhere),
nearest-neighbour, full or arbitrary candidate lists (self-candidates and
repeats included), and ``max_passes`` None / 0..3.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tsp.local_search import two_opt_batch
from repro.tsp.neighbors import nearest_neighbor_lists
from repro.tsp.tour import random_tour, tour_length


def oracle(tour, d, nn, max_passes, min_gain=0.5):
    """Best-improvement nn-restricted 2-opt on one row, in plain Python.

    Returns ``(closed tour, exchanges)``.  ``nn=None`` means every other
    city, listed as ``(c + 1 + k) % n``.
    """
    body = [int(c) for c in tour[:-1]]
    n = len(body)
    if nn is None:
        nn = [[(c + 1 + k) % n for k in range(n - 1)] for c in range(n)]
    exchanges = 0
    while n >= 4 and (max_passes is None or exchanges < max_passes):
        pos = {c: i for i, c in enumerate(body)}
        best = None  # (gain, i, j); strict > keeps the first maximum
        for i, c in enumerate(body):
            sc = body[(i + 1) % n]
            for cp in nn[c]:
                cp = int(cp)
                if cp == c:
                    continue
                j = pos[cp]
                scp = body[(j + 1) % n]
                g = int(d[c][sc] + d[cp][scp] - d[c][cp] - d[sc][scp])
                if best is None or g > best[0]:
                    best = (g, i, j)
        if best is None or best[0] < min_gain:
            break
        _, i, j = best
        lo, hi = min(i, j), max(i, j)
        body[lo + 1 : hi + 1] = body[lo + 1 : hi + 1][::-1]
        exchanges += 1
    return np.array(body + body[:1], dtype=np.int32), exchanges


def _distances(kind: str, n: int, rng) -> np.ndarray:
    if kind == "lattice":
        # Manhattan distances between points of a 4 x 4 grid (repeats
        # allowed): short integer distances, many equal gains.
        xy = rng.integers(0, 4, size=(n, 2))
        return np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2).astype(np.int64)
    d = rng.integers(1, 5, size=(n, n))
    d = np.triu(d, 1)
    return (d + d.T).astype(np.int64)


def _candidates(kind: str, d: np.ndarray, K: int, rng):
    n = d.shape[0]
    if kind == "full":
        return None
    if kind == "nearest":
        return nearest_neighbor_lists(d, min(K, n - 1))
    return rng.integers(0, n, size=(n, K)).astype(np.int32)


@st.composite
def batches(draw):
    n = draw(st.integers(4, 40))
    B = draw(st.integers(1, 4))
    replica = draw(st.booleans())
    dist_kind = draw(st.sampled_from(["lattice", "random"]))
    cand_kind = draw(st.sampled_from(["nearest", "full", "arbitrary"]))
    K = draw(st.integers(1, 8))
    max_passes = draw(st.one_of(st.none(), st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_instances = 1 if replica else B
    dists = [_distances(dist_kind, n, rng) for _ in range(n_instances)]
    nns = [_candidates(cand_kind, d, K, rng) for d in dists]
    tours = np.stack([random_tour(n, rng) for _ in range(B)])
    if replica:
        dist = np.broadcast_to(dists[0], (B, n, n))
        nn = None if nns[0] is None else np.broadcast_to(nns[0], (B,) + nns[0].shape)
    else:
        dist = np.stack(dists)
        nn = None if nns[0] is None else np.stack(nns)
    return tours, dist, nn, max_passes


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=batches())
def test_batch_kernel_matches_python_oracle(case):
    tours, dist, nn, max_passes = case
    res = two_opt_batch(tours, dist, nn_list=nn, max_passes=max_passes)
    row_exchanges = []
    for b in range(tours.shape[0]):
        want, exchanges = oracle(
            tours[b], dist[b], None if nn is None else nn[b], max_passes
        )
        np.testing.assert_array_equal(res.tours[b], want)
        assert int(res.exchanges[b]) == exchanges, b
        assert int(res.lengths[b]) == tour_length(want, dist[b]), b
        assert int(res.initial_lengths[b]) == tour_length(tours[b], dist[b]), b
        row_exchanges.append(exchanges)
    # lockstep passes: a row that stops stays stopped
    assert res.passes == max(row_exchanges)
