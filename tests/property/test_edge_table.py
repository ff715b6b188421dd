"""Generated inputs: the per-iteration edge table against frozen oracles.

:func:`~repro.tsp.tour.tour_lengths_batch` builds one ``(B, m, n)`` table
of global flat edge indices per iteration; tour lengths and the deposit-all
update both read it.  The tours here are generated to share edges — each
ant walks its row's base tour, its reverse, a rotation of either, or a
fresh permutation — so cells take several deposits, in both directions,
and the summation order of each cell decides its last bits.  Checked:

* lengths equal :func:`~repro.tsp.tour.tour_length` per tour, for full
  distance stacks and for broadcast replicas;
* the one-``bincount`` symmetric deposit is bit-identical to the
  two-``bincount`` (forward, then backward) deposit it replaced, frozen
  below as an oracle, on the single-pass, per-row and ``scatter_add``
  paths (the limits patched down to reach the latter two);
* the atomic hot degree measured once on the table equals the maximum of
  the forward and backward multiplicities, also through engine reports.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import WorkBuffers, get_backend
from repro.core import ACOParams, BatchEngine
from repro.core.pheromone import atomic, base
from repro.tsp import uniform_instance
from repro.tsp.tour import tour_length, tour_lengths_batch

NUMPY = get_backend("numpy")


def two_bincount_oracle(tau, tours, lengths, scatter=False):
    """The deposit before the edge table: forward, then backward indices."""
    B, m, n1 = tours.shape
    n = n1 - 1
    t = tours.astype(np.int64)
    off = (np.arange(B, dtype=np.int64) * (n * n))[:, None, None]
    fw = (t[:, :, :-1] * n + t[:, :, 1:] + off).ravel()
    bw = (t[:, :, 1:] * n + t[:, :, :-1] + off).ravel()
    vals = np.broadcast_to((1.0 / lengths)[:, :, None], (B, m, n)).ravel()
    flat = tau.reshape(-1)
    for idx in (fw, bw):
        if scatter:
            np.add.at(flat, idx, vals)
        else:
            flat += np.bincount(idx, weights=vals, minlength=flat.size)


def hot_degree_oracle(tours):
    """Per-row max of the forward and backward hottest-cell counts."""
    n = tours.shape[2] - 1
    t = tours.astype(np.int64)
    out = []
    for row in t:
        fw = (row[:, :-1] * n + row[:, 1:]).ravel()
        bw = (row[:, 1:] * n + row[:, :-1]).ravel()
        out.append(
            max(np.unique(idx, return_counts=True)[1].max() for idx in (fw, bw))
        )
    return np.array(out, dtype=np.float64)


@st.composite
def shared_edge_tours(draw):
    """``(B, m, n + 1)`` int32 closed tours whose ants share edges."""
    n = draw(st.integers(3, 12))
    B = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    tours = np.empty((B, m, n + 1), dtype=np.int32)
    for b in range(B):
        base_perm = draw(st.permutations(range(n)))
        for a in range(m):
            kind = draw(st.sampled_from(["same", "reverse", "fresh"]))
            if kind == "fresh":
                perm = draw(st.permutations(range(n)))
            else:
                perm = base_perm if kind == "same" else base_perm[::-1]
                shift = draw(st.integers(0, n - 1))
                perm = list(perm[shift:]) + list(perm[:shift])
            tours[b, a, :n] = perm
            tours[b, a, n] = perm[0]
    return tours


def _distances(n, B, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 1000, size=(B, n, n), dtype=np.int64)


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(tours=shared_edge_tours(), seed=st.integers(0, 2**32 - 1))
def test_table_lengths_match_tour_length_oracle(tours, seed):
    B, m, n1 = tours.shape
    n = n1 - 1
    full = _distances(n, B, seed)
    replica = np.broadcast_to(full[0], (B, n, n))
    for dist in (full, replica):
        lengths, edges = tour_lengths_batch(tours, dist, work=WorkBuffers())
        for b in range(B):
            for a in range(m):
                assert lengths[b, a] == tour_length(tours[b, a], dist[b])
                want = tours[b, a, :-1].astype(np.int64) * n + tours[b, a, 1:]
                np.testing.assert_array_equal(edges[b, a], want + b * n * n)


@pytest.mark.parametrize("path", ["single", "per-row", "scatter"])
@SETTINGS
@given(tours=shared_edge_tours(), seed=st.integers(0, 2**32 - 1))
def test_table_deposit_matches_two_bincount_oracle(path, tours, seed):
    B, m, n1 = tours.shape
    n = n1 - 1
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.01, 2.0, size=(B, n, n))
    lengths = rng.integers(1, 100, size=(B, m), dtype=np.int64)
    work = WorkBuffers()
    _, edges = tour_lengths_batch(tours, _distances(n, B, seed), work=work)
    limits = {
        "single": {"_BINCOUNT_SCRATCH_LIMIT": base._BINCOUNT_SCRATCH_LIMIT},
        "per-row": {"_BINCOUNT_SCRATCH_LIMIT": 0},
        "scatter": {"_BINCOUNT_CELL_LIMIT": 0},
    }[path]
    bstate = SimpleNamespace(
        backend=NUMPY, n=n, B=B, work=work, pheromone=tau.copy()
    )
    with mock.patch.multiple(base, **limits):
        base.deposit_all_batch(bstate, edges, lengths)
    want = tau.copy()
    two_bincount_oracle(want, tours, lengths, scatter=path == "scatter")
    assert bstate.pheromone.tobytes() == want.tobytes()


@SETTINGS
@given(tours=shared_edge_tours())
def test_hot_degree_once_matches_forward_backward_oracle(tours):
    B, _, n1 = tours.shape
    n = n1 - 1
    _, edges = tour_lengths_batch(tours, _distances(n, B, 0), work=WorkBuffers())
    hot = atomic._row_hot_degree(edges.reshape(B, -1), n * n, NUMPY)
    np.testing.assert_array_equal(hot, hot_degree_oracle(tours))


@pytest.mark.parametrize("pheromone", [1, 2])
def test_report_hot_degree_matches_forward_backward_oracle(pheromone):
    engine = BatchEngine(
        uniform_instance(12, seed=4),
        [ACOParams(seed=s, nn=5, n_ants=20) for s in (1, 2, 3)],
        construction=8,
        pheromone=pheromone,
    )
    for _ in range(3):
        reports = engine.run_iteration()
        tours = np.stack([r.tours for r in reports])
        got = [
            next(s for s in r.stages if s.stage == "pheromone").stats.atomic_hot_degree
            for r in reports
        ]
        np.testing.assert_array_equal(got, hot_degree_oracle(tours))
