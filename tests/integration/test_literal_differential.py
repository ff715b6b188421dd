"""Differential tests: vectorised kernels vs the literal per-thread executor.

The production kernels are vectorised numpy; these tests replay the same
logic one simulated CUDA thread at a time (with real barrier semantics) on
tiny inputs and demand identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import WorkBuffers
from repro.core.construction.base import best_unvisited
from repro.core.construction.dataparallel import DataParallelConstruction
from repro.core.construction.taskbased import construct_exact_batch
from repro.core.params import ACOParams
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_C1060
from repro.simt.literal import run_block
from repro.tsp import uniform_instance
from tests.helpers import one_row_state


def literal_argmax_program(tid, shared, width):
    """Tree argmax over shared['vals'], ties to the lower index: the block
    reduction behind the data-parallel kernel's city selection."""
    shared["v"][tid] = (shared["vals"][tid], tid)
    yield
    stride = 1
    while stride < width:
        # pairwise, power-of-two tree; lower index wins ties
        if tid % (2 * stride) == 0 and tid + stride < width:
            a, b = shared["v"][tid], shared["v"][tid + stride]
            if b[0] > a[0]:
                shared["v"][tid] = b
        yield
        stride *= 2
    return shared["v"][0]


def literal_argmax(vals) -> int:
    """Winner of one block of ``len(vals)`` threads running the tree argmax."""
    width = len(vals)
    result = run_block(
        literal_argmax_program, width, {"vals": list(vals), "v": [None] * width}, width
    )
    return result[0][1]


def replay_data_parallel(width, seed, tile=256):
    """Build one colony's tours with the data-parallel kernel, and the same
    tours step by step: each step one block of ``width`` threads, a thread
    per city, electing ``choice * U * unvisited`` by the literal tree."""
    instance = uniform_instance(width, seed=100 + width)
    bstate = one_row_state(instance, ACOParams(seed=seed), TESLA_C1060)
    n, m = bstate.n, bstate.m
    tours = DataParallelConstruction(tile=tile).build_batch(
        bstate, ParkMillerLCG(n_streams=m * n, seed=seed), collect=False
    ).tours[0]
    # The kernel's draws: row 0 places the ants (the leading m streams),
    # row s gives thread (ant a, city j) stream a * n + j at step s.
    u = ParkMillerLCG(n_streams=m * n, seed=seed).uniform_block(n)
    choice = np.asarray(bstate.choice_info[0])
    expected = np.empty_like(tours)
    for a in range(m):
        cur = min(int(u[0, a] * n), n - 1)
        visited = np.zeros(n, dtype=bool)
        visited[cur] = True
        expected[a, 0] = cur
        for s in range(1, n):
            prod = choice[cur] * u[s, a * n : (a + 1) * n] * ~visited
            cur = literal_argmax(prod)
            visited[cur] = True
            expected[a, s] = cur
        expected[a, n] = expected[a, 0]
    return tours, expected


class TestReductionDifferential:
    @pytest.mark.parametrize("width", [3, 4, 8, 16, 32])
    def test_argmax_matches_vectorised(self, width):
        tours, expected = replay_data_parallel(width, seed=width)
        np.testing.assert_array_equal(tours, expected)

    @pytest.mark.parametrize("width", [40, 70])
    def test_tiled_argmax_matches_literal(self, width):
        """With 32-thread tiles the product rule still elects the argmax of
        one block spanning every city."""
        tours, expected = replay_data_parallel(width, seed=3, tile=32)
        np.testing.assert_array_equal(tours, expected)

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_argmax_with_ties(self, width):
        """Ties go to the lower index, in the tree and in the
        best-unvisited fallback the kernels share; a visited city is
        skipped even when it ties."""
        vals = np.zeros(width)
        vals[1] = vals[3] = 5.0  # tie between indices 1 and 3
        visited = np.zeros((1, width), dtype=bool)
        assert literal_argmax(vals) == best_unvisited(vals[None], visited)[0] == 1
        visited[0, 1] = True
        masked = np.where(visited[0], -1.0, vals)
        assert literal_argmax(masked) == best_unvisited(vals[None], visited)[0] == 3


def literal_iroulette_program(tid, shared, choice_row, u_row, visited_row, width):
    """One data-parallel selection step for a single ant: thread = city."""
    flag = 0.0 if visited_row[tid] else 1.0
    shared["prod"][tid] = choice_row[tid] * u_row[tid] * flag
    yield
    if tid == 0:
        best, best_idx = -1.0, 0
        for j in range(width):
            if shared["prod"][j] > best:
                best, best_idx = shared["prod"][j], j
        shared["winner"] = best_idx
    yield
    return shared["winner"]


class TestIRouletteDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_step_matches_vectorised(self, seed):
        n = 16
        rng = np.random.default_rng(seed)
        choice = rng.uniform(0.1, 1.0, n)
        u = rng.uniform(size=n)
        visited = rng.random(n) < 0.4
        visited[rng.integers(n)] = False  # keep at least one candidate

        literal = run_block(
            literal_iroulette_program,
            n,
            {"prod": [0.0] * n, "winner": None},
            choice,
            u,
            visited,
            n,
        )
        vec = int(np.argmax(choice * u * ~visited))
        assert literal[0] == vec


def literal_bitwise_tabu_program(tid, shared, cities_per_thread):
    """The tiled register tabu: one bit per tile in a thread-private word."""
    word = 0
    marks = shared["marks"][tid]  # list of tile indices to mark visited
    for tile in marks:
        word |= 1 << tile
    yield
    return [bool((word >> t) & 1) for t in range(cities_per_thread)]


class TestBitwiseTabuDifferential:
    def test_bit_marks_match_boolean_array(self):
        tiles = 8
        threads = 4
        rng = np.random.default_rng(3)
        marks = [list(rng.choice(tiles, size=3, replace=False)) for _ in range(threads)]
        literal = run_block(
            literal_bitwise_tabu_program, threads, {"marks": marks}, tiles
        )
        for tid in range(threads):
            expected = [t in marks[tid] for t in range(tiles)]
            assert literal[tid] == expected


def literal_roulette_program(tid, shared, weights, dart, width):
    """Sequential roulette walk executed by thread 0 — the C semantics."""
    if tid == 0:
        total = sum(weights)
        r = dart * total
        acc = 0.0
        pick = width - 1
        for j in range(width):
            acc += weights[j]
            if acc >= r and weights[j] > 0:
                pick = j
                break
        shared["pick"] = pick
    yield
    return shared["pick"]


def replay_task_based(choice, nn_list, m, seed):
    """The task-based kernel's tours and fallback count for one colony, and
    the same tours walked one ant and one step at a time: the roulette over
    the unvisited candidates' weights, or, when they carry none, the first
    best unvisited city of the full row."""
    n = choice.shape[0]
    tours, fallbacks = construct_exact_batch(
        choice[None],
        None if nn_list is None else nn_list[None],
        ParkMillerLCG(n_streams=m, seed=seed),
        1,
        m,
        n,
        work=WorkBuffers(),
    )
    darts = ParkMillerLCG(n_streams=m, seed=seed).uniform_block(n)
    expected = np.empty_like(tours[0])
    falls = 0
    for a in range(m):
        cur = min(int(darts[0, a] * n), n - 1)
        visited = np.zeros(n, dtype=bool)
        visited[cur] = True
        expected[a, 0] = cur
        for s in range(1, n):
            cands = np.arange(n) if nn_list is None else nn_list[cur]
            weights = [0.0 if visited[c] else float(choice[cur, c]) for c in cands]
            if sum(weights) > 0.0:
                pick = run_block(
                    literal_roulette_program,
                    1,
                    {"pick": None},
                    weights,
                    float(darts[s, a]),
                    len(cands),
                )[0]
                cur = int(cands[pick])
            else:
                row = np.where(visited, -1.0, choice[cur])
                cur = literal_argmax(row)
                falls += 1
            visited[cur] = True
            expected[a, s] = cur
        expected[a, n] = expected[a, 0]
    return tours[0], fallbacks[0], expected, falls


def sparse_choice(n, seed):
    """Random weights with a zero diagonal and about 30 % zero entries."""
    rng = np.random.default_rng(seed)
    choice = rng.uniform(0.0, 1.0, (n, n))
    choice[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(choice, 0.0)
    return choice


class TestRouletteDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_cumsum_roulette_matches_walk(self, seed):
        tours, fallbacks, expected, falls = replay_task_based(
            sparse_choice(12, seed), None, 5, seed
        )
        np.testing.assert_array_equal(tours, expected)
        assert fallbacks == falls

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_roulette_matches_walk(self, seed):
        """The candidate-list rule walks only the nn list, in list order, and
        takes the best-unvisited fallback once the list is spent."""
        n, nn = 12, 4
        choice = sparse_choice(n, 50 + seed)
        rng = np.random.default_rng(seed)
        nn_list = np.stack(
            [rng.permutation(np.delete(np.arange(n), c))[:nn] for c in range(n)]
        )
        tours, fallbacks, expected, falls = replay_task_based(choice, nn_list, 5, seed)
        np.testing.assert_array_equal(tours, expected)
        assert fallbacks == falls
        assert falls > 0

    def test_wide_roulette_matches_walk(self):
        """From 256 candidates the pick counts in ``uint16``; the walk
        still agrees."""
        tours, fallbacks, expected, falls = replay_task_based(
            sparse_choice(260, 9), None, 2, 9
        )
        np.testing.assert_array_equal(tours, expected)
        assert fallbacks == falls
