"""Integration: the GPU simulation against the sequential baseline.

The paper states "the results are similar to those obtained by the
sequential code for all our implementations" — the quality claims here are
the statistical version of that sentence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem
from repro.seq import SequentialAntSystem
from repro.simt.device import TESLA_M2050
from repro.tsp import clustered_instance, uniform_instance
from repro.tsp.tour import nearest_neighbor_tour, tour_length


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(60, seed=606)


def run_gpu(instance, construction, iters=12, seed=21):
    colony = AntSystem(
        instance,
        ACOParams(seed=seed, nn=12),
        device=TESLA_M2050,
        construction=construction,
        pheromone=1,
    )
    return colony.run(iters)


def run_seq(instance, mode, iters=12, seed=21):
    engine = SequentialAntSystem(instance, seed=seed, nn=12)
    results = engine.run(iters, mode=mode)
    assert engine.best_length is not None
    return engine.best_length, results


class TestQualityParity:
    def test_taskbased_equals_sequential_distribution(self, instance):
        """Versions 2-3 implement the exact proportional rule, so their
        quality must sit in the same band as the sequential code."""
        gpu = run_gpu(instance, construction=3)
        seq_best, _ = run_seq(instance, mode="full")
        assert abs(gpu.best_length - seq_best) / seq_best < 0.12

    def test_dataparallel_quality_band(self, instance):
        """I-Roulette is a different selection rule but must stay within a
        modest band of the sequential quality (paper: 'similar results')."""
        gpu = run_gpu(instance, construction=8)
        seq_best, _ = run_seq(instance, mode="full")
        assert abs(gpu.best_length - seq_best) / seq_best < 0.20

    def test_nnlist_beats_nn_heuristic(self, instance):
        """A few AS iterations with candidate lists must beat the plain
        greedy nearest-neighbour tour."""
        d = instance.distance_matrix()
        greedy = tour_length(nearest_neighbor_tour(d), d)
        gpu = run_gpu(instance, construction=6)
        assert gpu.best_length < greedy

    def test_both_improve_over_first_iteration(self):
        inst = clustered_instance(80, seed=808, clusters=6)
        gpu = run_gpu(inst, construction=8, iters=15)
        firsts = gpu.iteration_best_lengths[0]
        assert gpu.best_length <= firsts

    def test_pheromone_concentrates_on_good_edges(self, instance):
        """After several iterations the best tour's edges should carry more
        pheromone than average — stigmergy at work."""
        colony = AntSystem(instance, ACOParams(seed=3, nn=12), construction=8)
        result = colony.run(15)
        tau = colony.state.pheromone
        best = result.best_tour
        best_edge_tau = tau[best[:-1], best[1:]].mean()
        overall = tau[~np.eye(instance.n, dtype=bool)].mean()
        assert best_edge_tau > 2.0 * overall


class TestSelectionDistribution:
    def test_exact_roulette_matches_probabilities(self):
        """The task-based kernel's step follows eq. 1's proportional law:
        grouped by start city, the second cities occur in the proportions
        of that start city's ``choice`` row."""
        from repro.backend import WorkBuffers
        from repro.core.construction.taskbased import construct_exact_batch
        from repro.rng import ParkMillerLCG

        n, m = 4, 8000
        choice = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [4.0, 0.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 2.0],
                [2.0, 5.0, 3.0, 0.0],
            ]
        )
        tours, fallbacks = construct_exact_batch(
            choice[None], None, ParkMillerLCG(n_streams=m, seed=5), 1, m, n,
            work=WorkBuffers(),
        )
        assert fallbacks[0] == 0.0
        starts, seconds = tours[0, :, 0], tours[0, :, 1]
        for city in range(n):
            group = seconds[starts == city]
            assert group.size > 1500
            freq = np.bincount(group, minlength=n) / group.size
            want = choice[city] / choice[city].sum()
            np.testing.assert_allclose(freq, want, atol=0.035)

    def test_iroulette_monotone_in_weight(self):
        """I-Roulette is not proportional, but higher choice values must
        win more often — the property that preserves ACO's bias."""
        from repro.rng import ParkMillerLCG

        weights = np.array([1.0, 2.0, 4.0, 8.0])
        rng = ParkMillerLCG(n_streams=4, seed=9)
        counts = np.zeros(4)
        trials = 4000
        for _ in range(trials):
            u = rng.uniform()
            counts[int(np.argmax(u * weights))] += 1
        assert counts[0] < counts[1] < counts[2] < counts[3]
