"""Ablation — algorithm variants: AS kernels, ACS, and 2-opt polishing.

Beyond the paper: compares the Ant System (with the paper's best kernel
pair) against the Ant Colony System extension and measures the cost of a
2-opt polish, in both wall-clock (functional simulation) and quality.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import (
    ACOParams,
    ACSParams,
    AntColonySystem,
    AntSystem,
    BatchEngine,
    MaxMinAntSystem,
)
from repro.tsp import two_opt
from repro.util.tables import Table

pytestmark = pytest.mark.benchmark(group="ablation-variants")

ITERS = 8
REPLICAS = 8


def test_batched_replica_iteration(benchmark, kroC100):
    """Throughput of one batched iteration advancing REPLICAS colonies."""
    engine = BatchEngine.replicas(
        kroC100, ACOParams(seed=55, nn=25), replicas=REPLICAS,
        construction=8, pheromone=1,
    )
    engine.run_iteration()
    benchmark.extra_info["algorithm"] = f"ant_system_batch_{REPLICAS}"
    benchmark(engine.run_iteration)


def test_quality_comparison(kroC100):
    params = ACOParams(seed=55, nn=25)
    # The AS row is REPLICAS seed-replicas dispatched through the batched
    # multi-colony engine (one vectorized batch, not a Python loop); each
    # row is bit-identical to a solo AntSystem run with that seed.
    as_batch = BatchEngine.replicas(
        kroC100, params, replicas=REPLICAS, construction=8, pheromone=1
    ).run(ITERS)
    as_lengths = as_batch.best_lengths
    acs_best = AntColonySystem(kroC100, params, ACSParams()).run(ITERS).best_length
    mmas_best = MaxMinAntSystem(kroC100, params).run(ITERS).best_length

    table = Table(
        ["algorithm", "best length"],
        title=f"quality after {ITERS} iterations ({REPLICAS} AS replicas)",
    )
    table.add_row(
        [
            f"Ant System (v8 + v1, best of {REPLICAS})",
            f"{as_batch.best_length} (mean {as_lengths.mean():.0f})",
        ]
    )
    table.add_row(["Ant Colony System", acs_best])
    table.add_row(["MAX-MIN Ant System", mmas_best])
    print("\n" + table.render(), file=sys.stderr)
    # Sanity band — no algorithm may be wildly off the others.
    lengths = [int(as_lengths.mean()), acs_best, mmas_best]
    assert (max(lengths) - min(lengths)) / min(lengths) < 0.3


def test_as_iteration(benchmark, kroC100):
    colony = AntSystem(kroC100, ACOParams(seed=55, nn=25), construction=8, pheromone=1)
    colony.run_iteration()
    benchmark.extra_info["algorithm"] = "ant_system"
    benchmark(colony.run_iteration)


def test_acs_iteration(benchmark, kroC100):
    acs = AntColonySystem(kroC100, ACOParams(seed=55, nn=25), ACSParams())
    acs.run_iteration()
    benchmark.extra_info["algorithm"] = "acs"
    benchmark(acs.run_iteration)


def test_mmas_iteration(benchmark, kroC100):
    mmas = MaxMinAntSystem(kroC100, ACOParams(seed=55, nn=25))
    mmas.run_iteration()
    benchmark.extra_info["algorithm"] = "mmas"
    benchmark(mmas.run_iteration)


def test_two_opt_polish(benchmark, kroC100):
    colony = AntSystem(kroC100, ACOParams(seed=55, nn=25), construction=8, pheromone=1)
    result = colony.run(3)
    dist = kroC100.distance_matrix()
    benchmark.extra_info["algorithm"] = "two_opt"
    res = benchmark(two_opt, result.best_tour, dist)
    assert res.length <= result.best_length
