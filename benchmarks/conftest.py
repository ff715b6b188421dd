"""Shared benchmark fixtures and the table-emission helper.

Every benchmark module pairs two things:

* **artefact regeneration** — the calibrated model reproduces the paper's
  table/figure rows; the side-by-side comparison is printed (stderr, so it
  survives pytest's capture) and written to ``benchmarks/results/<id>.txt``;
* **functional timing** — pytest-benchmark times the *real* vectorised
  kernel simulations on small suite instances, giving measured wall-clock
  rows for the same code paths.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core import ACOParams, BatchColonyState
from repro.experiments.harness import ExperimentResult
from repro.tsp import load_instance
from repro.tsp.tour import random_tour, tour_lengths

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_result(result: ExperimentResult) -> None:
    """Print an artefact comparison and persist it under results/."""
    text = result.render()
    print(f"\n{text}\n", file=sys.stderr)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{result.id}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def update_inputs(instance, device, seed: int):
    """One colony (a one-row batch state) and a random tour per ant:
    ``(bstate, tours, lengths)``, the tours ``(m, n + 1)``.  A pheromone
    update times as ``update_batch(bstate, edge_indices(tours[None]),
    lengths[None])``."""
    bstate = BatchColonyState.create([instance], [ACOParams(seed=5)], device)
    rng = np.random.default_rng(seed)
    tours = np.stack([random_tour(bstate.n, rng) for _ in range(bstate.m)])
    return bstate, tours, tour_lengths(tours, bstate.dist[0])


@pytest.fixture(scope="session")
def att48():
    return load_instance("att48")


@pytest.fixture(scope="session")
def kroC100():
    return load_instance("kroC100")


@pytest.fixture(scope="session")
def a280():
    return load_instance("a280")


@pytest.fixture(scope="session")
def bench_params():
    """Paper parameters with a fixed seed for reproducible benchmark work."""
    return ACOParams(seed=1234)
