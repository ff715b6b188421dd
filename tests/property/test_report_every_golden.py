"""Golden trajectories: the single run loop reproduces the retired K=1 loop.

``data/report_every_golden.json`` was recorded from the dedicated
per-iteration run loop (``run(5, report_every=1)``) before it was folded
into the single boundary loop — see ``make_report_every_golden.py``.  Each
of the 8 x 5 construction x pheromone pairs must still produce the same
per-row iteration-best lengths, final best tours and final pheromone stack
(by sha256) at every ``report_every``: K=1 (every iteration a boundary),
K=3 (interior boundaries plus the forced final one) and K=50 (one boundary
for the whole run).
"""

from __future__ import annotations

import json

import pytest

from .make_report_every_golden import (
    ITERATIONS,
    OUT,
    make_engine,
    pheromone_digest,
)

GOLDEN = json.loads(OUT.read_text())


@pytest.mark.parametrize("construction", range(1, 9))
@pytest.mark.parametrize("pheromone", range(1, 6))
def test_single_loop_matches_golden(construction, pheromone):
    want = GOLDEN["cases"][f"{construction}x{pheromone}"]
    for report_every in (1, 3, 50):
        engine = make_engine(construction, pheromone)
        got = engine.run(ITERATIONS, report_every=report_every)
        assert [
            r.iteration_best_lengths for r in got.results
        ] == want["iteration_best_lengths"], report_every
        assert [
            r.best_tour.tolist() for r in got.results
        ] == want["best_tours"], report_every
        assert (
            pheromone_digest(engine.state.pheromone) == want["pheromone_sha256"]
        ), report_every
