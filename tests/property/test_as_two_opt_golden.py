"""Golden AS + 2-opt trajectories: local search, lengths and deposit agree.

``data/as_two_opt_golden.json`` was recorded before tour lengths and the
deposit-all update read one shared per-iteration edge table — see
``make_as_two_opt_golden.py``.  With 2-opt polishing the iteration-best
tour at every boundary, the deposit must read the polished rows, so every
case (construction 8 x pheromone 1-5 x ``report_every`` 1 / 3, broadcast
replicas and heterogeneous rows) must still produce the same per-row
iteration-best lengths, final best tours and final pheromone stack (by
sha256).
"""

from __future__ import annotations

import json

import pytest

from .make_as_two_opt_golden import (
    ITERATIONS,
    LAYOUTS,
    OUT,
    REPORT_EVERY,
    make_engine,
    pheromone_digest,
)

GOLDEN = json.loads(OUT.read_text())


@pytest.mark.parametrize("report_every", REPORT_EVERY)
@pytest.mark.parametrize("pheromone", range(1, 6))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_as_two_opt_matches_golden(layout, pheromone, report_every):
    want = GOLDEN["cases"][f"{layout}/p{pheromone}/k{report_every}"]
    engine = make_engine(layout, pheromone)
    got = engine.run(ITERATIONS, report_every=report_every)
    assert [r.iteration_best_lengths for r in got.results] == want[
        "iteration_best_lengths"
    ]
    assert [r.best_tour.tolist() for r in got.results] == want["best_tours"]
    assert pheromone_digest(engine.state.pheromone) == want["pheromone_sha256"]
