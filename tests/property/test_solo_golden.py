"""Golden solo-path results: the engine reproduces what the solo code recorded.

``data/solo_golden.json`` was recorded from the solo code paths — the
frozen ACS/MMAS loops and the per-tile data-parallel ``build`` — see
``make_solo_golden.py``.  Every case must come out of the engine's batch
kernels bit-identical:

* each ACS/MMAS trajectory through its B=1 engine view: iteration-best
  lengths, best tour and length, the final pheromone's sha256 and MMAS
  trail resets;
* three successive tiled version-8 builds (tile 32) by tour sha256, and a
  build whose products tie at ``+0.0`` by its tours and fallback count;
* the data-parallel ``predict_stats`` closed form against the ledgers the
  solo build measured step by step.
"""

from __future__ import annotations

import json

import pytest

from repro.tsp.tour import validate_tour

from .make_solo_golden import CASES, OUT, engine_record

GOLDEN = json.loads(OUT.read_text())["cases"]


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


def test_fixture_exercises_the_fallbacks():
    """The recorded stagnation run resets its trails, and the zero-choice
    build falls back and still closes valid tours."""
    assert GOLDEN["mmas-stagnation"]["trail_reinitialisations"] >= 1
    zero = GOLDEN["tiled-zero-choice"]
    assert zero["fallback_steps"] > 0
    for tour in zero["tours"]:
        validate_tour(tour, 48)


@pytest.mark.parametrize("name", CASES)
def test_engine_matches_golden(name):
    assert engine_record(name) == GOLDEN[name]
