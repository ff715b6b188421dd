"""Variant parity: batched ACS/MMAS rows reproduce the recorded solo loops.

The variant redesign's defining invariant: a :class:`BatchEngine` run with
``variant="acs"`` / ``"mmas"`` must reproduce, per batch row, **exactly**
the trajectory the frozen pre-redesign solo loops recorded for that row's
seed (``data/solo_golden.json``, see ``make_solo_golden.py``) —
per-iteration best lengths, best tour, best length, MMAS trail resets and
the final pheromone matrix's sha256.  The grid covers an instance × seed
product, batch sizes B ∈ {1, 4} and the amortized loop at
report_every ∈ {1, 3}, so batching, seeding and K-block amortization are
each pinned independently; ``test_solo_golden.py`` pins the B=1 views to
the same records.
"""

from __future__ import annotations

import json

import pytest

from repro.core import ACOParams, BatchEngine

from .make_solo_golden import (
    HETERO_ITERATIONS,
    ITERATIONS,
    OUT,
    SEEDS,
    SIZES,
    engine_row_record,
    grid_case,
    grid_instance_for,
    hetero_rows,
)

GOLDEN = json.loads(OUT.read_text())["cases"]


@pytest.mark.parametrize("variant", ["acs", "mmas"])
@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("report_every", [1, 3])
def test_batched_variant_rows_match_recorded_solo_runs(variant, B, report_every):
    for n in SIZES:
        for seed in SEEDS:
            engine = BatchEngine.replicas(
                grid_instance_for(n), ACOParams(seed=seed, nn=7),
                replicas=B, variant=variant,
            )
            batch = engine.run(ITERATIONS, report_every=report_every)
            for b in range(B):
                assert engine_row_record(variant, engine, batch, b) == GOLDEN[
                    grid_case(variant, n, seed + b)
                ], (variant, B, report_every, n, seed, b)


@pytest.mark.parametrize("variant", ["acs", "mmas"])
def test_heterogeneous_variant_batch_rows_stay_independent(variant):
    """Distinct equal-n instances and per-row params in one ACS/MMAS batch:
    every row still reproduces its recorded solo run exactly (the packing
    guarantee the solve service relies on)."""
    instances, plist = hetero_rows()
    engine = BatchEngine(instances, plist, variant=variant)
    batch = engine.run(HETERO_ITERATIONS)
    for b in range(len(instances)):
        assert engine_row_record(variant, engine, batch, b) == GOLDEN[
            f"{variant}-hetero-{b}"
        ], (variant, b)
