"""Variant parity: batched ACS/MMAS are bit-identical to the solo references.

The variant redesign's defining invariant: a :class:`BatchEngine` run with
``variant="acs"`` / ``"mmas"`` must reproduce, per batch row, **exactly**
what the retained pre-redesign solo loops
(:class:`~repro.core.reference.ReferenceAntColonySystem`,
:class:`~repro.core.reference.ReferenceMaxMinAntSystem`) produce for that
row's seed — per-iteration best lengths, best tour, best length and the
final pheromone matrix, all compared bitwise.  The grid covers an
instance × seed product, batch sizes B ∈ {1, 4} and the amortized loop at
report_every ∈ {1, 3}, so batching, seeding and K-block amortization are
each pinned independently.

The engine-backed B=1 views (:class:`~repro.core.acs.AntColonySystem`,
:class:`~repro.core.mmas.MaxMinAntSystem`) are checked against the same
oracles, which transfers the entire legacy variant test surface onto the
engine path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ACOParams, BatchEngine
from repro.core.acs import AntColonySystem
from repro.core.mmas import MaxMinAntSystem
from repro.core.reference import (
    ReferenceAntColonySystem,
    ReferenceMaxMinAntSystem,
)
from repro.tsp import uniform_instance

ITERATIONS = 6
#: instance sizes x master seeds of the parity grid (nn=7 keeps the
#: candidate-list machinery exercised on the MMAS construction side)
SIZES = (14, 18)
SEEDS = (3, 11)


def _instances():
    return [uniform_instance(n, seed=100 + n) for n in SIZES]


def _reference(variant: str, instance, params):
    if variant == "acs":
        return ReferenceAntColonySystem(instance, params)
    return ReferenceMaxMinAntSystem(instance, params)


@pytest.mark.parametrize("variant", ["acs", "mmas"])
@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("report_every", [1, 3])
def test_batched_variant_bit_identical_to_solo_reference(
    variant, B, report_every
):
    for instance in _instances():
        for seed in SEEDS:
            params = ACOParams(seed=seed, nn=7)
            engine = BatchEngine.replicas(
                instance, params, replicas=B, variant=variant
            )
            batch = engine.run(ITERATIONS, report_every=report_every)
            for b in range(B):
                row_params = dataclasses.replace(params, seed=seed + b)
                ref = _reference(variant, instance, row_params)
                ref_result = ref.run(ITERATIONS)
                row = batch.results[b]
                assert (
                    row.iteration_best_lengths
                    == ref_result.iteration_best_lengths
                ), (variant, B, report_every, instance.n, seed, b)
                assert row.best_length == ref_result.best_length
                np.testing.assert_array_equal(
                    row.best_tour, ref_result.best_tour
                )
                np.testing.assert_array_equal(
                    engine.state.pheromone[b], ref.state.pheromone
                )


@pytest.mark.parametrize("variant", ["acs", "mmas"])
def test_views_match_reference(variant):
    """The B=1 views return reference-identical results (incl. pheromone)."""
    instance = uniform_instance(16, seed=2024)
    params = ACOParams(seed=7, nn=7)
    if variant == "acs":
        view = AntColonySystem(instance, params)
    else:
        view = MaxMinAntSystem(instance, params)
    ref = _reference(variant, instance, params)
    res = view.run(ITERATIONS)
    ref_res = ref.run(ITERATIONS)
    assert res.iteration_best_lengths == ref_res.iteration_best_lengths
    assert res.best_length == ref_res.best_length
    np.testing.assert_array_equal(res.best_tour, ref_res.best_tour)
    np.testing.assert_array_equal(view.state.pheromone, ref.state.pheromone)


def test_mmas_stagnation_reinit_matches_reference():
    """The engine's per-row stagnation reinit follows the reference loop
    (aggressive convergence parameters force at least one reset)."""
    instance = uniform_instance(16, seed=99)
    params = ACOParams(seed=12, nn=7, rho=0.9, beta=5.0)
    view = MaxMinAntSystem(instance, params)
    ref = ReferenceMaxMinAntSystem(instance, params)
    res = view.run(20, reinit_branching=2.5)
    ref_res = ref.run(20, reinit_branching=2.5)
    assert res.iteration_best_lengths == ref_res.iteration_best_lengths
    assert res.trail_reinitialisations == ref_res.trail_reinitialisations
    assert res.trail_reinitialisations >= 1
    np.testing.assert_array_equal(view.state.pheromone, ref.state.pheromone)


def test_heterogeneous_variant_batch_rows_stay_independent():
    """Distinct equal-n instances and per-row params in one ACS/MMAS batch:
    every row still reproduces its solo reference exactly (the packing
    guarantee the solve service relies on)."""
    instances = [uniform_instance(15, seed=s) for s in (51, 52, 53)]
    plist = [
        ACOParams(seed=5, nn=7),
        ACOParams(seed=9, nn=7, rho=0.2),
        ACOParams(seed=2, nn=7, beta=3.0),
    ]
    for variant in ("acs", "mmas"):
        engine = BatchEngine(instances, plist, variant=variant)
        batch = engine.run(4)
        for b, (inst, p) in enumerate(zip(instances, plist)):
            ref = _reference(variant, inst, p)
            ref_result = ref.run(4)
            assert (
                batch.results[b].iteration_best_lengths
                == ref_result.iteration_best_lengths
            ), (variant, b)
            np.testing.assert_array_equal(
                engine.state.pheromone[b], ref.state.pheromone
            )
