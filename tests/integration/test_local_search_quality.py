"""Solution quality: the batched 2-opt stage must pay for the iterations it costs.

Each variant runs five seed-replicas on att48 twice, once plain and once
with ``local_search="2opt"`` polishing at every ``report_every=5``
boundary.  The iteration budgets are the counts a 0.25 s wall budget
bought on a 2-core VM (numpy), and the 2-opt side gets the smaller count,
so the test keeps the real trade: fewer but polished iterations against
more raw ones.  Fixed counts instead of a wall clock make it deterministic.

Historical record, median best length over seeds 1-5 (plain -> 2-opt):
AS 9726 -> 9073, ACS 9153 -> 9103, MMAS 9110 -> 9094.
"""

from __future__ import annotations

import statistics

import pytest

from repro.core import ACOParams, BatchEngine
from repro.tsp import load_instance

#: variant -> (iterations without 2-opt, iterations with it)
BUDGETS = {"as": (139, 117), "acs": (73, 70), "mmas": (146, 143)}


@pytest.fixture(scope="module")
def att48():
    return load_instance("att48")


def _median_best(instance, variant, local_search, iterations) -> float:
    engine = BatchEngine.replicas(
        instance,
        ACOParams(seed=1),
        replicas=5,
        variant=variant,
        local_search=local_search,
    )
    batch = engine.run(iterations, report_every=5)
    return statistics.median(int(x) for x in batch.best_lengths)


@pytest.mark.parametrize("variant", sorted(BUDGETS))
def test_two_opt_beats_plain_at_matched_budget(att48, variant):
    plain_iters, ls_iters = BUDGETS[variant]
    plain = _median_best(att48, variant, "none", plain_iters)
    polished = _median_best(att48, variant, "2opt", ls_iters)
    assert polished < plain, (
        f"{variant}: 2-opt median {polished} not below plain median {plain}"
    )
