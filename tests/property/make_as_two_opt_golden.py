"""Write the golden AS + 2-opt trajectories ``test_as_two_opt_golden.py`` pins.

Ant System with ``local_search="2opt"`` (iteration-best target) is the one
run where local search rewrites tours that the deposit-all update then
reads: the polished iteration-best tour replaces the winning ant's row
before every ant deposits.  For construction 8 x every pheromone strategy
(1-5), ``report_every`` K in {1, 3} and two batch layouts — broadcast
replicas of one instance and heterogeneous rows (one instance per row) —
the fixture records each row's iteration-best lengths, its final best tour
and a sha256 of the final ``(B, n, n)`` pheromone stack.

The checked-in file was generated before tour lengths and the deposit
shared one per-iteration edge table, so the test proves that change moved
no pheromone bit.  Regenerating it from current code only re-pins whatever
the code does now.

Run from the repository root::

    PYTHONPATH=src python tests/property/make_as_two_opt_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core import ACOParams, BatchEngine
from repro.tsp import uniform_instance

ITERATIONS = 6
CONSTRUCTION = 8
REPORT_EVERY = (1, 3)
SEEDS = [5, 13]
#: the replica layout runs ``SEEDS`` on the first instance (broadcast
#: distances); the heterogeneous layout pairs seed ``SEEDS[b]`` with
#: instance ``b``
INSTANCES = [{"n": 30, "seed": 2026}, {"n": 30, "seed": 3031}]
NN = 7
LAYOUTS = ("replicas", "hetero")
OUT = Path(__file__).with_name("data") / "as_two_opt_golden.json"


def pheromone_digest(pheromone) -> str:
    """sha256 of the pheromone stack's float64 bytes (C order)."""
    arr = np.ascontiguousarray(np.asarray(pheromone, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def make_engine(layout: str, pheromone: int) -> BatchEngine:
    """The AS + 2-opt engine for one batch layout and pheromone strategy."""
    instances = [uniform_instance(spec["n"], seed=spec["seed"]) for spec in INSTANCES]
    if layout == "replicas":
        instances = instances[0]
    return BatchEngine(
        instances,
        [ACOParams(seed=s, nn=NN) for s in SEEDS],
        construction=CONSTRUCTION,
        pheromone=pheromone,
        local_search="2opt",
        local_search_options={"target": "iteration-best"},
    )


def trajectory(layout: str, pheromone: int, report_every: int) -> dict:
    engine = make_engine(layout, pheromone)
    result = engine.run(ITERATIONS, report_every=report_every)
    return {
        "iteration_best_lengths": [
            [int(v) for v in r.iteration_best_lengths] for r in result.results
        ],
        "best_tours": [[int(c) for c in r.best_tour] for r in result.results],
        "pheromone_sha256": pheromone_digest(engine.state.pheromone),
    }


def main() -> None:
    meta = {
        "iterations": ITERATIONS,
        "construction": CONSTRUCTION,
        "seeds": SEEDS,
        "instances": INSTANCES,
        "nn": NN,
    }
    rows = ",\n".join(
        f'  "{layout}/p{p}/k{k}": '
        f"{json.dumps(trajectory(layout, p, k), sort_keys=True)}"
        for layout in LAYOUTS
        for p in range(1, 6)
        for k in REPORT_EVERY
    )
    OUT.parent.mkdir(exist_ok=True)
    # One line per case keeps the fixture readable in diffs.
    OUT.write_text(f'{{"meta": {json.dumps(meta)},\n "cases": {{\n{rows}\n}}}}\n')
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
