"""Write the golden trajectories ``test_report_every_golden.py`` pins.

For every construction kernel (1-8) x pheromone strategy (1-5) the fixture
records what ``BatchEngine.run(5, report_every=1)`` produced on the
report-every suite's instance and seeds: each row's iteration-best lengths,
its final best tour, and a sha256 of the final ``(B, n, n)`` pheromone
stack.  The checked-in file was generated by the dedicated per-iteration
run loop that preceded the single boundary loop, so the test proves the
merge changed no trajectory.  Regenerating it from current code only
re-pins whatever the code does now.

Run from the repository root::

    PYTHONPATH=src python tests/property/make_report_every_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core import ACOParams, BatchEngine
from repro.tsp import uniform_instance

ITERATIONS = 5
SEEDS = [11, 19]
INSTANCE = {"n": 16, "seed": 2024, "nn": 7}
OUT = Path(__file__).with_name("data") / "report_every_golden.json"


def pheromone_digest(pheromone) -> str:
    """sha256 of the pheromone stack's float64 bytes (C order)."""
    arr = np.ascontiguousarray(np.asarray(pheromone, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def make_engine(construction: int, pheromone: int) -> BatchEngine:
    """The report-every suite's engine for one kernel pair."""
    instance = uniform_instance(INSTANCE["n"], seed=INSTANCE["seed"])
    return BatchEngine(
        instance,
        [ACOParams(seed=s, nn=INSTANCE["nn"]) for s in SEEDS],
        construction=construction,
        pheromone=pheromone,
    )


def trajectory(construction: int, pheromone: int) -> dict:
    engine = make_engine(construction, pheromone)
    result = engine.run(ITERATIONS, report_every=1)
    return {
        "iteration_best_lengths": [
            [int(v) for v in r.iteration_best_lengths] for r in result.results
        ],
        "best_tours": [[int(c) for c in r.best_tour] for r in result.results],
        "pheromone_sha256": pheromone_digest(engine.state.pheromone),
    }


def main() -> None:
    meta = {"iterations": ITERATIONS, "seeds": SEEDS, "instance": INSTANCE}
    rows = ",\n".join(
        f'  "{c}x{p}": {json.dumps(trajectory(c, p), sort_keys=True)}'
        for c in range(1, 9)
        for p in range(1, 6)
    )
    OUT.parent.mkdir(exist_ok=True)
    # One line per kernel pair keeps the fixture readable in diffs.
    OUT.write_text(f'{{"meta": {json.dumps(meta)},\n "cases": {{\n{rows}\n}}}}\n')
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
