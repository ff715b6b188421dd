"""Write the golden solo-path results ``test_solo_golden.py`` pins.

The fixture records what the solo paths proved, taken from the solo code
itself (the frozen ``ReferenceAntColonySystem`` /
``ReferenceMaxMinAntSystem`` loops and the per-tile
``DataParallelConstruction.build``) before that code was deleted:

* **ACS / MMAS trajectories** of the frozen solo loops
  (``ReferenceAntColonySystem`` / ``ReferenceMaxMinAntSystem``) for every
  case of ``test_variant_parity.py``: the grid (n in {14, 18} x row seeds
  {3, 4, 5, 6, 11, 12, 13, 14}, nn = 7, 6 iterations), the B=1 view case,
  the MMAS stagnation case (20 iterations, ``reinit_branching=2.5``) and
  the three heterogeneous n = 15 rows, plus one 20-iteration MMAS run
  (``mmas-long``, recorded later from the same loop in git history: in
  the 6-iteration runs few deposited edges decay below ``tau_min``, so few
  of them tell a clamp-before-deposit reorder apart).  Each keeps the
  iteration-best lengths, the best tour and length, and a sha256 of the
  final pheromone; MMAS cases also keep ``trail_reinitialisations``.
* **The tiled data-parallel build** (version 8 at tile 32, so the solo
  kernel elects per-tile winners): a tour sha256 for each of three
  successive builds on n in {33, 48, 64, 300} x seeds {2, 17}, and the
  tours and fallback count of a build whose products tie at ``+0.0``.
* **Measured data-parallel ledgers**: the ``KernelStats`` and launch the
  solo build recorded step by step, for versions 7 and 8 at tiles 32 /
  64 / 128 on a 120-city grid (C1060), the heuristic tile rule at tile 32,
  and two single-tile sizes on the M2050.

The checked-in file was recorded from that solo code, so the test proves
the engine's batch kernels compute what it did.  Regenerating it runs the
engine (:func:`engine_record`) and only re-pins whatever the code does
now: do it for an intended numerical change, never to make a refactor pass.

Run from the repository root::

    PYTHONPATH=src python tests/property/make_solo_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.core import ACOParams, BatchEngine
from repro.core.construction import make_construction
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.tsp import grid_instance, uniform_instance

OUT = Path(__file__).with_name("data") / "solo_golden.json"

VARIANTS = ("acs", "mmas")

#: the parity grid: instance sizes x master seeds, rows b = 0..3 seeded
#: ``seed + b``
ITERATIONS = 6
SIZES = (14, 18)
SEEDS = (3, 11)
ROW_SEEDS = tuple(s + b for s in SEEDS for b in range(4))

STAGNATION_ITERATIONS = 20
STAGNATION_BRANCHING = 2.5
LONG_ITERATIONS = 20
HETERO_ITERATIONS = 4
HETERO_SEEDS = (51, 52, 53)

#: tiled data-parallel builds: sizes x seeds, three builds each
TILED_SIZES = (33, 48, 64, 300)
TILED_SEEDS = (2, 17)
TILED_BUILDS = 3

#: measured ledgers: name -> (version, tile, tile_rule, device, instance)
LEDGERS = {
    **{
        f"ledger-v{v}-tile{t}": (v, t, "product", "c1060", "grid120")
        for v in (7, 8)
        for t in (32, 64, 128)
    },
    "ledger-v7-tile32-heuristic": (7, 32, "heuristic", "c1060", "grid120"),
    "ledger-v7-tile32-n8-m2050": (7, 32, "product", "m2050", 8),
    "ledger-v7-tile32-n30-m2050": (7, 32, "product", "m2050", 30),
}
DEVICES = {"c1060": TESLA_C1060, "m2050": TESLA_M2050}


def grid_case(variant: str, n: int, seed: int) -> str:
    return f"{variant}-n{n}-s{seed}"


CASES = (
    tuple(
        grid_case(v, n, s) for v in VARIANTS for n in SIZES for s in ROW_SEEDS
    )
    + tuple(f"{v}-view" for v in VARIANTS)
    + ("mmas-stagnation", "mmas-long")
    + tuple(f"{v}-hetero-{b}" for v in VARIANTS for b in range(3))
    + tuple(f"tiled-n{n}-s{s}" for n in TILED_SIZES for s in TILED_SEEDS)
    + ("tiled-zero-choice",)
    + tuple(LEDGERS)
)


def digest(arr) -> str:
    """sha256 of an array's bytes in C order."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# ----------------------------------------------------------- trajectories


def grid_instance_for(n: int):
    return uniform_instance(n, seed=100 + n)


def hetero_rows():
    """The heterogeneous batch: distinct equal-n instances, per-row params."""
    instances = [uniform_instance(15, seed=s) for s in HETERO_SEEDS]
    params = [
        ACOParams(seed=5, nn=7),
        ACOParams(seed=9, nn=7, rho=0.2),
        ACOParams(seed=2, nn=7, beta=3.0),
    ]
    return instances, params


def trajectory_spec(name: str):
    """``(variant, instance, params, iterations, reinit_branching)``."""
    variant, kind, *rest = name.split("-")
    if kind == "view":
        return variant, uniform_instance(16, seed=2024), ACOParams(seed=7, nn=7), ITERATIONS, None
    if kind == "stagnation":
        params = ACOParams(seed=12, nn=7, rho=0.9, beta=5.0)
        return (
            variant, uniform_instance(16, seed=99), params,
            STAGNATION_ITERATIONS, STAGNATION_BRANCHING,
        )
    if kind == "long":
        return variant, uniform_instance(16, seed=1016), ACOParams(seed=7, nn=7), LONG_ITERATIONS, None
    if kind == "hetero":
        instances, params = hetero_rows()
        b = int(rest[0])
        return variant, instances[b], params[b], HETERO_ITERATIONS, None
    n = int(kind[1:])
    seed = int(rest[0][1:])
    return variant, grid_instance_for(n), ACOParams(seed=seed, nn=7), ITERATIONS, None


def trajectory_record(variant, result, pheromone, reinits) -> dict:
    """One run's recorded outcome (MMAS keeps its reset count too)."""
    record = {
        "iteration_best_lengths": [int(v) for v in result.iteration_best_lengths],
        "best_length": int(result.best_length),
        "best_tour": [int(c) for c in result.best_tour],
        "pheromone_sha256": digest(np.asarray(pheromone, dtype=np.float64)),
    }
    if variant == "mmas":
        record["trail_reinitialisations"] = int(reinits)
    return record


def engine_row_record(variant, engine, batch, b: int) -> dict:
    """Row ``b`` of a finished :class:`BatchEngine` run as a record."""
    reinits = 0
    if variant == "mmas":
        reinits = int(engine.backend.to_host(engine.variant.update.reinit_count)[b])
    return trajectory_record(
        variant, batch.results[b], engine.state.pheromone[b], reinits
    )


def view_record(name: str) -> dict:
    """A trajectory case through the engine's B=1 view."""
    from repro.core.acs import AntColonySystem
    from repro.core.mmas import MaxMinAntSystem

    variant, instance, params, iterations, branching = trajectory_spec(name)
    if variant == "acs":
        view = AntColonySystem(instance, params)
        result = view.run(iterations)
        reinits = 0
    else:
        view = MaxMinAntSystem(instance, params)
        result = view.run(iterations, reinit_branching=branching)
        reinits = result.trail_reinitialisations
    return trajectory_record(variant, result, view.state.pheromone, reinits)


# ------------------------------------------------------- data-parallel


def tiled_engine(n: int, seed: int) -> BatchEngine:
    """A B=1 version-8 engine at tile 32 (really tiled for n > 32) with
    its ``choice_info`` computed."""
    engine = BatchEngine(
        uniform_instance(n, seed=n), ACOParams(seed=seed, nn=10),
        construction=8, construction_options={"tile": 32},
    )
    assert engine.construction.tile_width(engine.state.device, n) < n
    engine.choice_kernel.run_batch(engine.state, collect=False)
    return engine


def zero_choice_engine() -> BatchEngine:
    """Cities 20+ always tie at ``+0.0``; once an ant has visited the first
    20, its whole product row is zero."""
    engine = tiled_engine(48, 5)
    engine.state.choice_info[:, :, 20:] = 0.0
    return engine


def ledger_spec(name: str):
    """``(strategy, instance, params, device)`` of a ledger case."""
    version, tile, rule, device, inst = LEDGERS[name]
    strategy = make_construction(version, tile=tile, tile_rule=rule)
    if inst == "grid120":
        return strategy, grid_instance(120, seed=12001), ACOParams(seed=3, nn=10), DEVICES[device]
    return strategy, uniform_instance(inst, seed=inst), ACOParams(seed=inst, nn=5), DEVICES[device]


def predicted_ledger(name: str) -> dict:
    """A ledger case's closed form (``predict_stats``)."""
    strategy, instance, params, device = ledger_spec(name)
    n = instance.n
    stats, launch = strategy.predict_stats(
        n, params.resolve_ants(n), params.resolve_nn(n), device
    )
    return {
        "stats": stats.as_dict(),
        "launch": {f.name: getattr(launch, f.name) for f in fields(launch)},
    }


def engine_record(name: str) -> dict:
    """One case recomputed by the engine's batch kernels."""
    if name.startswith(VARIANTS):
        return view_record(name)
    if name == "tiled-zero-choice":
        engine = zero_choice_engine()
        res = engine.construction.build_batch(engine.state, engine.rng, collect=False)
        return {
            "tours": res.tours[0].tolist(),
            "fallback_steps": int(res.fallback_steps[0]),
        }
    if name.startswith("tiled-"):
        n_key, s_key = name.split("-")[1:]
        engine = tiled_engine(int(n_key[1:]), int(s_key[1:]))
        build = engine.construction.build_batch
        return {
            "tours_sha256": [
                digest(build(engine.state, engine.rng, collect=False).tours[0])
                for _ in range(TILED_BUILDS)
            ]
        }
    return predicted_ledger(name)


def main() -> None:
    meta = {
        "iterations": ITERATIONS,
        "sizes": list(SIZES),
        "row_seeds": list(ROW_SEEDS),
        "tiled_builds": TILED_BUILDS,
    }
    rows = ",\n".join(
        f'  "{name}": {json.dumps(engine_record(name), sort_keys=True)}'
        for name in CASES
    )
    OUT.parent.mkdir(exist_ok=True)
    # One line per case keeps the fixture readable in diffs.
    OUT.write_text(f'{{"meta": {json.dumps(meta)},\n "cases": {{\n{rows}\n}}}}\n')
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
