"""Write the golden 2-opt results ``test_two_opt_golden.py`` pins.

The fixture records what the batched nn-restricted kernel
:func:`~repro.tsp.local_search.two_opt_batch` produced on a grid of
generated cases: heterogeneous rows (one instance per row) and broadcast
replica rows, candidate lists ``nn`` None / 3 / 7, ``max_passes``
None / 1 / 3, plus one tie-heavy lattice case (Manhattan distances on a
grid, so equal gains are everywhere) and one a280 case at B=4, nn=30.
Per case it keeps a sha256 of the final ``(B, n + 1)`` int32 tours, the
final lengths, the per-row exchange counts and the lockstep pass count.

It also records one engine run with local search on (a280, MMAS,
construction 6, B=2, 3 iterations, ``report_every=1``): each row's
iteration-best lengths and best tour.

The checked-in file was generated by the position-indexed kernel that
preceded the city-indexed one, so the test proves the rewrite changed no
move.  Regenerating it from current code only re-pins whatever the code
does now.

Run from the repository root::

    PYTHONPATH=src python tests/property/make_two_opt_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.tsp import uniform_instance
from repro.tsp.neighbors import nearest_neighbor_lists
from repro.tsp.suite import load_instance
from repro.tsp.tour import random_tour

OUT = Path(__file__).with_name("data") / "two_opt_golden.json"

GRID_N = 20
GRID_B = 3
NN_WIDTHS = (None, 3, 7)
MAX_PASSES = (None, 1, 3)
LATTICE = {"side": 5, "B": 3, "nn": 7}
A280 = {"B": 4, "nn": 30, "seed": 280}
ENGINE = {"instance": "a280", "replicas": 2, "iterations": 3, "seed": 7}


def tours_digest(tours) -> str:
    """sha256 of the tours' int32 bytes (C order)."""
    arr = np.ascontiguousarray(np.asarray(tours, dtype=np.int32))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def lattice_dist(side: int) -> np.ndarray:
    """Manhattan distances between the points of a ``side x side`` grid."""
    xy = np.stack(np.divmod(np.arange(side * side), side), axis=1)
    return np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2).astype(np.int64)


def _random_tours(B: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_tour(n, rng) for _ in range(B)])


def case_inputs(name: str) -> dict:
    """The ``two_opt_batch`` arguments of one named fixture case."""
    if name == "lattice":
        side, B, nn = LATTICE["side"], LATTICE["B"], LATTICE["nn"]
        d = lattice_dist(side)
        n = side * side
        return {
            "tours": _random_tours(B, n, seed=55),
            "dist": np.broadcast_to(d, (B, n, n)),
            "nn_list": np.broadcast_to(
                nearest_neighbor_lists(d, nn), (B, n, nn)
            ),
            "max_passes": None,
        }
    if name == "a280":
        B, nn = A280["B"], A280["nn"]
        inst = load_instance("a280")
        d, n = inst.distance_matrix(), inst.n
        return {
            "tours": _random_tours(B, n, seed=A280["seed"]),
            "dist": np.broadcast_to(d, (B, n, n)),
            "nn_list": np.broadcast_to(inst.nn_lists(nn), (B, n, nn)),
            "max_passes": None,
        }
    layout, nn_key, mp_key = name.split("-")
    nn = None if nn_key == "nnNone" else int(nn_key[2:])
    max_passes = None if mp_key == "mpNone" else int(mp_key[2:])
    B, n = GRID_B, GRID_N
    if layout == "hetero":
        insts = [uniform_instance(n, seed=300 + b) for b in range(B)]
        dist = np.stack([i.distance_matrix() for i in insts])
        nn_list = None if nn is None else np.stack([i.nn_lists(nn) for i in insts])
    else:
        inst = uniform_instance(n, seed=300)
        dist = np.broadcast_to(inst.distance_matrix(), (B, n, n))
        nn_list = (
            None if nn is None else np.broadcast_to(inst.nn_lists(nn), (B, n, nn))
        )
    return {
        "tours": _random_tours(B, n, seed=17 + (nn or 0)),
        "dist": dist,
        "nn_list": nn_list,
        "max_passes": max_passes,
    }


CASES = tuple(
    f"{layout}-nn{nn}-mp{mp}"
    for layout in ("hetero", "broadcast")
    for nn in NN_WIDTHS
    for mp in MAX_PASSES
) + ("lattice", "a280")


def kernel_record(name: str) -> dict:
    """One case's outcome under the current kernel."""
    from repro.tsp.local_search import two_opt_batch

    res = two_opt_batch(**case_inputs(name))
    return {
        "tours_sha256": tours_digest(res.tours),
        "lengths": [int(v) for v in res.lengths],
        "exchanges": [int(v) for v in res.exchanges],
        "passes": int(res.passes),
    }


def engine_record() -> dict:
    """The a280 MMAS + 2-opt engine run's per-row trajectory."""
    from repro.core import ACOParams, BatchEngine

    engine = BatchEngine.replicas(
        load_instance(ENGINE["instance"]),
        ACOParams(seed=ENGINE["seed"]),
        replicas=ENGINE["replicas"],
        variant="mmas",
        construction=6,
        local_search="2opt",
    )
    result = engine.run(ENGINE["iterations"], report_every=1)
    return {
        "iteration_best_lengths": [
            [int(v) for v in r.iteration_best_lengths] for r in result.results
        ],
        "best_tours": [[int(c) for c in r.best_tour] for r in result.results],
    }


def main() -> None:
    meta = {
        "grid": {"n": GRID_N, "B": GRID_B},
        "lattice": LATTICE,
        "a280": A280,
        "engine": ENGINE,
    }
    rows = ",\n".join(
        f'  "{name}": {json.dumps(kernel_record(name), sort_keys=True)}'
        for name in CASES
    )
    engine = json.dumps(engine_record(), sort_keys=True)
    OUT.parent.mkdir(exist_ok=True)
    # One line per case keeps the fixture readable in diffs.
    OUT.write_text(
        f'{{"meta": {json.dumps(meta)},\n "cases": {{\n{rows}\n}},\n'
        f' "engine": {engine}}}\n'
    )
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
