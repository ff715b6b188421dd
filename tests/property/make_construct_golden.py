"""Write the golden construction results ``test_construct_golden.py`` pins.

The fixture records what the task-based kernel
:func:`~repro.core.construction.taskbased.construct_exact_batch` (Table II
versions 1-6) built on a grid of generated cases:

* the full rule and candidate lists ``nn`` 3 / 8 / 30, at ``B`` 1 and 3,
  with heterogeneous rows (one instance per colony) and broadcast rows;
* a280 at B=4, nn=30 — the ``solve-mmas-ls-a280`` geometry, whose late
  steps almost all fall back to the best-choice rule;
* pcb442 at B=1, nn=300 — 300 candidates, past the 8-bit count width;
* a280 at B=8, nn=30 — 280 x 2240 draws, a request large enough that
  :class:`~repro.rng.streams.BlockedDraws` steps the darts one row per step;
* ant counts other than ``n`` and a generator holding more streams per
  colony than there are ants.

Every weight is strictly positive off the diagonal.  Each case builds twice
on one scratch arena (the second build reuses the first one's buffers and
continues its generator); per build the fixture keeps a sha256 of the
``(B, m, n + 1)`` int32 tours and the per-colony fallback counts.

The checked-in file was generated by the float-tabu kernel that preceded
the byte-tabu one, so the test proves the rewrite changed no tour.
Regenerating it from current code only re-pins whatever the code does now.

Run from the repository root::

    PYTHONPATH=src python tests/property/make_construct_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.backend import WorkBuffers
from repro.rng import ParkMillerLCG
from repro.tsp import uniform_instance
from repro.tsp.suite import load_instance

OUT = Path(__file__).with_name("data") / "construct_golden.json"

GRID_N = 40
NN_WIDTHS = (None, 3, 8, 30)
GRID_B = (1, 3)
#: named cases: instance (suite name or uniform size), B, nn, ants, streams
#: per colony (None = one per ant), broadcast rows
NAMED = {
    "a280-B4-nn30": ("a280", 4, 30, None, None, False),
    "pcb442-B1-nn300": ("pcb442", 1, 300, None, None, False),
    "a280-B8-nn30-blocked": ("a280", 8, 30, None, None, False),
    "n30-m12-full": (30, 2, None, 12, None, False),
    "n30-m45-nn8": (30, 2, 8, 45, None, True),
    "n24-spare-streams-nn8": (24, 2, 8, None, 31, False),
    "n24-spare-streams-full": (24, 2, None, 20, 29, True),
}
BUILDS = 2


def tours_digest(tours) -> str:
    """sha256 of the tours' int32 bytes (C order)."""
    arr = np.ascontiguousarray(np.asarray(tours, dtype=np.int32))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _choice(dist: np.ndarray, seed: int) -> np.ndarray:
    """``tau * eta^2`` with a random trail in ``[0.5, 1.5)``: positive off
    the diagonal, zero on it."""
    n = dist.shape[0]
    tau = np.random.default_rng(seed).uniform(0.5, 1.5, size=(n, n))
    eta = 1.0 / np.maximum(dist, 1).astype(np.float64)
    w = tau * eta * eta
    np.fill_diagonal(w, 0.0)
    return w


def _instance(spec, b: int):
    if isinstance(spec, str):
        return load_instance(spec)
    return uniform_instance(spec, seed=500 + b)


def _spec(name: str) -> tuple:
    if name in NAMED:
        return NAMED[name]
    layout, nn_key, b_key = name.split("-")
    nn = None if nn_key == "nnNone" else int(nn_key[2:])
    return GRID_N, int(b_key[1:]), nn, None, None, layout == "broadcast"


def case_inputs(name: str) -> dict:
    """The ``construct_exact_batch`` arguments of one named case (the
    generator is returned fresh; the caller owns its advance)."""
    inst_spec, B, nn, m, spc, broadcast = _spec(name)
    rows = 1 if broadcast or isinstance(inst_spec, str) else B
    insts = [_instance(inst_spec, b) for b in range(rows)]
    n = insts[0].n
    # Named suite instances share one geometry but carry per-colony trails,
    # like replicas; uniform cases are fully per-colony or fully broadcast.
    if isinstance(inst_spec, str):
        d = insts[0].distance_matrix()
        choice = np.stack([_choice(d, 70 + b) for b in range(B)])
    else:
        choice = np.stack(
            [_choice(i.distance_matrix(), 70 + b) for b, i in enumerate(insts)]
        )
    nn_list = None if nn is None else np.stack([i.nn_lists(nn) for i in insts])
    if choice.shape[0] != B:
        choice = np.broadcast_to(choice, (B, n, n))
    if nn_list is not None and nn_list.shape[0] != B:
        nn_list = np.broadcast_to(nn_list, (B, n, nn))
    m = n if m is None else m
    spc = m if spc is None else spc
    rng = ParkMillerLCG.from_seeds(spc, [900 + 13 * b for b in range(B)])
    return {"choice": choice, "nn_list": nn_list, "rng": rng, "B": B, "m": m, "n": n}


CASES = tuple(
    f"{layout}-nn{nn}-B{B}"
    for layout in ("hetero", "broadcast")
    for nn in NN_WIDTHS
    for B in GRID_B
) + tuple(NAMED)


def kernel_record(name: str) -> dict:
    """One case's builds under the current kernel."""
    from repro.core.construction.taskbased import construct_exact_batch

    args = case_inputs(name)
    work = WorkBuffers()
    builds = []
    for _ in range(BUILDS):
        tours, fallbacks = construct_exact_batch(**args, work=work)
        builds.append(
            {
                "tours_sha256": tours_digest(tours),
                "fallbacks": [int(v) for v in fallbacks],
            }
        )
    return {"builds": builds}


def main() -> None:
    meta = {"grid": {"n": GRID_N, "B": list(GRID_B)}, "builds": BUILDS}
    rows = ",\n".join(
        f'  "{name}": {json.dumps(kernel_record(name), sort_keys=True)}'
        for name in CASES
    )
    OUT.parent.mkdir(exist_ok=True)
    # One line per case keeps the fixture readable in diffs.
    OUT.write_text(f'{{"meta": {json.dumps(meta)},\n "cases": {{\n{rows}\n}}}}\n')
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
