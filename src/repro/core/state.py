"""Colony state: one colony's row of a :class:`~repro.core.batch.BatchColonyState`.

Every kernel runs on the batch state; a single colony is a batch of one.
:class:`ColonyState` is the ``B = 1`` view the engine views
(:class:`~repro.core.colony.AntSystem` and the ACS/MMAS views) expose as
``.state``: the row's distance and pheromone matrices and
``choice_info``, plus its iteration-level bookkeeping (last tours, best
tour so far).  Build it with
:meth:`~repro.core.batch.BatchColonyState.colony_view` and refresh it with
:meth:`~repro.core.batch.BatchColonyState.sync_colony_view`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ColonyState"]


@dataclass
class ColonyState:
    """One batch row's data, as views of the batch arrays.

    The pheromone matrix is a writable view of the row, so engine updates
    surface immediately; the per-iteration outputs are re-pointed by
    :meth:`~repro.core.batch.BatchColonyState.sync_colony_view`.
    """

    n: int
    m: int
    dist: np.ndarray  # (n, n) int64 distances
    pheromone: np.ndarray  # (n, n) float64 tau
    tau0: float  # the ACOTSP trail start m / C_nn
    choice_info: np.ndarray | None = None  # (n, n) float64, refreshed per iter
    tours: np.ndarray | None = None  # (m, n + 1) int32, last iteration
    lengths: np.ndarray | None = None  # (m,) int64, last iteration
    iteration: int = 0
    best_tour: np.ndarray | None = field(default=None, repr=False)
    best_length: int | None = None
