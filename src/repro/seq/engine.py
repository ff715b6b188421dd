"""The sequential Ant System engine (ACOTSP port, instrumented).

Algorithmically this follows Dorigo & Stützle's reference implementation:

* ants are placed on random starting cities,
* each construction step applies the *random proportional rule* (paper
  eq. 1) — restricted to the nearest-neighbour candidate list in
  ``mode="nnlist"`` with a best-``choice_info`` fallback once the list is
  exhausted, or over all unvisited cities in ``mode="full"``,
* after construction, pheromone evaporates by ``(1 - rho)`` everywhere
  (eq. 2) and every ant deposits ``1/C_k`` on its tour's edges, symmetrically
  (eqs. 3-4).

The implementation is vectorised **across ants** (all m ants advance one step
per inner iteration) — numerically identical to per-ant loops because ants
only interact between iterations, and orders of magnitude faster in numpy —
while the op ledger records what the equivalent scalar C program executes.

Closed-form predictors (``predict_*``) mirror the measured ledgers; the test
suite asserts they agree exactly, and the experiment harness uses them for
instance sizes where a functional run is unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ACOConfigError
from repro.rng import ParkMillerLCG
from repro.seq.counts import CpuOps
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import nearest_neighbor_tour, tour_length, tour_lengths

__all__ = [
    "SequentialAntSystem",
    "IterationResult",
    "predict_construction_ops_for",
    "predict_update_ops_for",
]


def predict_construction_ops_for(
    n: int, m: int, nn: int, mode: str, *, fallback_steps: float = 0.0
) -> CpuOps:
    """Closed-form ledger of one sequential construction pass.

    ``fallback_steps`` is the stochastic count of candidate-list exhaustions
    (only meaningful for ``mode="nnlist"``); inject a measured value or the
    model from :func:`repro.core.construction.expected_fallback_steps`.
    """
    if mode not in _MODES:
        raise ACOConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    nf, mf = float(n), float(m)
    steps = nf - 1.0
    width = float(nn) if mode == "nnlist" else nf
    # Both rules touch cache-resident working sets per step: the full rule
    # streams whole choice rows; the nn rule gathers within one row (a few
    # KB) and pokes the ant's own tabu array — both classified streaming.
    # The genuinely cache-hostile CPU references live in the pheromone
    # deposit (see predict_update_ops_for).
    ops = CpuOps(
        arith_ops=mf + steps * (2.0 * mf * width + mf),
        mem_seq_refs=steps * 2.0 * mf * width,
        branch_ops=steps * mf * width,
        rng_samples=mf + steps * mf,
    )
    if mode == "nnlist" and fallback_steps:
        # the fallback scans the full choice row sequentially
        ops.fallback_steps = float(fallback_steps)
        ops.mem_seq_refs += 2.0 * fallback_steps * nf
        ops.arith_ops += fallback_steps * nf
        ops.branch_ops += fallback_steps * nf
    return ops


#: Last-level cache assumed for the sequential machine (a paper-era Xeon).
#: Drives the update's scattered-reference classification below.
CPU_LLC_BYTES: float = 4 * 1024 * 1024


def predict_update_ops_for(n: int, m: int) -> CpuOps:
    """Closed-form ledger of one sequential pheromone update.

    The deposit's read-modify-writes land at tour-dependent addresses all
    over the ``8 n^2``-byte pheromone matrix.  While the matrix fits the
    last-level cache these are cheap hits; once it outgrows the cache nearly
    every RMW misses.  The ledger splits the deposit refs between the
    streaming and scattered classes with miss probability
    ``min(1, 8 n^2 / LLC)`` — this is what makes the paper's Figure 5
    speed-up keep growing "linearly" through pr1002 instead of saturating.
    """
    nf, mf = float(n), float(m)
    n2 = nf * nf
    deposit_refs = mf * 4.0 * nf  # RMW both triangle cells per edge (2 refs each)
    miss_prob = min(1.0, 8.0 * n2 / CPU_LLC_BYTES)
    return CpuOps(
        # evaporation: one multiply per cell; deposit: 1/C_k + 2 adds/edge
        arith_ops=n2 + mf * (1.0 + 2.0 * nf),
        # evaporation sweeps the matrix sequentially; cached deposit refs
        # price like streaming hits.
        mem_seq_refs=2.0 * n2 + deposit_refs * (1.0 - miss_prob),
        mem_rand_refs=deposit_refs * miss_prob,
    )

_MODES = ("nnlist", "full")


@dataclass
class IterationResult:
    """Outcome of one sequential AS iteration."""

    tours: np.ndarray  # (m, n + 1) int32 closed tours
    lengths: np.ndarray  # (m,) int64 tour lengths
    ops: CpuOps  # work executed this iteration
    best_index: int  # index of the iteration-best ant

    @property
    def best_length(self) -> int:
        return int(self.lengths[self.best_index])


class SequentialAntSystem:
    """Instrumented sequential Ant System for the symmetric TSP.

    Parameters
    ----------
    instance:
        TSP instance.
    alpha, beta:
        Pheromone / heuristic exponents of the proportional rule.
    rho:
        Evaporation rate in (0, 1].
    n_ants:
        Colony size; the paper (following the book) uses ``m = n``.
    nn:
        Candidate-list width for ``mode="nnlist"`` (paper: 30).
    seed:
        Master seed for the Park-Miller streams.
    eta_shift:
        ACOTSP's ``1/(d + 0.1)`` heuristic regulariser.

    Examples
    --------
    >>> from repro.tsp import uniform_instance
    >>> inst = uniform_instance(30, seed=7)
    >>> ants = SequentialAntSystem(inst, seed=3)
    >>> res = ants.run_iteration(mode="nnlist")
    >>> res.tours.shape
    (30, 31)
    """

    def __init__(
        self,
        instance: TSPInstance,
        *,
        alpha: float = 1.0,
        beta: float = 2.0,
        rho: float = 0.5,
        n_ants: int | None = None,
        nn: int = 30,
        seed: int = 1,
        eta_shift: float = 0.1,
    ) -> None:
        if not 0.0 < rho <= 1.0:
            raise ACOConfigError(f"rho must lie in (0, 1], got {rho}")
        if alpha < 0 or beta < 0:
            raise ACOConfigError(f"alpha/beta must be >= 0, got {alpha}/{beta}")
        self.instance = instance
        self.n = instance.n
        self.m = int(n_ants) if n_ants is not None else self.n
        if self.m < 1:
            raise ACOConfigError(f"n_ants must be >= 1, got {self.m}")
        self.nn = min(int(nn), self.n - 1)
        if self.nn < 1:
            raise ACOConfigError(f"nn must be >= 1, got {nn}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.rho = float(rho)

        self.dist = instance.distance_matrix()
        self.eta = instance.heuristic_matrix(shift=eta_shift)
        self.nn_list = instance.nn_lists(self.nn)

        # tau0 = m / C_nn, ACOTSP's Ant System initialisation.
        c_nn = tour_length(nearest_neighbor_tour(self.dist), self.dist)
        self.tau0 = self.m / float(c_nn)
        self.pheromone = np.full((self.n, self.n), self.tau0, dtype=np.float64)
        np.fill_diagonal(self.pheromone, 0.0)

        self.rng = ParkMillerLCG(n_streams=self.m, seed=seed)
        self.best_tour: np.ndarray | None = None
        self.best_length: int | None = None
        self.iterations_run = 0

    # ------------------------------------------------------------ choice info

    def compute_choice_info(self, ops: CpuOps | None = None) -> np.ndarray:
        """``choice_info = tau^alpha * eta^beta`` (n x n), zero diagonal."""
        choice = np.power(self.pheromone, self.alpha) * np.power(self.eta, self.beta)
        np.fill_diagonal(choice, 0.0)
        if ops is not None:
            ops.merge(self.predict_choice_ops(self.n))
        return choice

    @staticmethod
    def predict_choice_ops(n: int) -> CpuOps:
        """Closed-form ledger of the choice-info pass."""
        n2 = float(n) * n
        return CpuOps(
            arith_ops=n2,  # one multiply per cell
            mem_seq_refs=3.0 * n2,  # read tau, read eta, write choice
            pow_calls=2.0 * n2,
        )

    # ---------------------------------------------------------- construction

    def construct_tours(
        self, choice: np.ndarray, mode: str = "nnlist", ops: CpuOps | None = None
    ) -> np.ndarray:
        """Build one closed tour per ant under the selected decision rule.

        Returns ``(m, n + 1)`` ``int32`` closed tours.  When ``ops`` is given,
        the executed work is accumulated into it.
        """
        if mode not in _MODES:
            raise ACOConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        n, m = self.n, self.m
        local = CpuOps()

        tours = np.empty((m, n + 1), dtype=np.int32)
        visited = np.zeros((m, n), dtype=bool)
        ant_idx = np.arange(m)

        # Random initial placement (ACOTSP: (long)(ran01 * n)).
        start = np.minimum((self.rng.uniform() * n).astype(np.int64), n - 1)
        local.rng_samples += m
        local.arith_ops += m
        tours[:, 0] = start
        visited[ant_idx, start] = True
        cur = start.astype(np.int64)

        for step in range(1, n):
            if mode == "nnlist":
                cur = self._step_nnlist(choice, cur, visited, tours, step, local)
            else:
                cur = self._step_full(choice, cur, visited, tours, step, local)

        tours[:, n] = tours[:, 0]
        if ops is not None:
            ops.merge(local)
        return tours

    @staticmethod
    def _roulette_pick(
        weights: np.ndarray, sums: np.ndarray, darts: np.ndarray
    ) -> np.ndarray:
        """Vectorised roulette: index per row of ``weights`` with mass ``sums``.

        Rows must have ``sums > 0``; ``darts`` are uniforms in [0, 1).  Uses
        the cumulative-sum + comparison idiom; the first index whose
        cumulative weight reaches the dart is selected, and that index always
        carries positive weight.
        """
        r = darts * sums
        cum = np.cumsum(weights, axis=1)
        idx = (cum < r[:, None]).sum(axis=1)
        return np.minimum(idx, weights.shape[1] - 1)

    def _step_nnlist(
        self,
        choice: np.ndarray,
        cur: np.ndarray,
        visited: np.ndarray,
        tours: np.ndarray,
        step: int,
        ops: CpuOps,
    ) -> np.ndarray:
        n, m, nn = self.n, self.m, self.nn
        ant_idx = np.arange(m)

        cand = self.nn_list[cur]  # (m, nn) candidate cities
        w = choice[cur[:, None], cand]  # gather choice values
        w = np.where(visited[ant_idx[:, None], cand], 0.0, w)
        sums = w.sum(axis=1)

        # Ledger: per ant — nn gathers of choice + nn tabu reads; nn masked
        # multiplies + nn accumulate adds; nn tabu branches; one dart.
        ops.mem_seq_refs += 2.0 * m * nn
        ops.arith_ops += 2.0 * m * nn + m
        ops.branch_ops += float(m) * nn
        ops.rng_samples += m

        # One dart per ant per step; fallback ants discard theirs.  Drawing
        # unconditionally keeps the ledger closed-form and the streams in
        # lock-step with the ledger.
        darts = self.rng.uniform()
        nxt = np.empty(m, dtype=np.int64)
        alive = sums > 0.0
        if np.any(alive):
            rows = np.nonzero(alive)[0]
            pick = self._roulette_pick(w[rows], sums[rows], darts[rows])
            nxt[rows] = cand[rows, pick]

        dead = np.nonzero(~alive)[0]
        if dead.size:
            # Candidate list exhausted: ACOTSP's choose_best_next over all
            # unvisited cities by choice_info value.
            sub = np.where(visited[dead], -np.inf, choice[cur[dead]])
            nxt[dead] = np.argmax(sub, axis=1)
            ops.fallback_steps += float(dead.size)
            ops.mem_seq_refs += 2.0 * dead.size * n
            ops.arith_ops += float(dead.size) * n
            ops.branch_ops += float(dead.size) * n

        visited[ant_idx, nxt] = True
        tours[:, step] = nxt
        return nxt

    def _step_full(
        self,
        choice: np.ndarray,
        cur: np.ndarray,
        visited: np.ndarray,
        tours: np.ndarray,
        step: int,
        ops: CpuOps,
    ) -> np.ndarray:
        n, m = self.n, self.m
        ant_idx = np.arange(m)

        w = np.where(visited, 0.0, choice[cur])  # (m, n)
        sums = w.sum(axis=1)
        # choice_info is strictly positive off-diagonal, so any unvisited city
        # keeps the row mass positive until the tour completes.
        darts = self.rng.uniform()
        nxt = self._roulette_pick(w, sums, darts)

        ops.mem_seq_refs += 2.0 * m * n
        ops.arith_ops += 2.0 * m * n + m
        ops.branch_ops += float(m) * n
        ops.rng_samples += m

        visited[ant_idx, nxt] = True
        tours[:, step] = nxt
        return nxt

    # ------------------------------------------------------ pheromone update

    def update_pheromone(
        self, tours: np.ndarray, lengths: np.ndarray, ops: CpuOps | None = None
    ) -> None:
        """Evaporate then deposit, in place (paper eqs. 2-4, symmetric)."""
        self.pheromone *= 1.0 - self.rho

        frm = tours[:, :-1].astype(np.int64)
        to = tours[:, 1:].astype(np.int64)
        deltas = (1.0 / lengths.astype(np.float64))[:, None]
        deposit = np.broadcast_to(deltas, frm.shape).ravel()
        flat_fw = (frm * self.n + to).ravel()
        flat_bw = (to * self.n + frm).ravel()
        flat_tau = self.pheromone.reshape(-1)
        np.add.at(flat_tau, flat_fw, deposit)
        np.add.at(flat_tau, flat_bw, deposit)

        if ops is not None:
            ops.merge(self.predict_update_ops())

    def predict_update_ops(self) -> CpuOps:
        """Closed-form ledger of one pheromone update (see module function
        :func:`predict_update_ops_for`)."""
        return predict_update_ops_for(self.n, self.m)

    # -------------------------------------------------------------- iteration

    def run_iteration(self, mode: str = "nnlist") -> IterationResult:
        """One full AS iteration: choice info, construction, update."""
        ops = CpuOps()
        choice = self.compute_choice_info(ops)
        tours = self.construct_tours(choice, mode=mode, ops=ops)
        lengths = tour_lengths(tours, self.dist)
        self.update_pheromone(tours, lengths, ops)
        best = int(np.argmin(lengths))
        if self.best_length is None or lengths[best] < self.best_length:
            self.best_length = int(lengths[best])
            self.best_tour = tours[best].copy()
        self.iterations_run += 1
        return IterationResult(tours=tours, lengths=lengths, ops=ops, best_index=best)

    def run(self, iterations: int, mode: str = "nnlist") -> list[IterationResult]:
        """Run several iterations, returning their results in order."""
        if iterations < 1:
            raise ACOConfigError(f"iterations must be >= 1, got {iterations}")
        return [self.run_iteration(mode=mode) for _ in range(iterations)]
