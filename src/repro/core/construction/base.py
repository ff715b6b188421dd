"""Tour-construction strategy interface.

All eight Table II variants implement :class:`TourConstruction`:

* :meth:`~TourConstruction.build_batch` — the functional kernel: one valid
  closed tour per ant for every colony of a
  :class:`~repro.core.batch.BatchColonyState` (a single colony is a batch
  of one), with one :class:`~repro.core.report.StageReport` per colony;
* :meth:`~TourConstruction.predict_stats` — the closed-form ledger for a
  problem size: the reports' ledgers, and the experiment harness's at
  sizes where a functional run is unnecessary.

The task-based variants (1-6) share the *exact* random-proportional rule
(they differ in where the data lives and how randoms are produced); the
shared construction loop lives in
:mod:`repro.core.construction.taskbased`.  The data-parallel variants (7-8)
replace the selection with the block-reduction "independent roulette" of the
paper's Figure 1 (:mod:`repro.core.construction.dataparallel`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.report import StageReport, cached_stage_reports
from repro.errors import ACOConfigError
from repro.rng.streams import DeviceRNG
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import Kernel, LaunchConfig

__all__ = [
    "TourConstruction",
    "BatchConstructionResult",
    "best_unvisited",
    "min_off_diagonal",
]


def best_unvisited(rows: np.ndarray, visited: np.ndarray, xp=np) -> np.ndarray:
    """ACOTSP's ``choose_best_next``: per row, the first city of maximal
    ``choice`` among the unvisited ones.

    ``rows`` are the ants' current ``choice`` rows and ``visited`` their
    boolean tabu rows, both ``(k, n)``.  Every construction rule falls back
    to this when its own selection has nothing to choose from: the
    task-based rules when their candidates carry no weight, I-Roulette
    (versions 7-8) when every unvisited product is ``0``.  An unvisited
    city always beats a visited one, even at weight ``0``.
    """
    return xp.argmax(xp.where(visited, -np.inf, rows), axis=1)


def min_off_diagonal(choice: np.ndarray, xp=np) -> float:
    """Smallest off-diagonal entry of a contiguous ``(B, n, n)`` stack,
    ``n >= 2``.

    An ant's current city is visited, so a diagonal entry never weighs an
    unvisited city: when this is positive, every unvisited weight is too
    and :func:`best_unvisited` can never be needed.  Past the first
    element, each run of ``n + 1`` flat entries is ``n`` off-diagonal ones
    and then a diagonal one.
    """
    B, n, _ = choice.shape
    off = choice.reshape(B, n * n)[:, 1:].reshape(B, n - 1, n + 1)[:, :, :n]
    return float(xp.min(off))


@dataclass
class BatchConstructionResult:
    """Functional output of a build over ``B`` independent colonies.

    Row ``b`` of every field depends only on colony ``b`` (its trails,
    its generator streams), never on how many rows share the batch: a
    one-row batch seeded like row ``b`` builds the same row.
    """

    tours: np.ndarray  # (B, m, n + 1) int32 closed tours
    reports: list[StageReport]  # one per colony
    fallback_steps: np.ndarray  # (B,) per-colony exhaustion counts


class TourConstruction(Kernel, abc.ABC):
    """Base class for the Table II tour-construction kernels.

    Class attributes identify the paper row: ``version`` (1-8), ``key``
    (stable registry id) and ``label`` (the row label as printed in the
    paper).  ``needs_choice_info`` tells the engine whether to run the
    Choice kernel first (version 1 famously does not, recomputing the
    heuristic on the fly); ``rng_kind`` selects the random stream the engine
    hands to :meth:`build_batch`.
    """

    version: int = 0
    key: str = ""
    label: str = ""
    needs_choice_info: bool = True
    rng_kind: str = "lcg"  # "lcg" | "curand"

    # ------------------------------------------------------------ interface

    @abc.abstractmethod
    def build_batch(
        self, bstate, rng: DeviceRNG, collect: bool = True
    ) -> BatchConstructionResult:
        """Construct tours for ``bstate.B`` colonies in one vectorized pass.

        ``bstate`` is a :class:`~repro.core.batch.BatchColonyState`; ``rng``
        must hold ``B * rng_streams(n, m)`` streams laid out colony-major
        (see :func:`repro.rng.make_batched_rng`).  Row ``b`` of the result is
        bit-identical to a one-row build of colony ``b`` seeded alike.

        ``collect=False`` skips per-colony report materialization (the
        ``report_every=K`` run loop only reports at K-boundaries);
        the returned ``reports`` list is then empty.  The tours themselves
        are identical either way.
        """

    @abc.abstractmethod
    def predict_stats(
        self,
        n: int,
        m: int,
        nn: int,
        device: DeviceSpec,
        *,
        fallback_steps: float = 0.0,
    ) -> tuple[KernelStats, LaunchConfig]:
        """Closed-form ledger + dominant launch shape for a problem size.

        ``fallback_steps`` injects the (stochastic) number of candidate-list
        exhaustions for the nn-list rules; pass a measured value or a model
        such as :func:`expected_fallback_steps`.
        """

    # -------------------------------------------------------------- helpers

    def rng_streams(self, n: int, m: int) -> int:
        """Random streams the kernel needs (task-based: one per ant-thread;
        the data-parallel kernels override with one per (ant, city))."""
        return m

    def _batch_reports(self, bstate, fallbacks) -> list[StageReport]:
        """Per-colony construction reports; rows and boundaries with equal
        fallback counts share one closed-form ledger (the stats are pure
        functions of the problem size and the fallback count)."""
        return cached_stage_reports(
            bstate, self, (float(fb) for fb in fallbacks), "construction",
            self.key,
            lambda fb: self.predict_stats(
                bstate.n, bstate.m, bstate.nn, bstate.device, fallback_steps=fb
            ),
        )

    @staticmethod
    def _choice_info(bstate) -> np.ndarray:
        """``bstate.choice_info``, which the Choice kernel must have filled."""
        if bstate.choice_info is None:
            raise ACOConfigError(
                "construction requires choice_info; run the Choice kernel "
                "first (the engine does this automatically)"
            )
        return bstate.choice_info

    def _validate_batch_rng(self, rng: DeviceRNG, B: int, n: int, m: int) -> None:
        need = B * self.rng_streams(n, m)
        if rng.n_streams != need:
            raise ACOConfigError(
                f"batched {self.key} construction needs exactly {need} rng "
                f"streams for B={B} colonies, got {rng.n_streams}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} v{self.version} {self.label!r}>"


#: Fitted constant of the fallback model: fallbacks per ant per iteration
#: ≈ FALLBACK_COEFF * n / nn.  Measured functionally on the synthetic suite
#: (att48..d657, nn ∈ {10, 20, 30, 40}): the product ``phi * nn`` sits in
#: 0.60-0.64 across the whole grid (tests/core/test_construction_fallback.py
#: re-validates the band).
FALLBACK_COEFF = 0.62


def expected_fallback_steps(n: int, m: int, nn: int) -> float:
    """Expected candidate-list exhaustion count per iteration.

    An exhaustion happens when all ``nn`` candidates of the current city are
    already visited, forcing ACOTSP's ``choose_best_next`` full scan.
    Functional measurement across instance sizes and list widths shows the
    per-ant count is very close to ``0.62 * n / nn``::

        E[fallbacks] ≈ m * 0.62 * n / nn   (clipped to the step count)

    Exhaustions grow with the tour length (more opportunities to stand in a
    depleted neighbourhood) and shrink with the candidate width.
    """
    if n <= 1:
        return 0.0
    per_ant = min(float(n - 1), FALLBACK_COEFF * float(n) / float(nn))
    return float(m) * per_ant
