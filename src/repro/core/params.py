"""Ant System parameterisation.

The paper sets parameters "according with the values recommended in [Dorigo &
Stützle's book]": alpha = 1, beta = 2, rho = 0.5, and — pivotal for the
study — ``m = n`` ants.  The candidate-list width is nn = 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ACOConfigError

__all__ = ["ACOParams", "MAX_ANTS"]

#: largest explicit colony size ``ACOParams`` admits: above every ``m = n``
#: the paper runs (pr2392), so that a request cannot ask for per-ant
#: ``(B, m, n)`` tables of unbounded size
MAX_ANTS = 4096


@dataclass(frozen=True)
class ACOParams:
    """Immutable Ant System parameters.

    Attributes
    ----------
    alpha:
        Pheromone-trail exponent of the random proportional rule (paper eq. 1).
    beta:
        Heuristic exponent.
    rho:
        Evaporation rate in (0, 1] (paper eq. 2).
    n_ants:
        Colony size, at most :data:`MAX_ANTS`; ``None`` means the paper's
        ``m = n``.
    nn:
        Nearest-neighbour candidate-list width (paper: 30; the book
        recommends 15-40).
    seed:
        Master RNG seed.
    eta_shift:
        ACOTSP's heuristic regulariser: ``eta = 1 / (d + eta_shift)``.

    Examples
    --------
    >>> p = ACOParams()
    >>> p.resolve_ants(100)
    100
    >>> ACOParams(n_ants=64).resolve_ants(100)
    64
    """

    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.5
    n_ants: int | None = None
    nn: int = 30
    seed: int = 1
    eta_shift: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ACOConfigError(f"rho must lie in (0, 1], got {self.rho}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ACOConfigError(
                f"alpha and beta must be >= 0, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.n_ants is not None and self.n_ants < 1:
            raise ACOConfigError(f"n_ants must be >= 1, got {self.n_ants}")
        if self.n_ants is not None and self.n_ants > MAX_ANTS:
            raise ACOConfigError(f"n_ants must be <= {MAX_ANTS}, got {self.n_ants}")
        if self.nn < 1:
            raise ACOConfigError(f"nn must be >= 1, got {self.nn}")
        if self.eta_shift <= 0.0:
            raise ACOConfigError(f"eta_shift must be > 0, got {self.eta_shift}")
        # Every eta^beta is at most (1 / eta_shift)^beta, the diagonal's
        # value: past float64's range the diagonal overflows (and turns
        # the choice table into NaN); at 0 every entry underflows.
        try:
            eta_beta_max = (1.0 / self.eta_shift) ** self.beta
        except OverflowError:
            eta_beta_max = math.inf
        if not 0.0 < eta_beta_max < math.inf:
            raise ACOConfigError(
                "(1 / eta_shift) ** beta must be a positive finite float64, "
                f"got beta={self.beta}, eta_shift={self.eta_shift}"
            )
        if not 0 <= self.seed < 2**63:
            # Seeds are hashed as unsigned 64-bit words (one generator also
            # derives seed + 5); outside this range stream setup overflows.
            raise ACOConfigError(f"seed must lie in [0, 2**63), got {self.seed}")

    def resolve_ants(self, n_cities: int) -> int:
        """Colony size for an ``n_cities`` instance (paper default: m = n)."""
        return self.n_ants if self.n_ants is not None else n_cities

    def resolve_nn(self, n_cities: int) -> int:
        """Candidate-list width clipped to ``n_cities - 1``."""
        return min(self.nn, n_cities - 1)
