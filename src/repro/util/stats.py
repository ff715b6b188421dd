"""Statistics helpers used by the experiment harness and shape checks.

The reproduction promises *shape* agreement with the paper rather than
absolute timing parity, so the primitives here are the ones shape checks
need: rank correlations between version orderings, relative errors in log
space, monotonicity fractions for trend assertions, and crossover points of
speed-up curves.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "log_ratio",
    "spearman_rank_correlation",
    "monotone_fraction",
    "crossover_index",
]


def log_ratio(measured: float, reference: float) -> float:
    """Natural-log ratio ``ln(measured / reference)``; symmetric error metric."""
    if measured <= 0.0 or reference <= 0.0:
        raise ValueError("log_ratio requires strictly positive operands")
    return float(np.log(measured / reference))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), handling ties the way Spearman's rho expects."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1, dtype=np.float64)
    # Average the ranks of tied groups.
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            avg = ranks[order[i : j + 1]].mean()
            ranks[order[i : j + 1]] = avg
        i = j + 1
    return ranks


def spearman_rank_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman's rho between two equal-length sequences.

    Used to assert that the *ordering* of kernel versions produced by the
    model matches the ordering in the paper's tables (rho == 1.0 means the
    orderings agree exactly).
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman requires two 1-D sequences of equal length")
    if x.size < 2:
        raise ValueError("spearman requires at least two observations")
    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx @ rx) * (ry @ ry)))
    if denom == 0.0:
        return 1.0 if np.allclose(rx, ry) else 0.0
    return float((rx @ ry) / denom)


def monotone_fraction(values: Sequence[float], *, increasing: bool = True) -> float:
    """Fraction of consecutive pairs that move in the expected direction.

    1.0 means strictly monotone; used for trend assertions like "the
    scatter-to-gather slow-down grows with the instance size".
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("monotone_fraction requires at least two values")
    diffs = np.diff(arr)
    good = diffs > 0 if increasing else diffs < 0
    return float(np.count_nonzero(good)) / float(diffs.size)


def crossover_index(values: Sequence[float], threshold: float = 1.0) -> int | None:
    """Index of the first element strictly above ``threshold``.

    Figures 4(a) and 5 show speed-up curves that start below 1x (CPU wins)
    and cross above 1x as the instance grows; this helper locates that
    crossover.  Returns ``None`` when the curve never crosses.
    """
    arr = np.asarray(values, dtype=np.float64)
    above = np.nonzero(arr > threshold)[0]
    return int(above[0]) if above.size else None
