"""Small shared utilities: tables, statistics, timing.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in here knows about ACO, TSP or GPUs.
"""

from __future__ import annotations

from repro.util.stats import monotone_fraction, spearman_rank_correlation
from repro.util.tables import Table, format_ms
from repro.util.timer import WallClock

__all__ = [
    "Table",
    "format_ms",
    "WallClock",
    "monotone_fraction",
    "spearman_rank_correlation",
]
