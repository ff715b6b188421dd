"""Pheromone-update strategies: the five Table III/IV kernel versions.

Use :func:`make_pheromone` to instantiate by version number (1-5), by
registry key, or pass a ready-made strategy through unchanged.
"""

from __future__ import annotations

from repro.core.pheromone.atomic import AtomicPheromone, AtomicSharedPheromone
from repro.core.pheromone.base import PheromoneUpdate
from repro.core.pheromone.reduction import ReductionPheromone
from repro.core.pheromone.scatter_gather import (
    ScatterGatherPheromone,
    ScatterGatherTiledPheromone,
)

__all__ = [
    "PheromoneUpdate",
    "AtomicSharedPheromone",
    "AtomicPheromone",
    "ReductionPheromone",
    "ScatterGatherTiledPheromone",
    "ScatterGatherPheromone",
    "PHEROMONE_VERSIONS",
    "make_pheromone",
]

#: Table III/IV rows in order: version number -> strategy class.
PHEROMONE_VERSIONS: dict[int, type[PheromoneUpdate]] = {
    cls.version: cls
    for cls in (
        AtomicSharedPheromone,
        AtomicPheromone,
        ReductionPheromone,
        ScatterGatherTiledPheromone,
        ScatterGatherPheromone,
    )
}

_BY_KEY = {cls.key: cls for cls in PHEROMONE_VERSIONS.values()}


def make_pheromone(which: int | str | PheromoneUpdate, **options) -> PheromoneUpdate:
    """Instantiate a pheromone strategy by version (1-5), key, or instance."""
    if isinstance(which, PheromoneUpdate):
        if options:
            raise ValueError("options cannot be combined with a strategy instance")
        return which
    if isinstance(which, bool):
        raise TypeError("pheromone selector cannot be a bool")
    if isinstance(which, int):
        try:
            cls = PHEROMONE_VERSIONS[which]
        except KeyError:
            raise ValueError(
                f"unknown pheromone version {which}; valid: {sorted(PHEROMONE_VERSIONS)}"
            ) from None
        return cls(**options)
    try:
        cls = _BY_KEY[which]
    except KeyError:
        raise ValueError(
            f"unknown pheromone key {which!r}; valid: {sorted(_BY_KEY)}"
        ) from None
    return cls(**options)
