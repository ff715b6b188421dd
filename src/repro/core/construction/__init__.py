"""Tour-construction strategies: the eight Table II kernel versions.

Use :func:`make_construction` to instantiate by version number (1-8), by
registry key, or pass a ready-made strategy through unchanged.
"""

from __future__ import annotations

from repro.core.construction.base import TourConstruction, expected_fallback_steps
from repro.core.construction.dataparallel import (
    DataParallelConstruction,
    DataParallelTextureConstruction,
)
from repro.core.construction.nnlist import (
    NNListConstruction,
    NNListSharedConstruction,
    NNListTextureConstruction,
    TabuLayout,
    tabu_layout,
)
from repro.core.construction.taskbased import (
    BaselineTaskConstruction,
    ChoiceKernelTaskConstruction,
    DeviceRngTaskConstruction,
    construct_exact_batch,
)

__all__ = [
    "TourConstruction",
    "expected_fallback_steps",
    "construct_exact_batch",
    "BaselineTaskConstruction",
    "ChoiceKernelTaskConstruction",
    "DeviceRngTaskConstruction",
    "NNListConstruction",
    "NNListSharedConstruction",
    "NNListTextureConstruction",
    "DataParallelConstruction",
    "DataParallelTextureConstruction",
    "TabuLayout",
    "tabu_layout",
    "CONSTRUCTION_VERSIONS",
    "make_construction",
]

#: Table II rows in order: version number -> strategy class.
CONSTRUCTION_VERSIONS: dict[int, type[TourConstruction]] = {
    cls.version: cls
    for cls in (
        BaselineTaskConstruction,
        ChoiceKernelTaskConstruction,
        DeviceRngTaskConstruction,
        NNListConstruction,
        NNListSharedConstruction,
        NNListTextureConstruction,
        DataParallelConstruction,
        DataParallelTextureConstruction,
    )
}

_BY_KEY = {cls.key: cls for cls in CONSTRUCTION_VERSIONS.values()}


def make_construction(
    which: int | str | TourConstruction, **options
) -> TourConstruction:
    """Instantiate a construction strategy.

    Parameters
    ----------
    which:
        Version number (1-8), registry key (e.g. ``"nnlist_texture"``), or
        an already-built strategy (returned unchanged; options must then be
        empty).
    **options:
        Forwarded to the strategy constructor (e.g. ``tile=512`` for the
        data-parallel kernels).
    """
    if isinstance(which, TourConstruction):
        if options:
            raise ValueError("options cannot be combined with a strategy instance")
        return which
    if isinstance(which, bool):  # guard: bool is an int subclass
        raise TypeError("construction selector cannot be a bool")
    if isinstance(which, int):
        try:
            cls = CONSTRUCTION_VERSIONS[which]
        except KeyError:
            raise ValueError(
                f"unknown construction version {which}; valid: "
                f"{sorted(CONSTRUCTION_VERSIONS)}"
            ) from None
        return cls(**options)
    try:
        cls = _BY_KEY[which]
    except KeyError:
        raise ValueError(
            f"unknown construction key {which!r}; valid: {sorted(_BY_KEY)}"
        ) from None
    return cls(**options)
