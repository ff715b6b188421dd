"""The :class:`TSPInstance` container.

An instance is either coordinate-based (TSPLIB ``NODE_COORD_SECTION`` plus an
``EDGE_WEIGHT_TYPE``) or explicit-matrix based.  Distance matrices and
nearest-neighbour lists are computed lazily and cached, since several kernel
variants share them within one experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TSPError, UnsupportedEdgeWeightError
from repro.tsp.distances import EDGE_WEIGHT_FUNCTIONS, distance_matrix_from_coords

__all__ = ["TSPInstance"]


@dataclass
class TSPInstance:
    """A symmetric TSP instance.

    Parameters
    ----------
    name:
        Instance name (TSPLIB ``NAME`` field), e.g. ``"att48"``.
    coords:
        ``(n, 2)`` city coordinates, or ``None`` for explicit-matrix instances.
    edge_weight_type:
        TSPLIB keyword (``EUC_2D``, ``ATT``, ...) or ``"EXPLICIT"``.
    explicit_matrix:
        Full ``(n, n)`` distance matrix for ``EXPLICIT`` instances.
    comment:
        Free-text comment (TSPLIB ``COMMENT``).

    Examples
    --------
    >>> import numpy as np
    >>> inst = TSPInstance(name="tri", coords=np.array([[0., 0.], [3., 0.], [0., 4.]]),
    ...                    edge_weight_type="EUC_2D")
    >>> inst.n
    3
    >>> int(inst.distance_matrix()[1, 2])
    5
    """

    name: str
    coords: np.ndarray | None = None
    edge_weight_type: str = "EUC_2D"
    explicit_matrix: np.ndarray | None = None
    comment: str = ""
    _dist: np.ndarray | None = field(default=None, repr=False, compare=False)
    _nn_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.coords is None and self.explicit_matrix is None:
            raise TSPError("TSPInstance needs coords or an explicit matrix")
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
            if self.coords.ndim != 2 or self.coords.shape[1] != 2:
                raise TSPError(f"coords must be (n, 2), got {self.coords.shape}")
            if self.coords.shape[0] < 3:
                raise TSPError("a TSP instance needs at least 3 cities")
            if not np.isfinite(self.coords).all():
                raise TSPError("'coords' must all be finite numbers")
        if self.explicit_matrix is not None:
            m = np.asarray(self.explicit_matrix)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise TSPError(f"explicit matrix must be square, got {m.shape}")
            if self.coords is not None and m.shape[0] != self.coords.shape[0]:
                raise TSPError("explicit matrix size disagrees with coords")
            self.explicit_matrix = m.astype(np.int64, copy=False)
            self.edge_weight_type = "EXPLICIT"
        elif str(self.edge_weight_type).upper() not in EDGE_WEIGHT_FUNCTIONS:
            raise UnsupportedEdgeWeightError(
                f"'edge_weight_type' {self.edge_weight_type!r} is not supported; "
                f"supported: {sorted(EDGE_WEIGHT_FUNCTIONS)}"
            )

    # ------------------------------------------------------------------ size

    @property
    def n(self) -> int:
        """Number of cities."""
        if self.coords is not None:
            return int(self.coords.shape[0])
        assert self.explicit_matrix is not None
        return int(self.explicit_matrix.shape[0])

    # -------------------------------------------------------------- distances

    def distance_matrix(self) -> np.ndarray:
        """Full integer distance matrix (cached; do not mutate the result)."""
        if self._dist is None:
            if self.explicit_matrix is not None:
                d = self.explicit_matrix.copy()
                np.fill_diagonal(d, 0)
                self._dist = d
            else:
                assert self.coords is not None
                self._dist = distance_matrix_from_coords(
                    self.coords, self.edge_weight_type
                )
        return self._dist

    def heuristic_matrix(self, *, shift: float = 0.1) -> np.ndarray:
        """ACO heuristic ``eta[i, j] = 1 / (d[i, j] + shift)`` as float64.

        The ``shift`` (ACOTSP uses 0.1) keeps ``eta`` finite on the diagonal
        and on zero-distance city pairs.
        """
        d = self.distance_matrix().astype(np.float64)
        return 1.0 / (d + shift)

    def nn_lists(self, nn: int) -> np.ndarray:
        """Nearest-neighbour candidate lists, shape ``(n, nn)`` (cached)."""
        from repro.tsp.neighbors import nearest_neighbor_lists

        key = int(nn)
        if key not in self._nn_cache:
            self._nn_cache[key] = nearest_neighbor_lists(self.distance_matrix(), key)
        return self._nn_cache[key]

    # ------------------------------------------------------------------ misc

    def is_symmetric(self) -> bool:
        """True when the distance matrix equals its transpose."""
        d = self.distance_matrix()
        return bool(np.array_equal(d, d.T))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TSPInstance(name={self.name!r}, n={self.n}, "
            f"edge_weight_type={self.edge_weight_type!r})"
        )
