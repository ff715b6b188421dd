"""Colony state: the device-resident data of a GPU Ant System run.

One :class:`ColonyState` owns every array the kernels touch — distance and
heuristic matrices, the pheromone matrix, ``choice_info``, candidate lists —
plus the iteration-level bookkeeping (last tours, best tour so far).  The
construction and pheromone strategies mutate it; the colony orchestrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import ArrayBackend, WorkBuffers, resolve_backend
from repro.core.params import ACOParams
from repro.simt.device import DeviceSpec
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import nearest_neighbor_tour, tour_length

__all__ = ["ColonyState"]


@dataclass
class ColonyState:
    """All device-resident data for one Ant System run.

    Build with :meth:`create`, which derives every array from the instance
    and parameters the way ACOTSP does (``tau0 = m / C_nn`` etc.).
    """

    instance: TSPInstance
    params: ACOParams
    device: DeviceSpec
    n: int
    m: int
    nn: int
    dist: np.ndarray  # (n, n) int64 distances
    eta: np.ndarray  # (n, n) float64 heuristic 1/(d + shift)
    pheromone: np.ndarray  # (n, n) float64 tau
    nn_list: np.ndarray  # (n, nn) int32 candidate lists
    tau0: float
    #: array substrate the per-colony arrays live on (numpy by default)
    backend: ArrayBackend = field(default_factory=resolve_backend)
    #: scratch arena hoisting kernel buffers across steps and iterations
    work: WorkBuffers = field(init=False, repr=False)
    choice_info: np.ndarray | None = None  # (n, n) float64, refreshed per iter
    tours: np.ndarray | None = None  # (m, n + 1) int32, last iteration
    lengths: np.ndarray | None = None  # (m,) int64, last iteration
    iteration: int = 0
    best_tour: np.ndarray | None = field(default=None, repr=False)
    best_length: int | None = None

    def __post_init__(self) -> None:
        self.work = WorkBuffers(self.backend)

    @classmethod
    def create(
        cls,
        instance: TSPInstance,
        params: ACOParams,
        device: DeviceSpec,
        backend: ArrayBackend | str | None = None,
    ) -> "ColonyState":
        """Initialise state the ACOTSP way.

        * ``eta = 1 / (d + eta_shift)``
        * ``tau0 = m / C_nn`` with ``C_nn`` the greedy nearest-neighbour tour
          length — every edge starts with the same pheromone.

        Derivations run on the host (they are one-time setup); the resident
        arrays are then uploaded through ``backend`` (no copy on numpy).
        """
        bk = resolve_backend(backend)
        n = instance.n
        m = params.resolve_ants(n)
        nn = params.resolve_nn(n)
        dist = instance.distance_matrix()
        eta = instance.heuristic_matrix(shift=params.eta_shift)
        c_nn = tour_length(nearest_neighbor_tour(dist), dist)
        tau0 = m / float(c_nn)
        pheromone = np.full((n, n), tau0, dtype=np.float64)
        np.fill_diagonal(pheromone, 0.0)
        return cls(
            instance=instance,
            params=params,
            device=device,
            n=n,
            m=m,
            nn=nn,
            dist=bk.from_host(dist),
            eta=bk.from_host(eta),
            pheromone=bk.from_host(pheromone),
            nn_list=bk.from_host(instance.nn_lists(nn)),
            tau0=tau0,
            backend=bk,
        )

    # ----------------------------------------------------------- bookkeeping

    def record_tours(self, tours: np.ndarray, lengths: np.ndarray) -> None:
        """Store the iteration's tours and update the best-so-far record."""
        self.tours = tours
        self.lengths = lengths
        best = int(np.argmin(lengths))
        if self.best_length is None or int(lengths[best]) < self.best_length:
            self.best_length = int(lengths[best])
            self.best_tour = tours[best].copy()

    @property
    def gpu_footprint_bytes(self) -> int:
        """Rough device-memory footprint of the resident arrays (4-byte GPU
        floats/ints, as the CUDA code would allocate them)."""
        n, m, nn = self.n, self.m, self.nn
        matrices = 4 * (4 * n * n)  # dist, eta, tau, choice_info
        lists = 4 * (n * nn)  # nn_list
        tours = 4 * (m * (n + 1))
        tabu = 4 * m * n
        return matrices + lists + tours + tabu
