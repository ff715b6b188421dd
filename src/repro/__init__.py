"""GPU-ACO: reproduction of *Parallelization Strategies for Ant Colony
Optimisation on GPUs* (Cecilia, García, Ujaldón, Nisbet, Amos — IPDPS
Workshops 2011, arXiv:1101.2678).

The package implements the paper's full system on a SIMT functional/timing
simulator (no GPU required):

* :mod:`repro.tsp` — TSPLIB substrate (parser, distances, candidate lists,
  synthetic benchmark suite);
* :mod:`repro.rng` — device-function LCG and CURAND-style XORWOW generators;
* :mod:`repro.backend` — pluggable array backends (numpy host execution,
  optional CuPy GPU execution) behind one :class:`ArrayBackend` seam;
* :mod:`repro.simt` — the simulated GPUs (Tesla C1060 / M2050), the memory
  model, occupancy, and the analytical cost model;
* :mod:`repro.seq` — the sequential ACOTSP baseline;
* :mod:`repro.core` — the GPU Ant System: 8 tour-construction kernels,
  5 pheromone-update kernels, the Choice kernel, and the colony;
* :mod:`repro.experiments` — harness regenerating every table and figure of
  the paper's evaluation.

Quickstart
----------
>>> from repro import AntSystem, load_instance
>>> colony = AntSystem(load_instance("att48"), construction=8, pheromone=1)
>>> result = colony.run(iterations=5)
>>> result.best_length > 0
True
"""

from __future__ import annotations

from repro.backend import ArrayBackend, available_backends, get_backend
from repro.core import (
    ACOParams,
    ACSParams,
    AntColonySystem,
    AntSystem,
    BatchEngine,
    BatchRunResult,
    MaxMinAntSystem,
    MMASParams,
    ChoiceKernel,
    RunResult,
    make_construction,
    make_pheromone,
)
from repro.simt import DEVICES, TESLA_C1060, TESLA_M2050, DeviceSpec
from repro.tsp import (
    TSPInstance,
    load_instance,
    parse_tsplib,
    paper_suite,
    uniform_instance,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ACOParams",
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "ACSParams",
    "AntColonySystem",
    "AntSystem",
    "BatchEngine",
    "BatchRunResult",
    "MaxMinAntSystem",
    "MMASParams",
    "RunResult",
    "ChoiceKernel",
    "make_construction",
    "make_pheromone",
    "DeviceSpec",
    "TESLA_C1060",
    "TESLA_M2050",
    "DEVICES",
    "TSPInstance",
    "load_instance",
    "paper_suite",
    "parse_tsplib",
    "uniform_instance",
]
