"""Core library: the paper's GPU Ant System.

Composes the SIMT substrate (:mod:`repro.simt`), the TSP substrate
(:mod:`repro.tsp`) and the RNG substrate (:mod:`repro.rng`) into the full
algorithm: eight tour-construction kernels (Table II), five pheromone-update
kernels (Tables III/IV), the Choice kernel, and the :class:`AntSystem`
orchestrator.
"""

from __future__ import annotations

from repro.core.acs import ACSParams, ACSRunResult, AntColonySystem
from repro.core.batch import (
    BatchColonyState,
    BatchEngine,
    BatchRunResult,
    BoundaryUpdate,
)
from repro.core.checkpoint import (
    EngineCheckpoint,
    capture_checkpoint,
    engine_fingerprint,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.core.mmas import MaxMinAntSystem, MMASParams, MMASRunResult
from repro.core.choice import ChoiceKernel
from repro.core.colony import AntSystem, RunResult
from repro.core.construction import (
    CONSTRUCTION_VERSIONS,
    TourConstruction,
    make_construction,
)
from repro.core.params import ACOParams
from repro.core.pheromone import PHEROMONE_VERSIONS, PheromoneUpdate, make_pheromone
from repro.core.report import IterationReport, StageReport
from repro.core.state import ColonyState
from repro.core.variant import (
    LOCAL_SEARCH,
    VARIANTS,
    VariantStrategy,
    make_local_search,
    make_variant,
)

__all__ = [
    "ACOParams",
    "ACSParams",
    "ACSRunResult",
    "AntColonySystem",
    "MaxMinAntSystem",
    "MMASParams",
    "MMASRunResult",
    "AntSystem",
    "RunResult",
    "BatchColonyState",
    "BatchEngine",
    "BatchRunResult",
    "BoundaryUpdate",
    "EngineCheckpoint",
    "capture_checkpoint",
    "engine_fingerprint",
    "load_checkpoint",
    "restore_engine",
    "save_checkpoint",
    "ColonyState",
    "ChoiceKernel",
    "TourConstruction",
    "PheromoneUpdate",
    "StageReport",
    "IterationReport",
    "CONSTRUCTION_VERSIONS",
    "PHEROMONE_VERSIONS",
    "VARIANTS",
    "VariantStrategy",
    "make_construction",
    "make_pheromone",
    "make_variant",
    "make_local_search",
    "LOCAL_SEARCH",
]
