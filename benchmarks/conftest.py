"""Shared benchmark fixtures and the table-emission helper.

Every benchmark module pairs two things:

* **artefact regeneration** — the calibrated model reproduces the paper's
  table/figure rows; the side-by-side comparison is printed (stderr, so it
  survives pytest's capture) and written to ``benchmarks/results/<id>.txt``;
* **functional timing** — pytest-benchmark times the *real* vectorised
  kernel simulations on small suite instances, giving measured wall-clock
  rows for the same code paths.
"""

from __future__ import annotations

import os
import sys

try:
    import pytest
except ImportError:  # pragma: no cover - schema-only consumers
    # The `gpu-aco bench` runner loads this module just for the BENCH_*
    # schemas/validators; those must not require the test toolchain.
    pytest = None

from repro.core import ACOParams
from repro.experiments.harness import ExperimentResult
from repro.tsp import load_instance

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# ------------------------------------------------------- BENCH_backend.json
#
# Schema of the artefact bench_backend_throughput.py writes at the repo
# root.  Kept here (next to the other benchmark helpers) so both the
# benchmark script and the test-suite validate the same contract.

#: top-level keys -> required type
BENCH_BACKEND_SCHEMA: dict[str, type] = {
    "instance": str,  # TSPLIB/suite instance name
    "iterations": int,  # iterations per measured run
    "pheromone": int,  # pheromone strategy version shared by all rows
    "backends": dict,  # backend name -> {"available": bool, "reason": str|None}
    "results": list,  # list of per-(backend, construction, B) row dicts
}

#: per-row keys -> required type
BENCH_BACKEND_ROW_SCHEMA: dict[str, type] = {
    "backend": str,  # registry key the row ran on
    "construction": int,  # construction strategy version
    "B": int,  # batched colony count
    "seconds": float,  # wall-clock of the batched run
    "colonies_per_sec": float,  # B * iterations / seconds
    "speedup_vs_numpy": float,  # numpy seconds / this backend's (1.0 on numpy)
}


def validate_bench_backend(payload: dict) -> None:
    """Assert ``payload`` matches the BENCH_backend.json schema above."""
    for key, typ in BENCH_BACKEND_SCHEMA.items():
        assert key in payload, f"BENCH_backend missing key {key!r}"
        assert isinstance(payload[key], typ), (
            f"BENCH_backend[{key!r}] should be {typ.__name__}, "
            f"got {type(payload[key]).__name__}"
        )
    assert payload["results"], "BENCH_backend has no result rows"
    for row in payload["results"]:
        for key, typ in BENCH_BACKEND_ROW_SCHEMA.items():
            assert key in row, f"BENCH_backend row missing key {key!r}"
            assert isinstance(row[key], typ), (
                f"BENCH_backend row[{key!r}] should be {typ.__name__}, "
                f"got {type(row[key]).__name__}"
            )
        assert row["backend"] in payload["backends"], (
            f"row backend {row['backend']!r} absent from availability map"
        )


# --------------------------------------------------------- BENCH_batch.json
#
# Schema of the artefact bench_batch_throughput.py writes at the repo root:
# sequential vs batched colonies/sec across B, the PR-2 baseline artefact.

#: top-level keys -> required type
BENCH_BATCH_SCHEMA: dict[str, type] = {
    "instance": str,  # TSPLIB/suite instance name
    "pheromone": int,  # pheromone strategy version shared by all rows
    "results": list,  # list of per-(construction, B) row dicts
}

#: per-row keys -> required type
BENCH_BATCH_ROW_SCHEMA: dict[str, type] = {
    "B": int,  # batched colony count
    "construction": int,  # construction strategy version
    "iterations": int,  # iterations per measured run
    "sequential_seconds": float,  # wall-clock of B sequential runs
    "batched_seconds": float,  # wall-clock of one B-wide batched run
    "speedup": float,  # sequential_seconds / batched_seconds
    "sequential_colonies_per_sec": float,
    "batched_colonies_per_sec": float,
}


def validate_bench_batch(payload: dict) -> None:
    """Assert ``payload`` matches the BENCH_batch.json schema above."""
    for key, typ in BENCH_BATCH_SCHEMA.items():
        assert key in payload, f"BENCH_batch missing key {key!r}"
        assert isinstance(payload[key], typ), (
            f"BENCH_batch[{key!r}] should be {typ.__name__}, "
            f"got {type(payload[key]).__name__}"
        )
    assert payload["results"], "BENCH_batch has no result rows"
    for row in payload["results"]:
        for key, typ in BENCH_BATCH_ROW_SCHEMA.items():
            assert key in row, f"BENCH_batch row missing key {key!r}"
            assert isinstance(row[key], typ), (
                f"BENCH_batch row[{key!r}] should be {typ.__name__}, "
                f"got {type(row[key]).__name__}"
            )
        assert row["B"] >= 1, f"row B={row['B']} must be positive"


# ---------------------------------------------------------- BENCH_loop.json
#
# Schema of the checked-in historical artefact the since-deleted
# bench_loop_amortization.py wrote: iterations/sec of the device-resident
# loop (report_every = K, bulk RNG, hoisted WorkBuffers) against the
# pre-amortisation baseline (per-step draws, allocate-per-call, report every
# iteration) that no longer exists in the engine.

#: top-level keys -> required type
BENCH_LOOP_SCHEMA: dict[str, type] = {
    "instance": str,  # TSPLIB/suite instance name
    "iterations": int,  # iterations per measured run
    "pheromone": int,  # pheromone strategy version shared by all rows
    "backend": str,  # backend every row ran on
    "batch_sizes": list,  # B values covered
    "report_every": list,  # K values covered (amortized rows)
    "results": list,  # list of per-(construction, B, K, amortized) rows
}

#: per-row keys -> required type
BENCH_LOOP_ROW_SCHEMA: dict[str, type] = {
    "construction": int,  # construction strategy version
    "B": int,  # batched colony count
    "report_every": int,  # K of this row (1 for the baseline)
    "amortized": bool,  # False = pre-amortisation reference path
    "seconds": float,  # wall-clock of the run
    "iters_per_sec": float,  # iterations / seconds
    "colony_iters_per_sec": float,  # B * iterations / seconds
    "speedup_vs_baseline": float,  # baseline seconds / this row's seconds
}


def validate_bench_loop(payload: dict) -> None:
    """Assert ``payload`` matches the BENCH_loop.json schema above."""
    for key, typ in BENCH_LOOP_SCHEMA.items():
        assert key in payload, f"BENCH_loop missing key {key!r}"
        assert isinstance(payload[key], typ), (
            f"BENCH_loop[{key!r}] should be {typ.__name__}, "
            f"got {type(payload[key]).__name__}"
        )
    assert payload["results"], "BENCH_loop has no result rows"
    seen_baselines = set()
    seen_amortized = set()
    for row in payload["results"]:
        for key, typ in BENCH_LOOP_ROW_SCHEMA.items():
            assert key in row, f"BENCH_loop row missing key {key!r}"
            assert isinstance(row[key], typ), (
                f"BENCH_loop row[{key!r}] should be {typ.__name__}, "
                f"got {type(row[key]).__name__}"
            )
        assert row["B"] in payload["batch_sizes"], (
            f"row B={row['B']} absent from batch_sizes"
        )
        if row["amortized"]:
            assert row["report_every"] in payload["report_every"], (
                f"row K={row['report_every']} absent from report_every"
            )
            seen_amortized.add((row["construction"], row["B"]))
        else:
            assert row["report_every"] == 1, "baseline rows must use K=1"
            seen_baselines.add((row["construction"], row["B"]))
    assert seen_amortized == seen_baselines, (
        "every (construction, B) point needs both baseline and amortized "
        f"rows; baselines={sorted(seen_baselines)} amortized={sorted(seen_amortized)}"
    )


# ------------------------------------------------------- BENCH_variant.json
#
# Schema of the artefact bench_variant_throughput.py writes at the repo
# root: colony-iterations/sec of the three engine variants (AS/ACS/MMAS)
# across batch sizes, all on the same amortized batched loop.

#: top-level keys -> required type
BENCH_VARIANT_SCHEMA: dict[str, type] = {
    "instance": str,  # TSPLIB/suite instance name
    "iterations": int,  # iterations per measured run
    "backend": str,  # backend every row ran on
    "report_every": int,  # K shared by all rows
    "batch_sizes": list,  # B values covered
    "variants": list,  # variant keys covered
    "results": list,  # list of per-(variant, B) rows
}

#: per-row keys -> required type
BENCH_VARIANT_ROW_SCHEMA: dict[str, type] = {
    "variant": str,  # "as" | "acs" | "mmas"
    "B": int,  # batched colony count
    "seconds": float,  # wall-clock of the run (best-of-N, interleaved)
    "iters_per_sec": float,  # iterations / seconds
    "colony_iters_per_sec": float,  # B * iterations / seconds
    "relative_to_as": float,  # AS seconds / this variant's (1.0 on as)
}


def validate_bench_variant(payload: dict) -> None:
    """Assert ``payload`` matches the BENCH_variant.json schema above."""
    for key, typ in BENCH_VARIANT_SCHEMA.items():
        assert key in payload, f"BENCH_variant missing key {key!r}"
        assert isinstance(payload[key], typ), (
            f"BENCH_variant[{key!r}] should be {typ.__name__}, "
            f"got {type(payload[key]).__name__}"
        )
    assert payload["results"], "BENCH_variant has no result rows"
    seen: dict[int, set] = {}
    for row in payload["results"]:
        for key, typ in BENCH_VARIANT_ROW_SCHEMA.items():
            assert key in row, f"BENCH_variant row missing key {key!r}"
            assert isinstance(row[key], typ), (
                f"BENCH_variant row[{key!r}] should be {typ.__name__}, "
                f"got {type(row[key]).__name__}"
            )
        assert row["variant"] in payload["variants"], (
            f"row variant {row['variant']!r} absent from variants"
        )
        assert row["B"] in payload["batch_sizes"], (
            f"row B={row['B']} absent from batch_sizes"
        )
        seen.setdefault(row["B"], set()).add(row["variant"])
    for B, variants in seen.items():
        assert variants == set(payload["variants"]), (
            f"B={B} missing variants: {set(payload['variants']) - variants}"
        )


# ------------------------------------------------------------ BENCH_ls.json
#
# Schema of the artefact bench_local_search.py writes at the repo root:
# quality-at-fixed-wall of the batched 2-opt local-search stage — for each
# variant, the median best tour length reached inside an identical wall
# budget with local search off vs on.

#: top-level keys -> required type
BENCH_LS_SCHEMA: dict[str, type] = {
    "instance": str,  # TSPLIB/suite instance name
    "wall_seconds": float,  # wall budget per measured run
    "repeats": int,  # seed-matched sweeps per config
    "report_every": int,  # K shared by all rows (ls fires at K-boundaries)
    "backend": str,  # backend every row ran on
    "variants": list,  # variant keys covered
    "results": list,  # list of per-(variant, local_search) rows
}

#: per-row keys -> required type
BENCH_LS_ROW_SCHEMA: dict[str, type] = {
    "variant": str,  # "as" | "acs" | "mmas"
    "local_search": str,  # "none" | "2opt"
    "median_best": int,  # median over sweeps of best length at budget
    "best": int,  # min over sweeps
    "lengths": list,  # the per-sweep best lengths behind the median
    "mean_iterations": float,  # ACO iterations completed inside the budget
}


def validate_bench_ls(payload: dict) -> None:
    """Assert ``payload`` matches the BENCH_ls.json schema above."""
    for key, typ in BENCH_LS_SCHEMA.items():
        assert key in payload, f"BENCH_ls missing key {key!r}"
        assert isinstance(payload[key], typ), (
            f"BENCH_ls[{key!r}] should be {typ.__name__}, "
            f"got {type(payload[key]).__name__}"
        )
    assert payload["results"], "BENCH_ls has no result rows"
    seen: dict[str, set] = {}
    for row in payload["results"]:
        for key, typ in BENCH_LS_ROW_SCHEMA.items():
            assert key in row, f"BENCH_ls row missing key {key!r}"
            assert isinstance(row[key], typ), (
                f"BENCH_ls row[{key!r}] should be {typ.__name__}, "
                f"got {type(row[key]).__name__}"
            )
        assert row["variant"] in payload["variants"], (
            f"row variant {row['variant']!r} absent from variants"
        )
        assert len(row["lengths"]) == payload["repeats"], (
            f"row has {len(row['lengths'])} lengths, expected "
            f"{payload['repeats']}"
        )
        seen.setdefault(row["variant"], set()).add(row["local_search"])
    for variant in payload["variants"]:
        assert seen.get(variant) == {"none", "2opt"}, (
            f"variant {variant!r} needs both a ls=none and a ls=2opt row; "
            f"got {sorted(seen.get(variant, ()))}"
        )


# --------------------------------------------------------- BENCH_shard.json
#
# Schema of the artefact bench_shard_scaling.py writes at the repo root:
# requests/sec through the ShardRouter tier for fleets of 1, 2 and 4
# worker-process shards, identical bursts, interleaved rotated best-of
# timing (fleets long-lived; spawn/warm-up outside the timed window).

#: top-level keys -> required type
BENCH_SHARD_SCHEMA: dict[str, type] = {
    "backend": str,  # backend every worker resolved
    "iterations": int,  # iterations per request
    "sizes": list,  # instance sizes, one per shard of a 4-fleet
    "seeds_per_size": int,  # requests per size in a burst
    "requests_per_burst": int,  # len(sizes) * seeds_per_size
    "repeats": int,  # timed sweeps per fleet (best-of)
    "shard_counts": list,  # fleet sizes covered, e.g. [1, 2, 4]
    "protocol": str,  # timing protocol identifier
    "host": dict,  # {"cpus": ...} — scaling context (see script docstring)
    "results": list,  # per-fleet rows
    "speedup_4_over_1": float,  # rps(4 shards) / rps(1 shard)
}

#: per-row keys -> required type
BENCH_SHARD_ROW_SCHEMA: dict[str, type] = {
    "shards": int,  # fleet size the row measured
    "best_seconds": float,  # best burst wall across sweeps
    "requests_per_sec": float,  # requests_per_burst / best_seconds
    "speedup_vs_1": float,  # rps(this fleet) / rps(1 shard)
}


def validate_bench_shard(payload: dict) -> None:
    """Assert ``payload`` matches the BENCH_shard.json schema above."""
    for key, typ in BENCH_SHARD_SCHEMA.items():
        assert key in payload, f"BENCH_shard missing key {key!r}"
        assert isinstance(payload[key], typ), (
            f"BENCH_shard[{key!r}] should be {typ.__name__}, "
            f"got {type(payload[key]).__name__}"
        )
    assert payload["results"], "BENCH_shard has no result rows"
    assert "cpus" in payload["host"], "BENCH_shard host block needs 'cpus'"
    assert payload["requests_per_burst"] == (
        len(payload["sizes"]) * payload["seeds_per_size"]
    ), "requests_per_burst disagrees with sizes x seeds_per_size"
    rps: dict[int, float] = {}
    for row in payload["results"]:
        for key, typ in BENCH_SHARD_ROW_SCHEMA.items():
            assert key in row, f"BENCH_shard row missing key {key!r}"
            assert isinstance(row[key], typ), (
                f"BENCH_shard row[{key!r}] should be {typ.__name__}, "
                f"got {type(row[key]).__name__}"
            )
        assert row["requests_per_sec"] > 0, "non-positive throughput row"
        rps[row["shards"]] = row["requests_per_sec"]
    assert sorted(rps) == sorted(payload["shard_counts"]), (
        f"rows cover fleets {sorted(rps)}, "
        f"declared {sorted(payload['shard_counts'])}"
    )
    assert {1, 4} <= set(rps), "BENCH_shard needs 1-shard and 4-shard rows"
    # The scaling contract: a 4-shard fleet must out-serve a single shard
    # under the interleaved protocol.
    assert rps[4] > rps[1], (
        f"4-shard fleet ({rps[4]} req/s) not above 1-shard ({rps[1]} req/s)"
    )
    assert payload["speedup_4_over_1"] > 1.0, (
        f"speedup_4_over_1 is {payload['speedup_4_over_1']}, expected > 1.0"
    )


#: script filename -> (artefact filename, validator); the `gpu-aco bench`
#: runner loads this registry to validate whatever a script wrote.
BENCH_ARTIFACTS: dict = {
    "bench_backend_throughput.py": ("BENCH_backend.json", validate_bench_backend),
    "bench_batch_throughput.py": ("BENCH_batch.json", validate_bench_batch),
    "bench_local_search.py": ("BENCH_ls.json", validate_bench_ls),
    "bench_shard_scaling.py": ("BENCH_shard.json", validate_bench_shard),
    "bench_variant_throughput.py": ("BENCH_variant.json", validate_bench_variant),
}

#: artefact filename -> validator: the script registry above, plus
#: BENCH_loop.json, the historical record of the bulk-RNG / arena win over
#: the deleted baseline (no script regenerates it).
ARTIFACT_VALIDATORS: dict = {
    "BENCH_loop.json": validate_bench_loop,
    **{artefact: validator for artefact, validator in BENCH_ARTIFACTS.values()},
}


def validate_bench_artifact(path, payload: dict | None = None) -> str:
    """Validate one ``BENCH_*.json`` artefact against its registered schema.

    Shared entry point for the ``gpu-aco bench`` runner, the test-suite and
    the CI ``lint-invariants`` job: dispatches on the file's basename through
    :data:`ARTIFACT_VALIDATORS` and returns the artefact name on success.
    ``payload`` skips the disk read when the caller already parsed the JSON.
    Raises ``ValueError`` for unregistered artefact names and ``AssertionError``
    (with a pointed message) for schema violations.
    """
    import json

    name = os.path.basename(str(path))
    validator = ARTIFACT_VALIDATORS.get(name)
    if validator is None:
        known = ", ".join(sorted(ARTIFACT_VALIDATORS))
        raise ValueError(f"no schema registered for {name!r} (known: {known})")
    if payload is None:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    validator(payload)
    return name


def emit_result(result: ExperimentResult) -> None:
    """Print an artefact comparison and persist it under results/."""
    text = result.render()
    print(f"\n{text}\n", file=sys.stderr)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{result.id}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


if pytest is not None:

    @pytest.fixture(scope="session")
    def att48():
        return load_instance("att48")

    @pytest.fixture(scope="session")
    def kroC100():
        return load_instance("kroC100")

    @pytest.fixture(scope="session")
    def a280():
        return load_instance("a280")

    @pytest.fixture(scope="session")
    def bench_params():
        """Paper parameters with a fixed seed for reproducible benchmark work."""
        return ACOParams(seed=1234)
