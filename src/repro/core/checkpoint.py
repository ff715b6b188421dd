"""Engine checkpoint/resume: snapshot a :class:`BatchEngine` at a boundary.

Skinderowicz's GPU-based Parallel Ant Colony System keeps long runs viable
because colony state is cheap to snapshot at iteration boundaries — for
this engine that state is small and explicit: the pheromone stack, the
best-so-far records, the per-stream RNG states and the iteration counter.
Everything else the engine holds (choice_info, fold scratch, work buffers,
ACS ``tau0``, eta/distance stacks) is *derived* deterministically at
construction or at the next iteration, so a checkpoint restores into a
freshly built engine and ``run(remaining)`` is bit-identical to the
uninterrupted run.

Exactness contract
------------------
Capture at a ``report_every`` boundary (the :meth:`BatchEngine.run`
``on_boundary`` hook fires after the boundary host transfer, so the host
best records are fresh) and resume with the same ``report_every``.  A
checkpoint taken at iteration ``c`` with ``c % K == 0`` keeps every later
boundary — and therefore every local-search application point — aligned
with the uninterrupted run; the parity suite pins bit-identical tours,
lengths, pheromone matrices and RNG stream positions across the variant
grid.

File format
-----------
A compressed ``.npz`` archive.  ``__meta__`` holds one JSON document
(magic, format version, iteration counter, RNG bookkeeping, and the full
config *fingerprint*); the remaining entries are the state arrays
(``pheromone``, ``best_lengths``, ``best_tours``, ``rng/<word>``, and the
MMAS trail limits when the variant carries them).  Writes are atomic
(tmp file + ``os.replace``), so a crash mid-write never corrupts an
existing checkpoint.  Readers validate magic and version, then the
fingerprint against the engine they are restoring into — resuming with a
different variant, instance, parameterisation or kernel selection raises
:class:`~repro.errors.CheckpointError` instead of silently diverging.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_MAGIC",
    "FORMAT_VERSION",
    "EngineCheckpoint",
    "engine_fingerprint",
    "instance_digest",
    "capture_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_engine",
]

CHECKPOINT_MAGIC = "gpu-aco-checkpoint"
FORMAT_VERSION = 1

#: distance-matrix digests keyed by instance identity — replicas of one
#: instance hash its matrix once per process, not once per checkpoint
_DIGEST_CACHE: dict[int, str] = {}


def _instance_digest(instance) -> str:
    """sha256 of the instance's exact integer distance matrix."""
    key = id(instance)
    digest = _DIGEST_CACHE.get(key)
    if digest is None:
        dist = np.ascontiguousarray(instance.distance_matrix())
        digest = hashlib.sha256(dist.tobytes()).hexdigest()
        try:
            # Evict when the instance dies: a recycled id() must never
            # serve another instance's digest.
            weakref.finalize(instance, _DIGEST_CACHE.pop, key, None)
        except TypeError:
            return digest  # not weakref-able: compute, don't cache
        _DIGEST_CACHE[key] = digest
    return digest


#: Public name for the canonical per-instance content digest that
#: checkpoint rows key off.
instance_digest = _instance_digest


def engine_fingerprint(engine) -> dict:
    """Configuration identity of an engine, as a JSON-native dict.

    Two engines with equal fingerprints produce bit-identical runs from
    equal state, so restore refuses a mismatch.  Only JSON-native types
    (str/int/float/bool/list/dict) appear — the fingerprint must survive
    a JSON round-trip through the checkpoint file unchanged.
    """
    bs = engine.state
    variant = engine.variant
    local = variant.local
    ls: dict = {"key": local.key}
    if local.enabled:
        ls["target"] = local.target
        ls["passes"] = getattr(local, "passes", None)
    options: dict = {}
    if variant.key == "acs":
        acs = variant.choice.acs
        options = {"q0": acs.q0, "xi": acs.xi}
    elif variant.key == "mmas":
        upd = variant.update
        options = {
            "use_best_so_far_every": upd.mmas.use_best_so_far_every,
            "tau_min_divisor": upd.mmas.tau_min_divisor,
            "reinit_branching": upd.reinit_branching,
        }
    return {
        "B": bs.B,
        "n": bs.n,
        "m": bs.m,
        "nn": bs.nn,
        "backend": engine.backend.name,
        "variant": variant.key,
        "choice": variant.choice.key,
        "update": variant.update.key,
        "local_search": ls,
        "variant_options": options,
        "construction": {
            "key": engine.construction.key,
            "version": engine.construction.version,
        },
        "pheromone": {
            "key": engine.pheromone.key,
            "version": engine.pheromone.version,
        },
        "rng": {
            "kind": type(engine.rng).__name__,
            "n_streams": engine.rng.n_streams,
        },
        "rows": [
            {
                "instance": inst.name,
                "digest": _instance_digest(inst),
                "alpha": p.alpha,
                "beta": p.beta,
                "rho": p.rho,
                "n_ants": p.n_ants,
                "nn": p.nn,
                "seed": p.seed,
                "eta_shift": p.eta_shift,
            }
            for inst, p in zip(bs.instances, bs.params)
        ],
    }


@dataclass(frozen=True)
class EngineCheckpoint:
    """One captured engine state: a JSON-native ``meta`` dict plus host
    numpy ``arrays``.  Produced by :func:`capture_checkpoint` /
    :func:`load_checkpoint`; consumed by :func:`save_checkpoint` /
    :func:`restore_engine`."""

    meta: dict
    arrays: dict

    @property
    def iteration(self) -> int:
        """Engine iteration count the checkpoint was taken at."""
        return int(self.meta["iteration"])

    @property
    def fingerprint(self) -> dict:
        return self.meta["fingerprint"]


def capture_checkpoint(engine) -> EngineCheckpoint:
    """Snapshot the engine's complete mutable state onto the host.

    Safe at any point the engine is not mid-``run()`` — including inside
    an ``on_boundary`` callback, which is the intended seam.  The
    backend-resident best-so-far fold is synced to the host records first,
    so a capture always sees bests up to the last completed iteration.
    """
    bs = engine.state
    bk = engine.backend
    if engine._fold_len is not None:
        engine._sync_fold_host()
    arrays: dict = {"pheromone": bk.to_host(bs.pheromone).copy()}
    has_best = bs.best_lengths is not None
    if has_best:
        arrays["best_lengths"] = bs.best_lengths.copy()
        arrays["best_tours"] = bs.best_tours.copy()
    for key, arr in engine.rng.state_arrays().items():
        arrays[f"rng/{key}"] = arr
    update = engine.variant.update
    if update.key == "trail_limits" and update.tau_max is not None:
        arrays["mmas/tau_max"] = bk.to_host(update.tau_max).copy()
        arrays["mmas/tau_min"] = bk.to_host(update.tau_min).copy()
        arrays["mmas/reinit_count"] = bk.to_host(update.reinit_count).copy()
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": FORMAT_VERSION,
        "iteration": bs.iteration,
        "has_best": has_best,
        "rng_samples_drawn": engine.rng.samples_drawn,
        "ls_exchanges_total": engine.ls_exchanges_total,
        "ls_gain_total": engine.ls_gain_total,
        "ls_wall_seconds": engine.ls_wall_seconds,
        "fingerprint": engine_fingerprint(engine),
    }
    return EngineCheckpoint(meta=meta, arrays=arrays)


def save_checkpoint(source, path: str | Path) -> Path:
    """Write a checkpoint atomically; returns the final path.

    ``source`` is an :class:`EngineCheckpoint` or an engine (captured
    first).  The archive lands under a temporary name in the target
    directory and is moved into place with ``os.replace``, so readers
    never observe a half-written file and an existing checkpoint survives
    a crash mid-write.
    """
    engine = None
    if not isinstance(source, EngineCheckpoint):
        engine = source
        source = capture_checkpoint(engine)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                __meta__=np.array(json.dumps(source.meta)),
                **source.arrays,
            )
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if tmp.exists():  # replace failed or savez raised mid-write
            tmp.unlink(missing_ok=True)
    if engine is not None:
        metrics = engine.phase_clock.metrics
        if metrics.enabled:
            metrics.inc("engine.checkpoints_written")
    return path


def load_checkpoint(path: str | Path) -> EngineCheckpoint:
    """Read and validate a checkpoint file (magic + format version)."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            try:
                meta = json.loads(np.asarray(data["__meta__"]).item())
            except (KeyError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"{path} is not a gpu-aco checkpoint (bad metadata)"
                ) from exc
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
    except (OSError, zipfile.BadZipFile, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if meta.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a gpu-aco checkpoint")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} uses checkpoint format version {version}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    return EngineCheckpoint(meta=meta, arrays=arrays)


def _fingerprint_diff(expected: dict, got: dict) -> str:
    """Human-readable list of top-level fingerprint fields that differ."""
    keys = sorted(set(expected) | set(got))
    diffs = [k for k in keys if expected.get(k) != got.get(k)]
    return ", ".join(diffs) if diffs else "<none>"


def restore_engine(engine, checkpoint: EngineCheckpoint) -> None:
    """Install a checkpoint's state into a freshly configured engine.

    The engine must be built with the configuration that wrote the
    checkpoint (validated via the fingerprint).  Restore happens strictly
    *after* construction because variant ``bind()`` re-initialises the
    pheromone stack; the checkpointed trails overwrite that initialisation
    here.  After restore, ``engine.run(remaining, report_every=K)`` with
    the original ``K`` continues the interrupted run bit-identically.
    """
    expected = checkpoint.fingerprint
    got = engine_fingerprint(engine)
    if expected != got:
        raise CheckpointError(
            "checkpoint fingerprint does not match the engine configuration "
            f"(differs in: {_fingerprint_diff(expected, got)})"
        )
    bs = engine.state
    bk = engine.backend
    arrays = checkpoint.arrays
    meta = checkpoint.meta

    pher = np.asarray(arrays["pheromone"], dtype=np.float64)
    if pher.shape != (bs.B, bs.n, bs.n):
        raise CheckpointError(
            f"pheromone stack has shape {pher.shape}; engine expects "
            f"{(bs.B, bs.n, bs.n)}"
        )
    bs.pheromone[...] = bk.from_host(pher)

    if meta.get("has_best", "best_lengths" in arrays):
        bs.best_lengths = np.asarray(
            arrays["best_lengths"], dtype=np.int64
        ).copy()
        bs.best_tours = np.asarray(arrays["best_tours"], dtype=np.int32).copy()
    else:
        bs.best_lengths = None
        bs.best_tours = None
    # Force run() to re-seed the fold from the freshly installed records.
    engine._fold_len = None
    engine._fold_tours = None

    rng_arrays = {
        key[len("rng/") :]: arr
        for key, arr in arrays.items()
        if key.startswith("rng/")
    }
    try:
        engine.rng.load_state_arrays(rng_arrays)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot restore RNG state: {exc}") from exc
    engine.rng.samples_drawn = int(meta.get("rng_samples_drawn", 0))

    update = engine.variant.update
    if update.key == "trail_limits" and "mmas/tau_max" in arrays:
        update.tau_max = bk.from_host(
            np.asarray(arrays["mmas/tau_max"], dtype=np.float64)
        ).copy()
        update.tau_min = bk.from_host(
            np.asarray(arrays["mmas/tau_min"], dtype=np.float64)
        ).copy()
        update.reinit_count = bk.from_host(
            np.asarray(arrays["mmas/reinit_count"], dtype=np.int64)
        ).copy()

    bs.iteration = checkpoint.iteration
    engine.ls_exchanges_total = int(meta.get("ls_exchanges_total", 0))
    engine.ls_gain_total = int(meta.get("ls_gain_total", 0))
    engine.ls_wall_seconds = float(meta.get("ls_wall_seconds", 0.0))
