"""Shared pieces of the benchmark: source location, statistics, output.

Every workload module returns a :class:`Outcome`; :func:`emit` prints a
human-readable report, the host block and the result digest, and then the
single JSON result line the benchmark contract asks for (always the last
line of standard output).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch output (chrome traces, server logs); listed in .gitignore
OUT_DIR = os.path.join(ROOT, ".bench_out")


def require_source() -> None:
    """Put the checkout's ``src`` on the import path, or exit non-zero.

    The benchmark measures the program of the checkout it runs in; without
    ``src/repro`` there is nothing to measure, so it refuses before doing
    any work and prints no result line.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def subprocess_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


# ----------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


# ----------------------------------------------------------------- host speed
#
# A shared host's speed drifts by 10-30% over tens of seconds (neighbours
# competing for memory bandwidth and cores), which swamps a program change
# of the same size.  Engine timings are therefore taken against a host
# clock: before each timed repetition a fixed reference kernel is timed,
# and the repetition's rate is scaled by (reference time / its nominal
# time).  The kernel is plain numpy and Python written here, so no change
# to the program moves it; a program change moves the scaled rate exactly
# as it moves the raw one.

#: reference-kernel time at host factor 1 (its median on a 2-core x86 VM)
REF_NOMINAL_S = 0.022

_REF_DATA: tuple | None = None


def _reference_kernel() -> None:
    """Memory-bound gathers over a 2.5 MB stack, an interpreter loop and
    small-array numpy calls: the three kinds of work the engine does."""
    import numpy as np

    global _REF_DATA
    if _REF_DATA is None:
        rng = np.random.default_rng(0)
        _REF_DATA = (
            rng.random((4, 280, 280)), rng.integers(0, 280, (4, 280, 280)),
            rng.random((16, 48, 48)), rng.random(48),
        )
    stack, idx, small, weights = _REF_DATA
    for _ in range(4):
        np.take_along_axis(stack, idx, axis=2).cumsum(axis=2)
    s = 0
    for i in range(60_000):
        s += i * i % 7
    for _ in range(300):
        (small[:, 3] * weights).cumsum(axis=1).argmax(axis=1)


def host_factor() -> float:
    """How slow the host is right now: the best of two timings of the
    reference kernel over :data:`REF_NOMINAL_S` (above 1 is slower)."""
    from time import perf_counter

    _reference_kernel()  # first touch of the data, outside the timings
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        _reference_kernel()
        best = min(best, perf_counter() - t0)
    return best / REF_NOMINAL_S


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block(seed: int, backend: str, latency_limit_ms: float) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "seed": seed,
        "latency_limit_ms": latency_limit_ms,
    }


def digest(items) -> str:
    """Short sha256 of a JSON-serialisable result summary."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --------------------------------------------------------------------- output


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int
    failed: int
    correct: bool
    #: name -> (value, unit), in the order they are printed
    metrics: dict[str, tuple[float, str]]
    host: dict
    digest: str
    #: extra human-readable lines (sample counts, checks, trace summary)
    notes: list[str] = field(default_factory=list)


def emit(outcome: Outcome) -> None:
    print(f"workload {outcome.workload}")
    print("host " + json.dumps(outcome.host, sort_keys=True))
    for line in outcome.notes:
        print(f"  {line}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  "
          f"failed_frac {frac:.6f}  correct {outcome.correct}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    print(f"  digest {outcome.digest}")
    result = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
