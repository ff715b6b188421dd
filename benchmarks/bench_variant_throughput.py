"""Variant throughput: what the one-engine redesign buys ACS and MMAS.

Before the variant redesign, ACS and MMAS ran as standalone numpy-only solo
loops — no batching, no bulk RNG, no arena hoisting, no ``report_every``
amortization.  Now all three variants ride the same
:class:`~repro.core.batch.BatchEngine`; this benchmark measures
colony-iterations/sec per variant across batch sizes so the cost of each
variant's extra work (ACS per-step local updates, MMAS clamp sweeps) is
visible relative to AS on identical substrate.

Timing protocol: all variants of one B-group are measured **interleaved
round-robin with a rotated starting point, best-of-``repeats``** — this
box's wall clock drifts ±30 % between windows, so only co-scheduled
measurements produce meaningful ratios.

Results go to ``BENCH_variant.json`` at the repository root; the schema is
pinned by ``benchmarks/conftest.py`` (``validate_bench_variant``).

Run:  python benchmarks/bench_variant_throughput.py [--iterations 50]
      [--instance att48] [--out BENCH_variant.json] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.backend import resolve_backend
from repro.core import ACOParams, BatchEngine

VARIANTS = ("as", "acs", "mmas")
BATCH_SIZES = (1, 8, 32)
REPORT_EVERY = 10
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_variant.json"

QUICK_BATCH_SIZES = (1, 4)
QUICK_REPORT_EVERY = 2


def measure_group(
    instance, params, backend, B, iterations, report_every, repeats=5
) -> list[dict]:
    """Time one B-group: every variant, interleaved and rotated.

    One repeat of each variant per sweep (rotating which goes first so
    sustained-load clock decay cannot systematically favour one), fresh
    engines every sweep (each variant then times the *same* early
    iterations), best-of-``repeats`` kept.  A short untimed warm-up run
    per engine absorbs first-touch costs (arena and block allocation,
    instance-matrix caches).
    """
    best = [float("inf")] * len(VARIANTS)
    for sweep in range(repeats):
        engines = []
        for variant in VARIANTS:
            engine = BatchEngine.replicas(
                instance,
                params,
                replicas=B,
                variant=variant,
                backend=backend,
            )
            engine.run(min(2, iterations), report_every=report_every)
            backend.synchronize()
            engines.append(engine)
        for i in [(j + sweep) % len(VARIANTS) for j in range(len(VARIANTS))]:
            t0 = time.perf_counter()
            engines[i].run(iterations, report_every=report_every)
            backend.synchronize()
            best[i] = min(best[i], time.perf_counter() - t0)
    as_seconds = best[VARIANTS.index("as")]
    rows = []
    for variant, seconds in zip(VARIANTS, best):
        rows.append(
            {
                "variant": variant,
                "B": B,
                "seconds": round(seconds, 4),
                "iters_per_sec": round(iterations / seconds, 2),
                "colony_iters_per_sec": round(B * iterations / seconds, 2),
                "relative_to_as": round(as_seconds / seconds, 2),
            }
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instance", default="att48")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny grid for CI smoke runs (B in {1,4}, 4 iterations)",
    )
    args = parser.parse_args()

    batch_sizes = QUICK_BATCH_SIZES if args.quick else BATCH_SIZES
    report_every = QUICK_REPORT_EVERY if args.quick else REPORT_EVERY
    iterations = min(args.iterations, 4) if args.quick else args.iterations

    from repro.tsp import load_instance

    instance = load_instance(args.instance)
    params = ACOParams(seed=1)
    backend = resolve_backend(None)

    rows = []
    for B in batch_sizes:
        group = measure_group(
            instance, params, backend, B, iterations, report_every
        )
        rows.extend(group)
        for row in group:
            print(
                f"{row['variant']:4s} B={B:3d} {row['seconds']:7.3f}s  "
                f"{row['colony_iters_per_sec']:9.1f} colony-it/s  "
                f"{row['relative_to_as']:5.2f}x vs as"
            )

    payload = {
        "instance": args.instance,
        "iterations": iterations,
        "backend": backend.name,
        "report_every": report_every,
        "batch_sizes": list(batch_sizes),
        "variants": list(VARIANTS),
        "results": rows,
    }
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import validate_bench_variant

    validate_bench_variant(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
