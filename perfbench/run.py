"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-as-att48 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``layers.py``) and writes a chrome trace under
``.bench_out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys

from harness import emit, require_source

WORKLOADS = ("solve-as-att48", "solve-mmas-ls-a280", "serve-open", "serve-sharded")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_source()

    if args.workload.startswith("solve-"):
        from solve_workloads import run_solve

        outcome = run_solve(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        from serve_workloads import run_serve

        outcome = run_serve(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from layers import predictions

        outcome.notes.extend(predictions())
    emit(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
