"""determinism: engine randomness and time must come from pinned sources.

Inside ``core/``, ``rng/`` and ``tsp/`` the bit-exact parity suites own
every random bit — engine randomness flows through the seeded
``DeviceRNG``/LCG streams.  This rule flags:

* any stdlib ``random`` usage (global stream or ``random.Random``,
  seeded or not) — the engine has no business near it;
* global-stream ``numpy.random.*`` calls (``np.random.rand`` /
  ``np.random.seed`` …) — they mutate hidden process-wide state;
* *unseeded* numpy RNG construction (``np.random.default_rng()`` with no
  arguments).  Seeded construction (``default_rng(SeedSequence(seed))``
  in ``tsp/generator.py``) is the sanctioned idiom;
* wall-clock reads (``time.time()``, ``perf_counter()`` …) — a time
  value that reaches the search trajectory breaks replayability.
  ``util/timer.py`` and ``obs/`` are exempt wholesale; per-module
  ``perf_counter`` allowlist entries cover observability-only readings
  (engine phase accounting, ``wall_seconds``) with a documented reason.
"""

from __future__ import annotations

import ast

from ..config import LintConfig
from ..context import FileContext
from ..finding import Severity
from ..registry import Rule, register

#: numpy RNG constructors: fine when seeded, flagged when argument-less.
_NP_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    }
)
_TIME_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)
_PERF_COUNTERS = frozenset({"time.perf_counter", "time.perf_counter_ns"})


@register
class DeterminismRule(Rule):
    id = "determinism"
    severity = Severity.ERROR
    description = (
        "core/rng/tsp randomness must use seeded DeviceRNG/LCG streams; "
        "no global RNG state or wall-clock reads"
    )

    def check(self, ctx: FileContext, config: LintConfig):
        if not config.in_determinism_scope(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or ctx.in_annotation(node):
                continue
            qual = ctx.qualified(node.func)
            if qual is None:
                continue
            if qual == "random.Random" or qual.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib `{qual}` in engine scope — randomness must come "
                    "from the seeded DeviceRNG/LCG streams",
                )
            elif qual in _NP_RNG_CONSTRUCTORS:
                if not (node.args or node.keywords):
                    yield self.finding(
                        ctx,
                        node,
                        f"unseeded `{qual}()` — construct RNGs from an "
                        "explicit seed so runs replay bit-exact",
                    )
            elif qual.startswith("numpy.random."):
                yield self.finding(
                    ctx,
                    node,
                    f"global-stream `{qual}` mutates hidden process-wide RNG "
                    "state — use a seeded generator instead",
                )
            elif qual in _TIME_SOURCES:
                if config.time_source_exempt(ctx.module):
                    continue
                if (
                    qual in _PERF_COUNTERS
                    and ctx.module in config.perf_counter_allowlist
                ):
                    continue  # documented observability-only reading
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read `{qual}()` in engine scope — time must "
                    "not reach the search trajectory (use util.timer / obs "
                    "seams, or add a documented allowlist entry)",
                )
