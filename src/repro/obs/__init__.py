"""Observability: metrics, engine phase accounting, and trace export.

The telemetry spine of the reproduction.  Three pieces:

* :class:`MetricsRegistry` — named counters, gauges and log-bucket
  histograms (p50/p95/p99 within 1%, merged exactly), cheap enough to be
  always-on; :class:`NullRegistry` (shared instance
  :data:`NULL_REGISTRY`) is the true no-op disabled path.
* :class:`PhaseClock` / :data:`PHASES` — per-phase wall-clock of the
  batch engine (construct / fold / local-search / update / host-sync),
  surfaced per ``report_every`` block and per run.
* :class:`TraceRecorder` — span sink exporting ``chrome://tracing``
  JSON timelines of whole runs.

Instrumentation is bit-exactness-preserving by construction: it only reads
``perf_counter`` and never touches engine arrays or the engine RNG; the
parity suites (``tests/property/test_obs_parity.py``) pin that.
"""

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.phases import PHASE_HISTOGRAMS, PHASES, PhaseClock
from repro.obs.trace import TraceRecorder, TraceSpan

__all__ = [
    "NULL_REGISTRY",
    "PHASES",
    "PHASE_HISTOGRAMS",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "PhaseClock",
    "TraceRecorder",
    "TraceSpan",
]
