"""Engine phase accounting: where a batch iteration spends its wall-clock.

The paper's Tables II-IV split every iteration into tour construction and
pheromone update; the batched engine has five phases worth separating:

* ``construct`` — tour building (choice policy + construction family),
* ``fold`` — tour-length evaluation and the best-so-far fold,
* ``local-search`` — boundary-time 2-opt polish (zero when disabled),
* ``update`` — the variant's pheromone update,
* ``host-sync`` — boundary host transfer and report materialization.

:class:`PhaseClock` accumulates seconds per phase at three granularities at
once: run totals (always on — two float adds per phase per iteration),
per-``report_every``-block deltas (surfaced on
:class:`~repro.core.batch.BoundaryUpdate`), and optional per-span streams
into a :class:`~repro.obs.trace.TraceRecorder` and per-block histograms in
a :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

__all__ = ["PHASES", "PHASE_HISTOGRAMS", "PhaseClock"]

#: Engine phase names, in pipeline order.
PHASES = ("construct", "fold", "local-search", "update", "host-sync")

#: The registry histogram of each phase's per-block seconds, in
#: :data:`PHASES` order.
PHASE_HISTOGRAMS = tuple(f"engine.phase.{phase}" for phase in PHASES)


class PhaseClock:
    """Per-phase wall-clock accumulator for one engine.

    ``add(phase, start, end)`` takes raw ``perf_counter`` readings so the
    engine pays one subtraction and two dict adds per phase — cheap enough
    to be always-on.  When a tracer is attached every ``add`` also records
    a span (the chrome-trace export); when a real registry is attached,
    ``flush_block`` publishes each block's per-phase seconds as histogram
    observations under ``engine.phase.<name>``.
    """

    __slots__ = ("totals", "metrics", "tracer", "_block")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self.totals: dict[str, float] = {p: 0.0 for p in PHASES}
        self._block: dict[str, float] = {p: 0.0 for p in PHASES}
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = tracer

    def add(
        self, phase: str, start: float, end: float, label: str | None = None
    ) -> None:
        """Attribute the ``[start, end]`` perf_counter interval to ``phase``."""
        duration = end - start
        self.totals[phase] += duration
        self._block[phase] += duration
        if self.tracer is not None:
            self.tracer.add_span(label or phase, start, duration, cat=phase)

    def flush_block(self) -> dict[str, float]:
        """Close the current ``report_every`` block: return its per-phase
        seconds (every phase keyed, zeros included), publish non-zero
        phases to the registry histograms, and reset the block."""
        deltas = dict(self._block)
        if self.metrics.enabled:
            for name, seconds in zip(PHASE_HISTOGRAMS, deltas.values()):
                if seconds > 0.0:
                    self.metrics.observe(name, seconds)
        for phase in self._block:
            self._block[phase] = 0.0
        return deltas

    def mark(self) -> dict[str, float]:
        """Snapshot of the run totals (pair with :meth:`since`)."""
        return dict(self.totals)

    def since(self, mark: dict[str, float]) -> dict[str, float]:
        """Per-phase seconds accumulated since ``mark`` — the
        ``phase_breakdown`` a single ``run()`` call reports."""
        return {p: self.totals[p] - mark.get(p, 0.0) for p in PHASES}
