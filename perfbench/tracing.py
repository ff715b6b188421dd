"""In-memory span recorder and the timing wrappers the traced run installs.

The wrappers live here, in the benchmark, and go around the public entry
points of each layer; nothing under ``src/`` is changed.  A span is
``(name, start, end, parent, thread, request)``; a layer's self time is its
span minus the part its child spans cover.  Spans stay in memory and are
written out once, at the end, as chrome-trace JSON.

Layer names (the per-layer metric prefixes):

* ``core.batch.engine_init`` — ``BatchEngine.__init__``
* ``core.batch.run`` — ``BatchEngine.run`` (its self time is the loop and
  report materialisation outside every wrapped layer)
* ``core.variant.choice_build`` — ``ChoicePolicy.build_batch``
* ``core.choice.run_batch`` — ``ChoiceKernel.run_batch``
* ``core.construction.build_batch`` — ``TourConstruction.build_batch``
* ``rng.uniform_block`` — ``DeviceRNG.uniform_block``
* ``tsp.tour_lengths_batch`` — ``repro.tsp.tour.tour_lengths_batch``
* ``core.variant.ls_improve`` — ``LocalSearchPolicy.improve``
* ``core.variant.update_batch`` — ``UpdatePolicy.update_batch``
* ``backend.to_host`` — ``ArrayBackend.to_host``
* ``serve.protocol.decode`` — ``repro.serve.protocol.decode_request_obj``
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

_WRAPPED = "_perfbench_wrapped"


class SpanRecorder:
    """Thread-safe span list plus named counters."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[list] = []  # [name, start, end, parent, tid, request]
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self):
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args, kwargs)``
        runs outside the span to update counters."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), rec.request]
            with rec._lock:
                idx = len(rec.spans)
                rec.spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    # ------------------------------------------------------------- summaries

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total`` and ``self`` seconds."""
        spans = [s for s in self.spans if s[2] > 0.0]
        index = {id(s): i for i, s in enumerate(self.spans)}
        child = defaultdict(float)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            agg = out.setdefault(s[0], {"count": 0, "total": 0.0, "self": 0.0})
            dur = s[2] - s[1]
            agg["count"] += 1
            agg["total"] += dur
            agg["self"] += dur - child[index[id(s)]]
        return out

    def write_chrome_trace(self, path: str) -> None:
        spans = [s for s in self.spans if s[2] > 0.0]
        t0 = min((s[1] for s in spans), default=0.0)
        events = [
            {
                "name": s[0],
                "ph": "X",
                "ts": (s[1] - t0) * 1e6,
                "dur": (s[2] - s[1]) * 1e6,
                "pid": 1,
                "tid": s[4],
                "args": {"parent": s[3], "request": s[5]},
            }
            for s in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _patch(obj, attr: str, wrapper) -> None:
    if not getattr(getattr(obj, attr), _WRAPPED, False):
        setattr(obj, attr, wrapper)


def _instrument_engine(rec: SpanRecorder, engine) -> None:
    """Instance-level wrappers on one freshly built engine."""
    counters = rec.counters
    bs = engine.state

    rng = engine.rng
    draw_fn = rng.uniform_block

    def _draws(result, args, kwargs):
        drawn = int(result.size)
        counters["rng.draws"] += drawn
        counters["rng.bytes_computed"] += drawn * result.itemsize

    _patch(rng, "uniform_block", rec.wrap("rng.uniform_block", draw_fn, _draws))
    _patch(engine.choice_kernel, "run_batch",
           rec.wrap("core.choice.run_batch", engine.choice_kernel.run_batch))
    _patch(engine.construction, "build_batch",
           rec.wrap("core.construction.build_batch", engine.construction.build_batch))

    def _ant_steps(result, args, kwargs):
        counters["ant_steps"] += bs.B * bs.m * bs.n

    choice = engine.variant.choice
    _patch(choice, "build_batch",
           rec.wrap("core.variant.choice_build", choice.build_batch, _ant_steps))
    update = engine.variant.update
    _patch(update, "update_batch",
           rec.wrap("core.variant.update_batch", update.update_batch))
    local = engine.variant.local
    if local.enabled:
        _patch(local, "improve", rec.wrap("core.variant.ls_improve", local.improve))

    backend = engine.backend

    def _host(result, args, kwargs):
        counters["backend.to_host_calls"] += 1
        counters["backend.to_host_bytes"] += int(getattr(result, "nbytes", 0))

    _patch(backend, "to_host", rec.wrap("backend.to_host", backend.to_host, _host))

    def _run_done(result, args, kwargs):
        counters["tsp.local_search.exchanges"] += result.ls_exchanges
        counters["tsp.local_search.gain"] += result.ls_gain
        if engine.work is not None:
            counters["backend.workbuf_nbytes"] = max(
                counters["backend.workbuf_nbytes"], engine.work.nbytes
            )

    _patch(engine, "run", rec.wrap("core.batch.run", engine.run, _run_done))


@contextlib.contextmanager
def installed(rec: SpanRecorder, *, serve: bool = False):
    """Install the class- and module-level wrappers for the duration.

    Every :class:`~repro.core.batch.BatchEngine` built inside the block is
    timed (its init as a span) and instrumented at instance level, so
    engines the solve service builds per batch are covered too.
    """
    import repro.core.batch as batch_mod

    engine_cls = batch_mod.BatchEngine
    orig_init = engine_cls.__init__
    orig_lengths = batch_mod.tour_lengths_batch
    timed_init = rec.wrap("core.batch.engine_init", orig_init)
    engines = itertools.count()

    def init(self, *args, **kwargs):
        if serve:
            # one engine per served batch: its spans share the batch's id
            rec.request = f"batch{next(engines)}"
        timed_init(self, *args, **kwargs)
        _instrument_engine(rec, self)

    engine_cls.__init__ = init
    batch_mod.tour_lengths_batch = rec.wrap("tsp.tour_lengths_batch", orig_lengths)
    orig_decode = None
    if serve:
        import repro.serve.protocol as protocol

        orig_decode = protocol.decode_request_obj
        protocol.decode_request_obj = rec.wrap("serve.protocol.decode", orig_decode)
    try:
        yield rec
    finally:
        engine_cls.__init__ = orig_init
        batch_mod.tour_lengths_batch = orig_lengths
        if orig_decode is not None:
            protocol.decode_request_obj = orig_decode


def engine_layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """The engine-side per-layer values (zeros for layers never entered)."""
    times = rec.layer_times()
    c = rec.counters

    def t(name: str, kind: str = "total") -> float:
        return times.get(name, {}).get(kind, 0.0)

    steps = c.get("ant_steps", 0.0)
    return {
        "rng.uniform_block_s": t("rng.uniform_block"),
        "rng.draws": c.get("rng.draws", 0.0),
        "rng.draws_per_ant_step": c.get("rng.draws", 0.0) / steps if steps else 0.0,
        "rng.bytes_computed": c.get("rng.bytes_computed", 0.0),
        "core.choice.run_batch_s": t("core.choice.run_batch"),
        "core.construction.build_batch_self_s": t("core.construction.build_batch", "self"),
        "core.variant.choice_build_self_s": t("core.variant.choice_build", "self"),
        "core.variant.update_batch_s": t("core.variant.update_batch"),
        "core.variant.ls_improve_s": t("core.variant.ls_improve"),
        "tsp.local_search.exchanges": c.get("tsp.local_search.exchanges", 0.0),
        "tsp.local_search.gain": c.get("tsp.local_search.gain", 0.0),
        "tsp.tour_lengths_batch_s": t("tsp.tour_lengths_batch"),
        "backend.to_host_calls": c.get("backend.to_host_calls", 0.0),
        "backend.to_host_bytes": c.get("backend.to_host_bytes", 0.0),
        "backend.to_host_s": t("backend.to_host"),
        "backend.workbuf_nbytes": c.get("backend.workbuf_nbytes", 0.0),
        "core.batch.engine_init_count": t("core.batch.engine_init", "count"),
        "core.batch.engine_init_s": t("core.batch.engine_init"),
        "core.batch.run_s": t("core.batch.run"),
        "core.batch.loop_other_s": t("core.batch.run", "self"),
    }
