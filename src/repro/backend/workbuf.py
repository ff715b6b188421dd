"""Per-engine scratch arena: allocate iteration buffers once, reuse forever.

The paper's kernels never allocate inside the hot loop — every scratch
region (tabu lists, product buffers, reduction scratch) is carved out once
at launch and reused by every construction step of every iteration.  The
vectorised simulation historically re-allocated its scratch per build call,
which puts the Python allocator (and, on an accelerated backend, the device
allocator) on the per-iteration critical path.

:class:`WorkBuffers` is the amortisation seam: one arena per engine, living
on the engine's :class:`~repro.backend.ArrayBackend`.  Kernels request named
buffers with :meth:`WorkBuffers.get`; the first request allocates, every
later request with the same key/shape/dtype returns the *same* array, so a
steady-state iteration performs no scratch allocation at all.  Shapes are
engine-stable (fixed ``B``, ``n``, ``m``), so reallocation only happens if a
caller legitimately changes geometry.

Two rules keep reuse safe:

* only true *scratch* goes through the arena — anything that escapes an
  iteration (tours handed to reports, recorded lengths) must stay freshly
  allocated, otherwise later iterations would mutate recorded history;
* keys are namespaced per call-site (``"taskexact.w"``, ``"dep.vals"``), so
  two kernels can never alias each other's scratch within an engine.

:meth:`WorkBuffers.cached` complements :meth:`get` for *derived constants*
(flattened index bases, broadcast offset columns): values computed once from
engine-constant inputs and reused verbatim every iteration.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WorkBuffers"]


class WorkBuffers:
    """Keyed scratch-buffer arena on one array backend.

    Parameters
    ----------
    backend:
        The :class:`~repro.backend.ArrayBackend` (or name, or ``None`` for
        the resolved default) whose array module owns the buffers.
    """

    def __init__(self, backend=None) -> None:
        from repro.backend import resolve_backend

        self.backend = resolve_backend(backend)
        self._buffers: dict[str, np.ndarray] = {}
        self._derived: dict[str, object] = {}

    # ------------------------------------------------------------- buffers

    def get(self, key: str, shape, dtype) -> np.ndarray:
        """The arena buffer for ``key``, allocated on first use.

        Returns the same array on every call with matching shape/dtype;
        contents are whatever the previous user left (callers must reset
        any buffer whose starting value matters, e.g. visited masks).
        """
        buf = self._buffers.get(key)
        # Compared as given first: a hit (every call after the first, for
        # a fixed geometry) then skips normalising shape and dtype.
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            return buf
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self.backend.xp.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def cached(self, key: str, builder):
        """A derived constant, computed by ``builder()`` once per key.

        For values that depend only on engine-constant inputs (index bases,
        offset columns, transposed candidate tables of *static* data); the
        arena never invalidates them, so anything iteration-dependent must
        go through :meth:`get` instead.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = builder()
            return value

    def reset_derived(self) -> None:
        """Drop every :meth:`cached` derived constant (scratch buffers stay).

        Required when an arena is handed from one engine to another (the
        solve-service worker pattern): most derived constants are pure
        index tables stamped by geometry, but some — the Choice kernel's
        hoisted ``eta^beta`` — bake in *engine data* and would be silently
        wrong under a new engine of the same geometry.  The reusable
        ``get()`` buffers carry no such hazard (their contents are reset by
        each user), so the allocation win survives the reset.
        """
        self._derived.clear()

    # -------------------------------------------------------- introspection

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena's reusable buffers."""
        total = sum(int(b.nbytes) for b in self._buffers.values())
        for v in self._derived.values():
            total += int(getattr(v, "nbytes", 0))
        return total

    def __len__(self) -> int:
        return len(self._buffers) + len(self._derived)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WorkBuffers {len(self._buffers)} buffers + "
            f"{len(self._derived)} derived, {self.nbytes} B on "
            f"{self.backend.name!r}>"
        )
