"""Shared-memory instance cache keyed by canonical instance digests.

A burst of requests over the same coordinate instance would otherwise
re-serialize its coords once per request *and* per shard.  The router
instead publishes each distinct instance into one
:class:`multiprocessing.shared_memory.SharedMemory` block — keyed by the
same :func:`~repro.core.checkpoint.instance_digest` the checkpoint layer
uses, so "equal instance" means exactly one thing across both systems —
and forwards requests carrying a tiny ``{"shm": ..., "digest": ...}``
stub.  A worker attaches the block for each request, copies the coords
out, verifies the digest and rebuilds the
:class:`~repro.tsp.instance.TSPInstance`.  Workers keep no instance
cache: the serve-sharded traffic names a new instance per request, and a
rebuild costs 0.15 ms at n = 48, 1.1 ms at n = 200 and 39 ms at
n = 1000 (mostly the distance matrix the digest hashes, which the solve
then reuses), under 2% of a 10-iteration AS solve of the same instance
at n = 24 and at most 0.5% from n = 48 up (single-threaded numpy, x86-64).

Block layout: the raw little-endian float64 bytes of the ``(n, 2)``
coordinate array, nothing else — name/digest/edge-weight-type travel in
the wire stub.  Workers copy out and close immediately; only the router
holds blocks open.  Each :meth:`InstanceShmCache.wire_form` call takes a
reference that the router drops with :meth:`InstanceShmCache.release`
once that request has resolved; the last release unlinks the block, so a
stream of distinct instances holds only the blocks still in flight.

CPython 3.11 subtlety: *attaching* a block calls
``resource_tracker.register`` again — infamous for spurious exit-time
unlinks between unrelated processes (3.13 grew ``track=False`` for
that).  Here it is benign and must be left alone: ``multiprocessing``
children share their parent's tracker process (the fd rides the spawn
preparation data), whose cache is a per-name set — the worker's attach
register is a no-op duplicate of the router's create register, and the
one entry is removed exactly once by the router's ``unlink``.
Explicitly unregistering from a worker would *steal* the router's
registration (and crash-cleanup coverage) out of that shared set.
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoint import instance_digest
from repro.errors import ServeError
from repro.tsp.instance import TSPInstance

__all__ = ["InstanceShmCache", "resolve_shared_instance", "shared_instance_stub"]


class InstanceShmCache:
    """Router-side owner of one shared-memory block per instance digest.

    Single-threaded (asyncio loop) use.  Blocks are reference-counted:
    each :meth:`wire_form` call takes one reference, :meth:`release` drops
    one, and the last release unlinks the block; :meth:`close` unlinks
    whatever is left.
    """

    def __init__(self) -> None:
        # digest -> (SharedMemory, wire stub); loop-confined.
        self._blocks: dict[str, tuple] = {}
        # digest -> outstanding wire_form references; loop-confined.
        self._refs: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def wire_form(self, instance: TSPInstance) -> dict | None:
        """The ``{"shm": ...}`` stub for ``instance``, publishing its
        coords on first sight and taking one reference on the block (drop
        it with :meth:`release` once the request has resolved).  ``None``
        when the instance has no coords (explicit-matrix instances can't
        ride shared memory — the caller falls back to the inline wire
        form); no reference is taken then."""
        if instance.coords is None:
            return None
        digest = instance_digest(instance)
        entry = self._blocks.get(digest)
        if entry is None:
            from multiprocessing import shared_memory

            coords = np.ascontiguousarray(instance.coords, dtype=np.float64)
            shm = shared_memory.SharedMemory(create=True, size=coords.nbytes)
            shm.buf[: coords.nbytes] = coords.tobytes()
            stub = {
                "shm": shm.name,
                "digest": digest,
                "rows": int(coords.shape[0]),
                "name": instance.name,
                "edge_weight_type": instance.edge_weight_type,
            }
            entry = self._blocks[digest] = (shm, stub)
        self._refs[digest] = self._refs.get(digest, 0) + 1
        return dict(entry[1])

    def release(self, digest: str) -> None:
        """Drop one :meth:`wire_form` reference; the last one unlinks the
        block.  Unknown digests (already closed) are ignored."""
        refs = self._refs.get(digest, 0) - 1
        if refs > 0:
            self._refs[digest] = refs
            return
        self._refs.pop(digest, None)
        entry = self._blocks.pop(digest, None)
        if entry is not None:
            _unlink(entry[0])

    def close(self) -> None:
        """Release and unlink every published block (router shutdown)."""
        blocks, self._blocks = self._blocks, {}
        self._refs.clear()
        for shm, _stub in blocks.values():
            _unlink(shm)


def _unlink(shm) -> None:
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def shared_instance_stub(obj: dict) -> bool:
    """True when a wire instance object is a shared-memory stub."""
    return isinstance(obj, dict) and "shm" in obj


def resolve_shared_instance(obj: dict) -> TSPInstance:
    """Worker-side resolution of a shared-memory instance stub.

    Attach → copy coords out → close → verify the content digest.
    Raises :class:`~repro.errors.ServeError` on a missing block,
    a malformed stub, or a digest mismatch (all client-addressable error
    lines, never dropped connections).
    """
    try:
        name = str(obj["shm"])
        digest = str(obj["digest"])
        rows = int(obj["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed shared-memory instance stub: {exc}") from None
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise ServeError(
            f"shared-memory instance block {name!r} does not exist "
            "(router gone or stub stale)"
        ) from None
    # No resource_tracker unregister here — see the module docstring: the
    # worker shares the router's tracker, and the attach-time register is
    # a set no-op the router's unlink pairs with.
    try:
        nbytes = rows * 2 * 8
        if shm.size < nbytes:
            raise ServeError(
                f"shared-memory block {name!r} holds {shm.size} bytes, "
                f"need {nbytes} for {rows} coordinate rows"
            )
        coords = (
            np.frombuffer(shm.buf, dtype=np.float64, count=rows * 2)
            .reshape(rows, 2)
            .copy()
        )
    finally:
        shm.close()
    instance = TSPInstance(
        name=str(obj.get("name", "inline")),
        coords=coords,
        edge_weight_type=str(obj.get("edge_weight_type", "EUC_2D")),
    )
    if instance_digest(instance) != digest:
        raise ServeError(
            f"shared-memory instance {name!r} failed its digest check "
            "(router/worker content mismatch)"
        )
    return instance
