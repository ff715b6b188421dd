"""JSON-lines wire protocol and TCP front-end for the solve service.

One request or response per ``\\n``-terminated JSON object — trivially
scriptable (``nc`` + a JSON library is a full client) and streaming-friendly
(boundary updates are lines interleaved ahead of the final result line).

Request (client -> server)::

    {"id": "r1", "instance": {"suite": "att48"}, "iterations": 50,
     "report_every": 10, "params": {"seed": 7}, "deadline": 2.0,
     "target_length": 11200, "construction": 8, "pheromone": 1,
     "variant": "mmas", "local_search": "2opt", "ls_passes": 2,
     "ls_target": "iteration-best"}

``instance`` is either ``{"suite": NAME}`` (a paper-suite instance) or an
inline coordinate instance ``{"name": ..., "coords": [[x, y], ...],
"edge_weight_type": "EUC_2D"}``.  Every field except ``instance`` is
optional; ``id`` defaults to a server-assigned ordinal; ``variant``
defaults to ``"as"`` (``"acs"`` and ``"mmas"`` run on the same batched
engine; unknown values are answered with an ``error`` line).
``local_search`` defaults to ``"none"``; unknown values — and ls knobs
without an algorithm — are likewise answered with an ``error`` line.

Responses (server -> client), all tagged with the request ``id``::

    {"type": "accepted", "id": "r1"}
    {"type": "update", "id": "r1", "iteration": 10, "best_length": 11812}
    {"type": "result", "id": "r1", "best_length": 11423, "best_tour": [...],
     "iteration_best_lengths": [...], "iterations_run": 50,
     "wall_seconds": 0.41, "early": null}
    {"type": "error", "id": "r1", "error": "ACOConfigError", "message": "..."}

A connection may pipeline any number of requests; responses for different
requests interleave (match on ``id``).  Closing the connection does not
cancel accepted work.  EOF from the client (a half-close, as ``nc -N``
sends) ends only the request side: every accepted request still streams
to its last line, then the server closes the connection.

Admin lines carry an ``op`` instead of an ``instance`` — the live stats
and health planes::

    {"op": "stats", "id": "s1"}
    {"type": "stats", "id": "s1", "stats": {"submitted": 12, ...,
     "request_latency_seconds": {"count": 12, "p50": ..., "p95": ...}}}
    {"op": "health", "id": "h1"}
    {"type": "health", "id": "h1", "health": {"accepting": true,
     "queued": 0, "inflight_batches": 1, "workers_alive": 2,
     "last_batch_age_seconds": 0.8, ...}}

``stats`` answers with the service's
:meth:`~repro.serve.service.ServiceStats.snapshot` (batch counters,
flush-cause counts, queue-wait / batch-wall / request-latency
distributions); ``health`` with
:meth:`~repro.serve.service.SolveService.health` (queue depths, worker
liveness, last-batch age); unknown ops get an ``error`` line.  ``gpu-aco
stats`` is the CLI client for both.

Wire hardening: a line longer than ``max_line_bytes`` (default 1 MiB) or
one that is not valid UTF-8 JSON is answered with a structured ``error``
line and the connection **survives** — oversized input is discarded in
bounded chunks, never buffered whole.  The client helpers take connect /
read timeouts and bounded, jittered reconnect-retries for transient
connection errors.

This module is the only JSON-lines front: :func:`serve_tcp` serves an
in-process :class:`~repro.serve.service.SolveService` and a
:class:`~repro.shard.router.ShardRouter` through the same connection
handler, so the wire contract above holds on both tiers.
"""

from __future__ import annotations

import asyncio
import json
import math
import random

import numpy as np

from repro.core.colony import RunResult
from repro.core.params import ACOParams
from repro.errors import ReproError, ServeError
from repro.serve.service import SolveHandle, SolveRequest, SolveUpdate
from repro.tsp.instance import TSPInstance

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "ClientSession",
    "decode_request",
    "encode_error",
    "encode_request",
    "health_over_tcp",
    "instance_from_json",
    "instance_to_json",
    "request_over_tcp",
    "serve_tcp",
    "stats_over_tcp",
]

_PARAM_FIELDS = ("alpha", "beta", "rho", "n_ants", "nn", "seed", "eta_shift")

#: default cap on one wire line; oversized lines are discarded in bounded
#: chunks and answered with an ``error`` line (the connection survives)
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: cap on one response line a client (or the router's trunk to a worker)
#: reads.  asyncio's 64 KiB default is too small: a stats payload carries
#: up to 512 raw samples per histogram, and a result line grows with the
#: city count and the iteration count.
MAX_RESPONSE_LINE_BYTES = 1 << 26


def _line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


# ------------------------------------------------------------- encode / decode


def instance_to_json(instance: TSPInstance) -> dict:
    """Inline-JSON form of a coordinate instance."""
    if instance.coords is None:
        raise ServeError(
            "explicit-matrix instances cannot be inlined; serve them from "
            "the suite by name"
        )
    return {
        "name": instance.name,
        "coords": [[float(x), float(y)] for x, y in instance.coords],
        "edge_weight_type": instance.edge_weight_type,
    }


def instance_from_json(obj: dict) -> TSPInstance:
    if not isinstance(obj, dict):
        raise ServeError(f"instance must be an object, got {type(obj).__name__}")
    if "suite" in obj:
        from repro.tsp.suite import load_instance

        return load_instance(str(obj["suite"]))
    if "shm" in obj:
        # Shard-tier form: the router published the coords into a shared-
        # memory block keyed by content digest; resolve (and cache) it in
        # this worker process.
        from repro.shard.shm import resolve_shared_instance

        return resolve_shared_instance(obj)
    if "coords" not in obj:
        raise ServeError("instance needs 'suite', 'coords' or 'shm'")
    return TSPInstance(
        name=str(obj.get("name", "inline")),
        coords=np.asarray(obj["coords"], dtype=np.float64),
        edge_weight_type=str(obj.get("edge_weight_type", "EUC_2D")),
    )


def encode_request(
    request: SolveRequest, req_id: str, *, instance_obj: dict | None = None
) -> bytes:
    """One request as a JSON line (the in-process -> wire direction).

    ``instance_obj`` overrides the instance's wire form — the shard
    router forwards ``{"suite": ...}`` stubs and shared-memory stubs this
    way instead of re-inlining coords per request.
    """
    payload: dict = {
        "id": req_id,
        "instance": (
            instance_obj
            if instance_obj is not None
            else instance_to_json(request.instance)
        ),
        "iterations": request.iterations,
        "report_every": request.report_every,
        "construction": request.construction,
        "pheromone": request.pheromone,
        "variant": request.variant,
        "params": {f: getattr(request.params, f) for f in _PARAM_FIELDS},
    }
    if request.deadline is not None:
        payload["deadline"] = request.deadline
    if request.timeout is not None:
        payload["timeout"] = request.timeout
    if request.priority:
        payload["priority"] = request.priority
    if request.target_length is not None:
        payload["target_length"] = request.target_length
    if request.local_search != "none":
        payload["local_search"] = request.local_search
        payload["ls_target"] = request.ls_target
        if request.ls_passes is not None:
            payload["ls_passes"] = request.ls_passes
    return _line(payload)


def _parse_line(line: bytes | str) -> dict:
    """One wire line as a JSON object; :class:`~repro.errors.ServeError`
    on anything else (broken JSON *and* undecodable bytes — both are
    client errors that must become error responses, not dropped
    connections)."""
    try:
        obj = json.loads(line)
    except ValueError as exc:  # broken JSON, bad UTF-8, an over-long integer
        raise ServeError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ServeError("request must be a JSON object")
    return obj


def decode_request(line: bytes | str, *, default_id: str) -> tuple[str, SolveRequest]:
    """Parse one request line into ``(id, SolveRequest)``.

    Raises :class:`~repro.errors.ServeError` (or another
    :class:`~repro.errors.ReproError` from parameter validation) on any
    malformed input; the connection handler converts that into an
    ``error`` response instead of dropping the connection.
    """
    return decode_request_obj(_parse_line(line), default_id=default_id)


def _wire_int(obj: dict, name: str, default: int | None) -> int | None:
    """Field ``name`` as a JSON integer (``default`` when absent; a
    ``None`` default makes ``null`` legal too).  Bools, floats and strings
    are refused rather than truncated or parsed."""
    value = obj.get(name, default)
    if value is None and default is None:
        return None
    if type(value) is not int:
        raise ServeError(f"'{name}' must be a JSON integer, got {value!r:.40}")
    return value


def _wire_seconds(obj: dict, name: str) -> float | None:
    """Optional field ``name`` as a finite JSON number of seconds."""
    value = obj.get(name)
    if value is None:
        return None
    try:
        seconds = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond float range
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ServeError(f"'{name}' must be a finite JSON number, got {value!r:.40}")
    return seconds


def decode_request_obj(obj: dict, *, default_id: str) -> tuple[str, SolveRequest]:
    """Decode an already-parsed request object (see :func:`decode_request`).

    Integer fields (``iterations``, ``report_every``, ``priority``,
    ``target_length``, ``construction``, ``pheromone``, ``ls_passes``)
    take JSON integers only, and ``deadline`` / ``timeout`` finite
    numbers; anything else is a :class:`~repro.errors.ServeError`.
    """
    req_id = str(obj.get("id", default_id))
    try:
        if "instance" not in obj:
            raise ServeError("request is missing 'instance'")
        instance = instance_from_json(obj["instance"])
        raw_params = obj.get("params", {})
        if not isinstance(raw_params, dict):
            raise ServeError("'params' must be an object")
        unknown = set(raw_params) - set(_PARAM_FIELDS)
        if unknown:
            raise ServeError(f"unknown params fields: {sorted(unknown)}")
        params = ACOParams(**raw_params)
        request = SolveRequest(
            instance=instance,
            params=params,
            iterations=_wire_int(obj, "iterations", 20),
            report_every=_wire_int(obj, "report_every", 1),
            deadline=_wire_seconds(obj, "deadline"),
            timeout=_wire_seconds(obj, "timeout"),
            priority=_wire_int(obj, "priority", 0),
            target_length=_wire_int(obj, "target_length", None),
            construction=_wire_int(obj, "construction", 8),
            pheromone=_wire_int(obj, "pheromone", 1),
            variant=str(obj.get("variant", "as")),
            local_search=str(obj.get("local_search", "none")),
            ls_passes=_wire_int(obj, "ls_passes", None),
            ls_target=str(obj.get("ls_target", "iteration-best")),
        )
    except (TypeError, ValueError) as exc:
        # Well-formed JSON carrying wrong-typed values (ragged coords, a
        # string alpha, a list for iterations): still a client error, so it
        # must become an error *response*, never a dropped connection.
        wrapped = ServeError(f"bad request field: {exc}")
        wrapped.req_id = req_id  # type: ignore[attr-defined]
        raise wrapped from None
    except ReproError as exc:
        # Stamp the id we did manage to parse, so the connection handler
        # can address its error response.
        exc.req_id = req_id  # type: ignore[attr-defined]
        raise
    return req_id, request


def _encode_update(req_id: str, update: SolveUpdate) -> bytes:
    payload = {
        "type": "update",
        "id": req_id,
        "iteration": update.iteration,
        "best_length": update.best_length,
    }
    return _line(payload)


def _encode_result(req_id: str, result: RunResult, early: str | None) -> bytes:
    payload = {
        "type": "result",
        "id": req_id,
        "best_length": int(result.best_length),
        "best_tour": [int(c) for c in result.best_tour],
        "iteration_best_lengths": [int(v) for v in result.iteration_best_lengths],
        "iterations_run": len(result.iteration_best_lengths),
        "wall_seconds": float(result.wall_seconds),
        "early": early,
    }
    return _line(payload)


def encode_error(req_id: str | None, exc: BaseException) -> bytes:
    """An ``error`` response line for ``exc``, tagged with ``req_id``."""
    payload = {
        "type": "error",
        "id": req_id,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    return _line(payload)


# --------------------------------------------------------------------- server


async def _read_wire_line(
    reader: asyncio.StreamReader,
) -> tuple[bytes, int]:
    """One line from a limit-bounded reader; ``(line, discarded_bytes)``.

    The reader's ``limit`` (set at ``start_server`` time) bounds how much
    an unterminated line may buffer.  An over-limit line is consumed and
    thrown away in limit-sized chunks up to its terminating newline —
    memory stays bounded no matter how long the line is — and reported as
    ``(b"", discarded)`` with ``discarded > 0`` so the caller can answer
    with a structured error.  EOF returns ``(b"", 0)``; a final
    unterminated line within the limit is returned as-is.
    """
    try:
        return await reader.readuntil(b"\n"), 0
    except asyncio.IncompleteReadError as exc:
        return exc.partial, 0  # EOF (possibly an unterminated final line)
    except asyncio.LimitOverrunError as exc:
        discarded = 0
        consumed = exc.consumed
        while True:
            # Drop the buffered over-limit bytes, then keep scanning for
            # the newline; every pass consumes what the buffer holds.
            chunk = await reader.read(max(consumed, 1))
            discarded += len(chunk)
            if not chunk:  # EOF inside the oversized line
                break
            try:
                tail = await reader.readuntil(b"\n")
                discarded += len(tail)
                break
            except asyncio.IncompleteReadError as eof:
                discarded += len(eof.partial)
                break
            except asyncio.LimitOverrunError as more:
                consumed = more.consumed
        return b"", discarded


class ClientSession:
    """One client connection's write side, shared by every response on it.

    :meth:`send` serializes writes and drops them once the client is gone:
    closing a connection never cancels accepted work.  :meth:`accept` and
    :meth:`finish` bracket each accepted request, so after the client's
    EOF the connection handler waits (:meth:`wait_idle`) until every
    accepted request has sent its last line, then closes.
    """

    __slots__ = ("writer", "lock", "alive", "_open", "_idle", "_streams")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.alive = True
        self._open = 0  # accepted requests without their last line yet
        self._idle = asyncio.Event()
        self._idle.set()
        self._streams: set[asyncio.Task] = set()

    async def send(self, data: bytes) -> None:
        if not self.alive:
            return
        async with self.lock:
            if self.writer.is_closing():
                self.alive = False
                return
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                self.alive = False

    def _count(self, delta: int) -> None:
        self._open += delta
        if self._open > 0:
            self._idle.clear()
        else:
            self._idle.set()

    async def accept(self, req_id: str) -> None:
        """Send ``accepted``; the request now counts until :meth:`finish`."""
        self._count(1)
        await self.send(_line({"type": "accepted", "id": req_id}))

    async def finish(self, data: bytes) -> None:
        """Send an accepted request's last line (``result`` or ``error``)
        and stop counting it."""
        try:
            if data:
                await self.send(data)
        finally:
            self._count(-1)

    async def stream(self, req_id: str, handle: SolveHandle) -> None:
        """Accept an in-process handle and relay its lines in the background."""
        await self.accept(req_id)
        task = asyncio.create_task(_stream_response(handle, req_id, self))
        self._streams.add(task)
        task.add_done_callback(self._streams.discard)

    async def wait_idle(self) -> None:
        await self._idle.wait()


async def _stream_response(
    handle: SolveHandle, req_id: str, session: ClientSession
) -> None:
    """Relay one handle's updates and final result onto its session."""
    final = b""
    try:
        async for update in handle:
            await session.send(_encode_update(req_id, update))
        try:
            result = await handle.result()
        except ReproError as exc:
            final = encode_error(req_id, exc)
        else:
            # Early resolution is visible as an empty iteration trace; the
            # wire surfaces it as a tag so clients need no such inference.
            early = None
            if not result.iteration_best_lengths:
                early = "deadline_or_target"
            final = _encode_result(req_id, result, early)
    finally:
        await session.finish(final)


async def _admin_response(front, obj: dict, default_id: str) -> bytes:
    """Answer an admin line inline, never queued behind solve work."""
    op = str(obj["op"])
    op_id = str(obj.get("id", default_id))
    if op == "stats":
        return _line({"type": op, "id": op_id, op: await front.stats_payload()})
    if op == "health":
        return _line({"type": op, "id": op_id, op: await front.health_payload()})
    raise ServeError(f"unknown op {op!r} (supported: 'stats', 'health')")


async def _handle_connection(
    front,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    session = ClientSession(writer)
    counter = 0
    try:
        while True:
            line, discarded = await _read_wire_line(reader)
            if discarded:
                counter += 1
                await session.send(
                    encode_error(
                        None,
                        ServeError(
                            f"line too long ({discarded} bytes discarded); "
                            "one request per newline-terminated line"
                        ),
                    )
                )
                continue
            if not line:  # EOF
                break
            if not line.strip():
                continue
            counter += 1
            req_id: str | None = None
            try:
                obj = _parse_line(line)
                if "op" in obj:
                    await session.send(
                        await _admin_response(front, obj, f"req-{counter}")
                    )
                    continue
                req_id, request = decode_request_obj(
                    obj, default_id=f"req-{counter}"
                )
                await front.submit_wire(obj, req_id, request, session)
            except ReproError as exc:
                await session.send(
                    encode_error(getattr(exc, "req_id", req_id), exc)
                )
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        # EOF ends the request side only: every accepted request streams
        # to its last line before the connection closes.
        await session.wait_idle()
        session.alive = False
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def serve_tcp(
    front,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
) -> asyncio.AbstractServer:
    """Start the JSON-lines TCP front-end on an already-started front.

    ``front`` is a :class:`~repro.serve.service.SolveService` (solves in
    process) or a :class:`~repro.shard.router.ShardRouter` (routes to
    worker shards); the handler only calls what both provide:
    ``submit_wire(raw_obj, req_id, request, session)`` (submit a decoded
    request and stream its lines onto the :class:`ClientSession`), and
    the admin payloads ``stats_payload()`` and ``health_payload()``.

    Returns the :class:`asyncio.AbstractServer`; the caller owns both
    lifetimes (close the server, then drain the front).  ``port=0``
    binds an ephemeral port (see ``server.sockets[0].getsockname()``).
    ``max_line_bytes`` bounds per-connection buffering: longer lines are
    discarded in bounded chunks and answered with an ``error`` line.
    """
    if max_line_bytes < 1:
        raise ServeError(
            f"max_line_bytes must be >= 1, got {max_line_bytes}"
        )

    async def handler(reader, writer):
        try:
            await _handle_connection(front, reader, writer)
        except asyncio.CancelledError:
            # Loop shutdown cancels open connections; end the task quietly —
            # 3.11's stream machinery logs handler tasks that finish
            # cancelled as "Exception in callback" noise.
            writer.close()

    return await asyncio.start_server(
        handler, host, port, limit=max_line_bytes
    )


# --------------------------------------------------------------------- client


async def _connect_with_retries(
    host: str,
    port: int,
    *,
    connect_timeout: float | None = None,
    connect_retries: int = 0,
    retry_backoff: float = 0.05,
    jitter_seed: int = 0,
):
    """``open_connection`` with a timeout and bounded jittered retries.

    Transient failures (refused/reset/unreachable, or a connect that
    times out) are retried up to ``connect_retries`` times with seeded
    exponential backoff; the final failure surfaces as
    :class:`~repro.errors.ServeError` carrying the underlying cause.
    """
    rng = random.Random(jitter_seed)
    attempt = 0
    while True:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(
                    host, port, limit=MAX_RESPONSE_LINE_BYTES
                ),
                connect_timeout,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            if attempt >= connect_retries:
                raise ServeError(
                    f"cannot connect to {host}:{port} after "
                    f"{attempt + 1} attempt(s): {exc!r}"
                ) from exc
            delay = retry_backoff * (2**attempt) * (1.0 + rng.random())
            await asyncio.sleep(delay)
            attempt += 1


async def _exchange(
    host: str,
    port: int,
    line: bytes,
    on_response,
    *,
    read_timeout: float | None = None,
    **connect_kwargs,
):
    """One client exchange: connect (:func:`_connect_with_retries` takes
    ``connect_kwargs``), send ``line``, then feed each decoded non-error
    response to ``on_response`` until it returns a value, which is
    returned.  ``error`` responses, an early close and a response line
    slower than ``read_timeout`` seconds (None = no bound) raise
    :class:`~repro.errors.ServeError`; the connection always closes."""
    reader, writer = await _connect_with_retries(host, port, **connect_kwargs)
    try:
        writer.write(line)
        await writer.drain()
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(), read_timeout)
            except asyncio.TimeoutError:
                raise ServeError(
                    f"no response from server within {read_timeout}s"
                ) from None
            if not raw:
                raise ServeError("server closed the connection mid-request")
            obj = json.loads(raw)
            if obj.get("type") == "error":
                raise ServeError(
                    f"server error {obj.get('error')}: {obj.get('message')}"
                )
            done = on_response(obj)
            if done is not None:
                return done
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def request_over_tcp(
    host: str,
    port: int,
    request: SolveRequest,
    *,
    req_id: str = "r0",
    connect_timeout: float | None = None,
    read_timeout: float | None = None,
    connect_retries: int = 0,
    retry_backoff: float = 0.05,
    jitter_seed: int = 0,
) -> tuple[list[dict], dict]:
    """Fire one request at a running server; return ``(updates, final)``.

    ``updates`` are the decoded ``update`` payloads in arrival order;
    ``final`` is the ``result`` payload.  Raises
    :class:`~repro.errors.ServeError` when the server answers with an
    ``error`` response, closes early, cannot be reached within
    ``connect_timeout`` (after ``connect_retries`` jittered re-attempts),
    or goes silent past ``read_timeout``.  Mainly a smoke-test/client
    building block — production clients should keep one connection and
    pipeline.
    """
    updates: list[dict] = []

    def on_response(obj: dict):
        kind = obj.get("type")
        if kind == "result":
            return updates, obj
        if kind == "update":
            updates.append(obj)
        elif kind != "accepted":
            raise ServeError(f"unknown response type {kind!r}")
        return None

    return await _exchange(
        host,
        port,
        encode_request(request, req_id),
        on_response,
        connect_timeout=connect_timeout,
        read_timeout=read_timeout,
        connect_retries=connect_retries,
        retry_backoff=retry_backoff,
        jitter_seed=jitter_seed,
    )


async def _admin_over_tcp(
    host: str, port: int, op: str, req_id: str, **net_kwargs
) -> dict:
    """One admin round-trip (``stats`` / ``health``); returns the payload."""

    def on_response(obj: dict):
        if obj.get("type") != op:
            raise ServeError(f"unknown response type {obj.get('type')!r}")
        return obj[op]

    return await _exchange(
        host, port, _line({"op": op, "id": req_id}), on_response, **net_kwargs
    )


async def stats_over_tcp(
    host: str, port: int, *, req_id: str = "stats-0", **net_kwargs
) -> dict:
    """Scrape a running server's live stats snapshot over one connection.

    Sends ``{"op": "stats"}`` and returns the decoded ``stats`` payload
    (:meth:`~repro.serve.service.ServiceStats.snapshot`).  Raises
    :class:`~repro.errors.ServeError` on an ``error`` response or early
    close; accepts the same ``connect_timeout`` / ``read_timeout`` /
    ``connect_retries`` / ``retry_backoff`` / ``jitter_seed`` knobs as
    :func:`request_over_tcp`.  This is what ``gpu-aco stats`` calls.
    """
    return await _admin_over_tcp(host, port, "stats", req_id, **net_kwargs)


async def health_over_tcp(
    host: str, port: int, *, req_id: str = "health-0", **net_kwargs
) -> dict:
    """Probe a running server's liveness over one connection.

    Sends ``{"op": "health"}`` and returns the decoded ``health`` payload
    (:meth:`~repro.serve.service.SolveService.health`: queue depths,
    worker liveness, last-batch age).  Same network knobs as
    :func:`stats_over_tcp`.
    """
    return await _admin_over_tcp(host, port, "health", req_id, **net_kwargs)
