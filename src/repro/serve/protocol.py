"""JSON-lines wire protocol and TCP front-end for the solve service.

One request or response per ``\\n``-terminated JSON object — trivially
scriptable (``nc`` + a JSON library is a full client) and streaming-friendly
(boundary updates are lines interleaved ahead of the final result line).

Request (client -> server)::

    {"id": "r1", "instance": {"suite": "att48"}, "iterations": 50,
     "report_every": 10, "params": {"seed": 7, "beta": 5}, "deadline": 2.0,
     "target_length": 11200, "construction": 8, "pheromone": 1,
     "variant": "mmas", "local_search": "2opt", "ls_passes": 2,
     "ls_target": "iteration-best"}

``instance`` is either ``{"suite": NAME}`` (a paper-suite instance) or an
inline coordinate instance ``{"name": ..., "coords": [[x, y], ...],
"edge_weight_type": "EUC_2D"}``; ``suite``, ``name`` and
``edge_weight_type`` take JSON strings, coords must be finite and the
edge-weight type supported.  ``id`` is a JSON string or integer,
echoed as sent (absent: a server-assigned ordinal).  Every other field,
and every ``params`` field, is optional and typed by one field table built
from :class:`~repro.serve.service.SolveRequest` and
:class:`~repro.core.params.ACOParams`: an ``int`` takes a JSON integer (no
bool), a ``float`` a finite JSON number, a ``str`` a JSON string, ``null``
is legal only where the default is ``None``, and an absent field takes its
dataclass default.  A wrong type, an unknown ``params`` field or a value
the dataclasses refuse (a ``variant`` other than ``"as"`` / ``"acs"`` /
``"mmas"``, ls knobs without an algorithm) gets one ``error`` line.

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
import dataclasses
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

#: default cap on one wire line; oversized lines are discarded in bounded
#: chunks and answered with an ``error`` line (the connection survives)
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: cap on one response line a client (or the router's trunk to a worker)
#: reads.  asyncio's 64 KiB default is too small: a result line grows with
#: the city count (``best_tour``) and the iteration count
#: (``iteration_best_lengths``).
MAX_RESPONSE_LINE_BYTES = 1 << 26


def _line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


# ----------------------------------------------------------------- field table


def _finite_float(value) -> float | None:
    """A finite JSON number (an integer too) as ``float``, else ``None``."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond float range
        number = math.inf
    return number if math.isfinite(number) else None


#: per field annotation: a reader that returns the field's value, or
#: ``None`` to refuse the JSON value (``int`` and ``str`` take exactly that
#: JSON type, so never a bool), and what the field takes, for errors
_WIRE_TYPES = {
    "int": (lambda value: value if type(value) is int else None, "a JSON integer"),
    "float": (_finite_float, "a finite JSON number"),
    "str": (lambda value: value if type(value) is str else None, "a JSON string"),
}


def _field_table(cls, skip: tuple[str, ...] = ()) -> tuple:
    """``(name, (reader, noun), default)`` for each field of dataclass
    ``cls``.  Both dataclasses' modules postpone annotations, so ``f.type``
    is a string (``"int | None"``); one with no reader fails at import."""
    return tuple(
        (f.name, _WIRE_TYPES[f.type.removesuffix(" | None")], f.default)
        for f in dataclasses.fields(cls)
        if f.name not in skip
    )


#: the request schema, built once at import: the top level (besides ``id``,
#: ``instance`` and ``params``) and the ``params`` object
_REQUEST_FIELDS = _field_table(SolveRequest, skip=("instance", "params"))
_PARAMS_FIELDS = _field_table(ACOParams)

#: an instance object's string fields (``coords`` is read on its own
#: path); ``suite`` has no default
_INSTANCE_FIELDS = tuple(
    (name, _WIRE_TYPES["str"], default)
    for name, default in (("suite", ""), ("name", "inline"), ("edge_weight_type", "EUC_2D"))
)


def _read_fields(table: tuple, obj: dict, prefix: str = "") -> dict:
    """The fields of ``table`` present in ``obj``, read strictly (``null``
    only where the default is ``None``); absent ones keep their default."""
    kwargs = {}
    for name, (read, noun), default in table:
        if name not in obj:
            continue
        raw = obj[name]
        if raw is None and default is None:
            kwargs[name] = None
        elif (value := read(raw)) is not None:
            kwargs[name] = value
        else:
            raise ServeError(f"'{prefix}{name}' must be {noun}, got {raw!r:.40}")
    return kwargs


def _changed_fields(table: tuple, record) -> dict:
    """The fields of ``table`` whose value in ``record`` is not the default."""
    return {
        name: getattr(record, name)
        for name, _, default in table
        if getattr(record, name) != default
    }


def _read_id(obj: dict, default_id: str) -> str | int:
    """A line's ``id``: a JSON string or integer, echoed as sent."""
    req_id = obj.get("id", default_id)
    if type(req_id) not in (str, int):
        raise ServeError(f"'id' must be a JSON string or integer, got {req_id!r:.40}")
    return req_id


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
    """The instance a request names: a suite entry or inline coords.
    Inline coords are checked by :class:`~repro.tsp.instance.TSPInstance`
    itself (finite values, a supported ``edge_weight_type``)."""
    if not isinstance(obj, dict):
        raise ServeError(f"instance must be an object, got {type(obj).__name__}")
    fields = {name: default for name, _, default in _INSTANCE_FIELDS}
    fields.update(_read_fields(_INSTANCE_FIELDS, obj, "instance."))
    if "suite" in obj:
        from repro.tsp.suite import load_instance

        return load_instance(fields["suite"])
    if "coords" not in obj:
        raise ServeError("instance needs 'suite' or 'coords'")
    return TSPInstance(
        name=fields["name"],
        coords=np.asarray(obj["coords"], dtype=np.float64),
        edge_weight_type=fields["edge_weight_type"],
    )


def encode_request(
    request: SolveRequest, req_id: str | int, *, instance_obj: dict | None = None
) -> bytes:
    """One request as a JSON line (the in-process -> wire direction).

    Only fields that differ from their defaults are written.
    ``instance_obj`` overrides the instance's wire form — the shard
    router forwards ``{"suite": ...}`` stubs and the client's own inline
    instance object this way instead of re-encoding coords per request.
    """
    if instance_obj is None:
        instance_obj = instance_to_json(request.instance)
    payload = {"id": req_id, "instance": instance_obj}
    payload.update(_changed_fields(_REQUEST_FIELDS, request))
    params = _changed_fields(_PARAMS_FIELDS, request.params)
    if params:
        payload["params"] = params
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


def decode_request(line: bytes | str, *, default_id: str) -> tuple[str | int, SolveRequest]:
    """Parse one request line into ``(id, SolveRequest)``.

    Raises :class:`~repro.errors.ServeError` (or another
    :class:`~repro.errors.ReproError` from parameter validation) on any
    malformed input; the connection handler converts that into an
    ``error`` response instead of dropping the connection.
    """
    return decode_request_obj(_parse_line(line), default_id=default_id)


def decode_request_obj(obj: dict, *, default_id: str) -> tuple[str | int, SolveRequest]:
    """Decode an already-parsed request object (see :func:`decode_request`).

    The top level and ``params`` are read through the field table (see
    the module docstring); a field of the wrong JSON type is a
    :class:`~repro.errors.ServeError` naming it (``'params.seed'``).
    """
    req_id = _read_id(obj, default_id)
    try:
        if "instance" not in obj:
            raise ServeError("request is missing 'instance'")
        instance = instance_from_json(obj["instance"])
        raw_params = obj.get("params", {})
        if not isinstance(raw_params, dict):
            raise ServeError("'params' must be an object")
        params = _read_fields(_PARAMS_FIELDS, raw_params, "params.")
        if len(params) < len(raw_params):
            unknown = sorted(raw_params.keys() - params.keys())
            raise ServeError(f"unknown params fields: {unknown}")
        request = SolveRequest(
            instance=instance,
            params=ACOParams(**params),
            **_read_fields(_REQUEST_FIELDS, obj),
        )
    except (TypeError, ValueError) as exc:
        # Well-formed JSON carrying a malformed instance (ragged or
        # non-numeric coords): still a client error, so it must become an
        # error *response*, never a dropped connection.
        wrapped = ServeError(f"bad request field: {exc}")
        wrapped.req_id = req_id  # type: ignore[attr-defined]
        raise wrapped from None
    except ReproError as exc:
        # Stamp the id we did manage to parse, so the connection handler
        # can address its error response.
        exc.req_id = req_id  # type: ignore[attr-defined]
        raise
    return req_id, request


def _encode_update(req_id: str | int, update: SolveUpdate) -> bytes:
    return _line({
        "type": "update",
        "id": req_id,
        "iteration": update.iteration,
        "best_length": update.best_length,
    })


def _encode_result(req_id: str | int, result: RunResult, early: str | None) -> bytes:
    return _line({
        "type": "result",
        "id": req_id,
        "best_length": int(result.best_length),
        "best_tour": [int(c) for c in result.best_tour],
        "iteration_best_lengths": [int(v) for v in result.iteration_best_lengths],
        "iterations_run": len(result.iteration_best_lengths),
        "wall_seconds": float(result.wall_seconds),
        "early": early,
    })


def encode_error(req_id: str | int | None, exc: BaseException) -> bytes:
    """An ``error`` response line for ``exc``, tagged with ``req_id``."""
    return _line({
        "type": "error",
        "id": req_id,
        "error": type(exc).__name__,
        "message": str(exc),
    })


# --------------------------------------------------------------------- server


async def _read_wire_line(reader: asyncio.StreamReader) -> tuple[bytes, int]:
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
                return b"", discarded
            try:
                return b"", discarded + len(await reader.readuntil(b"\n"))
            except asyncio.IncompleteReadError as eof:
                return b"", discarded + len(eof.partial)
            except asyncio.LimitOverrunError as more:
                consumed = more.consumed


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

    async def accept(self, req_id: str | int) -> None:
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

    async def stream(self, req_id: str | int, handle: SolveHandle) -> None:
        """Accept an in-process handle and relay its lines in the background."""
        await self.accept(req_id)
        task = asyncio.create_task(_stream_response(handle, req_id, self))
        self._streams.add(task)
        task.add_done_callback(self._streams.discard)

    async def wait_idle(self) -> None:
        await self._idle.wait()


async def _stream_response(handle: SolveHandle, req_id: str | int, session: ClientSession) -> None:
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
            early = None if result.iteration_best_lengths else "deadline_or_target"
            final = _encode_result(req_id, result, early)
    finally:
        await session.finish(final)


async def _admin_response(front, obj: dict, default_id: str) -> bytes:
    """Answer an admin line inline, never queued behind solve work."""
    op = str(obj["op"])
    op_id = _read_id(obj, default_id)
    if op == "stats":
        return _line({"type": op, "id": op_id, op: await front.stats_payload()})
    if op == "health":
        return _line({"type": op, "id": op_id, op: await front.health_payload()})
    raise ServeError(f"unknown op {op!r} (supported: 'stats', 'health')")


async def _handle_connection(
    front, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    session = ClientSession(writer)
    counter = 0
    try:
        while True:
            line, discarded = await _read_wire_line(reader)
            if not line and not discarded:  # EOF
                break
            if not discarded and not line.strip():
                continue
            counter += 1
            req_id: str | int | None = None
            try:
                if discarded:
                    raise ServeError(
                        f"line too long ({discarded} bytes discarded); "
                        "one request per newline-terminated line"
                    )
                obj = _parse_line(line)
                if "op" in obj:
                    await session.send(await _admin_response(front, obj, f"req-{counter}"))
                    continue
                req_id, request = decode_request_obj(obj, default_id=f"req-{counter}")
                await front.submit_wire(obj, req_id, request, session)
            except ReproError as exc:
                await session.send(encode_error(getattr(exc, "req_id", req_id), exc))
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
        raise ServeError(f"max_line_bytes must be >= 1, got {max_line_bytes}")

    async def handler(reader, writer):
        try:
            await _handle_connection(front, reader, writer)
        except asyncio.CancelledError:
            # Loop shutdown cancels open connections; end the task quietly —
            # 3.11's stream machinery logs handler tasks that finish
            # cancelled as "Exception in callback" noise.
            writer.close()

    return await asyncio.start_server(handler, host, port, limit=max_line_bytes)


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
            connect = asyncio.open_connection(host, port, limit=MAX_RESPONSE_LINE_BYTES)
            return await asyncio.wait_for(connect, connect_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            if attempt >= connect_retries:
                raise ServeError(
                    f"cannot connect to {host}:{port} after "
                    f"{attempt + 1} attempt(s): {exc!r}"
                ) from exc
            await asyncio.sleep(retry_backoff * (2**attempt) * (1.0 + rng.random()))
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
                raise ServeError(f"no response from server within {read_timeout}s") from None
            if not raw:
                raise ServeError("server closed the connection mid-request")
            obj = json.loads(raw)
            if obj.get("type") == "error":
                raise ServeError(f"server error {obj.get('error')}: {obj.get('message')}")
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
    **net_kwargs,
) -> tuple[list[dict], dict]:
    """Fire one request at a running server; return ``(updates, final)``.

    ``updates`` are the decoded ``update`` payloads in arrival order;
    ``final`` is the ``result`` payload.  Raises
    :class:`~repro.errors.ServeError` when the server answers with an
    ``error`` response, closes early, cannot be reached within
    ``connect_timeout`` (after ``connect_retries`` jittered re-attempts),
    or goes silent past ``read_timeout``; ``retry_backoff`` and
    ``jitter_seed`` shape the re-attempts.  Mainly a smoke-test/client
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
        host, port, encode_request(request, req_id), on_response, **net_kwargs
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
