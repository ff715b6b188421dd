"""Wire-level chaos: the TCP front-end must survive hostile bytes.

Replays the deterministic malformed-line corpus
(:func:`~repro.serve.faults.malformed_wire_lines`) against a live server:
every garbage line gets a structured ``error`` response, the connection
survives, and a well-formed request afterwards still completes.  The
wire-contract tests run on both fronts ``serve_tcp`` serves — an
in-process ``SolveService`` and a one-shard ``ShardRouter`` — so the
router's error lines are pinned too, and so is the wire-schema property of
``tests/serve/test_wire_schema.py`` (any JSON value in any field), run
live.  Also pins the client-side connect-retry/timeout seam.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import ACOParams
from repro.errors import ServeError
from repro.serve import (
    SolveRequest,
    SolveService,
    health_over_tcp,
    malformed_wire_lines,
    request_over_tcp,
    serve_tcp,
    stats_over_tcp,
)
from repro.serve.protocol import DEFAULT_MAX_LINE_BYTES, encode_request
from repro.shard import ShardConfig, ShardRouter
from repro.tsp import uniform_instance
from tests.serve.test_wire_schema import DEEP, FIELDS, base_line_obj, json_values, place

MAX_LINE = 4096


def _request(seed: int, **kwargs) -> SolveRequest:
    kwargs.setdefault("iterations", 4)
    kwargs.setdefault("report_every", 4)
    return SolveRequest(
        instance=uniform_instance(12, seed=800 + seed),
        params=ACOParams(seed=seed, nn=7),
        **kwargs,
    )


class _ServedFront:
    """A front behind ``serve_tcp`` on a private event loop in a background
    thread, so one router (worker process included) serves a whole
    module; tests talk to it over TCP from their own loops."""

    def __init__(self, kind: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.port = self._call(self._start(kind))

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(120)

    async def _start(self, kind: str) -> int:
        if kind == "service":
            self.front = SolveService(max_batch=2, workers=1)
        else:
            self.front = ShardRouter(1, ShardConfig(max_batch=2))
        await self.front.start()
        self.server = await serve_tcp(self.front, port=0, max_line_bytes=MAX_LINE)
        return self.server.sockets[0].getsockname()[1]

    async def _stop(self) -> None:
        self.server.close()
        await self.server.wait_closed()
        await self.front.drain()

    def close(self) -> None:
        self._call(self._stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30)
        self._loop.close()


@pytest.fixture(scope="module", params=["service", "router"])
def port(request):
    """The listening port of a module-wide front of each kind."""
    served = _ServedFront(request.param)
    try:
        yield served.port
    finally:
        served.close()


async def _with_server(fn, **serve_kwargs):
    serve_kwargs.setdefault("max_line_bytes", MAX_LINE)
    async with SolveService(max_batch=2, workers=1) as service:
        server = await serve_tcp(service, port=0, **serve_kwargs)
        port = server.sockets[0].getsockname()[1]
        try:
            return await fn(service, port)
        finally:
            server.close()
            await server.wait_closed()


class TestMalformedLines:
    def test_corpus_is_deterministic(self):
        a = malformed_wire_lines(seed=4, oversized_bytes=MAX_LINE)
        b = malformed_wire_lines(seed=4, oversized_bytes=MAX_LINE)
        assert a == b
        assert len(a[0]) > MAX_LINE  # the oversized entry really oversizes

    def test_every_garbage_line_gets_an_error_and_connection_survives(self, port):
        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for line in malformed_wire_lines(oversized_bytes=MAX_LINE):
                    writer.write(line)
                    await writer.drain()
                    resp = json.loads(await reader.readline())
                    assert resp["type"] == "error", resp
                # The same connection still serves a real request.
                writer.write(encode_request(_request(1), "after-chaos"))
                await writer.drain()
                while True:
                    obj = json.loads(await reader.readline())
                    if obj["type"] == "result":
                        assert obj["id"] == "after-chaos"
                        return
                    assert obj["type"] in ("accepted", "update")
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())

    def test_oversized_line_is_discarded_not_buffered(self, port):
        """A line far past the cap is answered (and discarded) — the
        error response reports how much was thrown away."""

        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"x" * (MAX_LINE * 8) + b"\n")
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert resp["type"] == "error"
                assert "too long" in resp["message"]
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())

    def test_default_line_cap_is_one_mib(self):
        assert DEFAULT_MAX_LINE_BYTES == 1 << 20


#: lines the wire once decoded by truncation or coercion; each must now
#: get exactly one error line
LAX_NUMBER_LINES = [
    b'{"id": "lax0", "instance": {"suite": "att48"}, "iterations": 1.9}\n',
    b'{"id": "lax1", "instance": {"suite": "att48"}, "iterations": true}\n',
    b'{"id": "lax2", "instance": {"suite": "att48"}, "iterations": "3"}\n',
    b'{"id": "lax3", "instance": {"suite": "att48"}, "priority": 2.7}\n',
    b'{"id": "lax4", "instance": {"suite": "att48"}, "construction": 8.9}\n',
    b'{"id": "lax5", "instance": {"suite": "att48"}, "deadline": NaN}\n',
    b'{"id": "lax6", "instance": {"suite": "att48"}, "timeout": Infinity}\n',
    b'{"id": "lax7", "instance": {"suite": "att48"}, "params": {"seed": 7.5}}\n',
    b'{"id": "lax8", "instance": {"suite": "att48"}, "params": {"seed": "7"}}\n',
    b'{"id": "lax9", "instance": {"suite": "att48"}, "params": {"nn": 2.5}}\n',
    b'{"id": "lax10", "instance": {"suite": "att48"}, "params": {"nn": true}}\n',
    b'{"id": "lax11", "instance": {"suite": "att48"}, "params": {"alpha": NaN}}\n',
    b'{"id": "lax12", "instance": {"suite": "att48"}, "params": {"beta": 1e400}}\n',
    b'{"id": "lax13", "instance": {"suite": "att48"}, "params": {"n_ants": true}}\n',
]

#: lines whose ``id`` or string field the wire once coerced with ``str()``;
#: each pairs with the id its one error line carries (``None`` when the id
#: itself is refused) and the field its message names
STRING_FIELD_LINES = [
    (b'{"id": {"a": 1}, "instance": {"suite": "att48"}}\n', None, "id"),
    (b'{"id": null, "instance": {"suite": "att48"}}\n', None, "id"),
    (b'{"id": 2.5, "instance": {"suite": "att48"}}\n', None, "id"),
    (b'{"id": "s0", "instance": {"suite": "att48"}, "variant": 5}\n', "s0", "variant"),
    (
        b'{"id": "s1", "instance": {"suite": "att48"}, "local_search": ["2opt"]}\n',
        "s1",
        "local_search",
    ),
    (
        b'{"id": "s2", "instance": {"suite": "att48"}, "local_search": "2opt",'
        b' "ls_target": null}\n',
        "s2",
        "ls_target",
    ),
    # Instance fields: coords that are not finite, an edge-weight type the
    # distance table lacks, and string fields sent as numbers.
    (b'{"id": "s3", "instance": {"coords": [[0, 0], [1e400, 0], [0, 4]]}}\n', "s3", "coords"),
    (b'{"id": "s4", "instance": {"coords": [[0, 0], [NaN, 0], [0, 4]]}}\n', "s4", "coords"),
    (
        b'{"id": "s5", "instance": {"coords": [[0, 0], [3, 0], [0, 4]],'
        b' "edge_weight_type": "FOO"}}\n',
        "s5",
        "edge_weight_type",
    ),
    (
        b'{"id": "s6", "instance": {"coords": [[0, 0], [3, 0], [0, 4]],'
        b' "edge_weight_type": 2}}\n',
        "s6",
        "instance.edge_weight_type",
    ),
    (
        b'{"id": "s7", "instance": {"coords": [[0, 0], [3, 0], [0, 4]], "name": 5}}\n',
        "s7",
        "instance.name",
    ),
    (b'{"id": "s8", "instance": {"suite": 48}}\n', "s8", "instance.suite"),
]


def _named_field(line: bytes) -> str:
    """The one field a lax line sets besides ``id`` and ``instance``."""
    obj = json.loads(line)
    (field,) = obj.keys() - {"id", "instance"}
    if field == "params":
        (name,) = obj["params"]
        field = f"params.{name}"
    return field


class TestStrictNumbers:
    def test_lax_numbers_get_one_error_line_each(self, port):
        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for k, line in enumerate(LAX_NUMBER_LINES):
                    writer.write(line)
                    await writer.drain()
                    resp = json.loads(await reader.readline())
                    assert resp["type"] == "error", resp
                    assert resp["id"] == f"lax{k}", resp
                    assert _named_field(line) in resp["message"], resp
                # Nothing else was queued for those lines: the next line
                # answers the next request, on the same connection.
                writer.write(encode_request(_request(2), "after-lax"))
                await writer.drain()
                obj = json.loads(await reader.readline())
                assert obj == {"type": "accepted", "id": "after-lax"}
                while obj["type"] != "result":
                    obj = json.loads(await reader.readline())
                    assert obj["id"] == "after-lax"
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())


    def test_string_fields_and_ids_get_one_error_line_each(self, port):
        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for line, req_id, field in STRING_FIELD_LINES:
                    writer.write(line)
                    await writer.drain()
                    resp = json.loads(await reader.readline())
                    assert resp["type"] == "error", resp
                    assert resp["id"] == req_id, resp
                    assert f"'{field}'" in resp["message"], resp
                # An integer id is echoed as sent, on every line.
                obj = json.loads(encode_request(_request(5), "unused"))
                obj["id"] = 7
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                obj = json.loads(await reader.readline())
                assert obj == {"type": "accepted", "id": 7}
                while obj["type"] != "result":
                    obj = json.loads(await reader.readline())
                    assert obj["id"] == 7, obj
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())


#: integers the live property draws: small enough that an accepted line
#: stays a cheap solve (``n_ants`` and ``iterations`` scale its work, and
#: the wire bounds only ``n_ants``, at ``MAX_ANTS``), wide enough to cross
#: every lower bound
LIVE_INTS = st.integers(-3, 300)


class TestWireSchemaLive:
    @settings(
        max_examples=200 if DEEP else 20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(field=st.sampled_from(FIELDS), value=json_values(LIVE_INTS))
    # Lines the wire once admitted and then failed at batch time (or
    # answered under an id no client sent).
    @example(field="params.seed", value=None)
    @example(field="params.seed", value=-1)
    @example(field="params.seed", value=2**64)
    @example(field="params.n_ants", value=True)
    @example(field="params.n_ants", value=1099511627776)
    @example(field="construction", value=0)
    @example(field="pheromone", value=9)
    @example(field="id", value={"a": 1})
    # Heuristic powers that overflow or underflow on every instance.
    @example(field="params.beta", value=1e300)
    @example(field="params.beta", value=400)
    @example(field="params.eta_shift", value=1e300)
    def test_any_json_value_in_any_field(self, port, field, value):
        """One error line, or a solve that runs to its result; then the
        connection still answers."""
        obj = place(base_line_obj("live"), field, value)
        sent_id = obj.get("id")

        async def read(reader) -> dict:
            return json.loads(await asyncio.wait_for(reader.readline(), 60))

        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                resp = await read(reader)
                if resp["type"] == "accepted":
                    assert resp["id"] == sent_id
                    while resp["type"] == "accepted" or resp["type"] == "update":
                        resp = await read(reader)
                    # A request the wire admits never fails at batch time;
                    # only its own wall-clock budget may end it.
                    assert resp["type"] == "result" or (
                        resp["error"] == "ServeTimeoutError"
                    ), resp
                else:
                    assert resp["type"] == "error", resp
                    assert resp["id"] in (sent_id, None), resp
                writer.write(b'{"op": "health", "id": "next"}\n')
                await writer.drain()
                assert (await read(reader))["id"] == "next"
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())


class TestAdminPlaneUnderChaos:
    def test_stats_and_health_work_after_garbage(self, port):
        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"plain text, not json at all\n")
                await writer.drain()
                assert json.loads(await reader.readline())["type"] == "error"
            finally:
                writer.close()
                await writer.wait_closed()
            snap = await stats_over_tcp("127.0.0.1", port)
            assert "requests_shed" in snap
            health = await health_over_tcp("127.0.0.1", port)
            assert health["accepting"] is True
            assert health["workers_alive"] >= 1

        asyncio.run(scenario())

    def test_unknown_op_is_an_error_line(self, port):
        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b'{"op": "reboot", "id": "x"}\n')
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert resp["type"] == "error"
                assert "health" in resp["message"]
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())


class TestClientNetworking:
    def test_connect_failure_surfaces_as_serve_error(self):
        async def main():
            # A port nothing listens on: retries exhaust, then ServeError.
            with pytest.raises(ServeError, match="cannot connect"):
                await stats_over_tcp(
                    "127.0.0.1",
                    1,  # reserved port, nothing listens
                    connect_retries=1,
                    retry_backoff=0.001,
                    connect_timeout=0.5,
                )

        asyncio.run(main())

    def test_request_read_timeout(self):
        """A server that accepts but never answers trips the read timeout."""

        async def main():
            async def silent(reader, writer):
                await asyncio.sleep(10)

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ServeError, match="no response"):
                    await request_over_tcp(
                        "127.0.0.1", port, _request(2), read_timeout=0.1
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())

    def test_timeout_and_priority_round_trip_the_wire(self):
        async def scenario(service, port):
            req = _request(3, timeout=30.0, priority=2)
            updates, final = await request_over_tcp(
                "127.0.0.1", port, req, read_timeout=30.0
            )
            assert final["best_length"] > 0

        asyncio.run(_with_server(scenario))
