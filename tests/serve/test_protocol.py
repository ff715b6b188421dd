"""Tests for the JSON-lines wire protocol and the TCP front-end."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem
from repro.errors import ServeError
from repro.serve import SolveRequest, SolveService, request_over_tcp, serve_tcp
from repro.serve.protocol import (
    decode_request,
    encode_request,
    instance_from_json,
    instance_to_json,
)
from repro.shard import ShardConfig, ShardRouter
from repro.tsp import uniform_instance
from tests.serve.test_wire_schema import PARAM_FIELDS, TOP_FIELDS


def run_async(coro):
    return asyncio.run(coro)


def _make_front(kind: str):
    """Both fronts ``serve_tcp`` serves: one in-process service, or a
    router over one worker-process shard."""
    if kind == "service":
        return SolveService(max_batch=2)
    return ShardRouter(1, ShardConfig(max_batch=2))


class TestEncodeDecode:
    def test_instance_roundtrip(self):
        inst = uniform_instance(10, seed=3, name="rt")
        clone = instance_from_json(instance_to_json(inst))
        assert clone.name == "rt"
        assert clone.edge_weight_type == inst.edge_weight_type
        np.testing.assert_allclose(clone.coords, inst.coords)
        np.testing.assert_array_equal(
            clone.distance_matrix(), inst.distance_matrix()
        )

    def test_suite_instance_by_name(self):
        inst = instance_from_json({"suite": "att48"})
        assert inst.n == 48

    def test_request_roundtrip(self):
        inst = uniform_instance(10, seed=4)
        request = SolveRequest(
            instance=inst,
            params=ACOParams(seed=9, nn=5, alpha=2.0),
            iterations=7,
            report_every=2,
            deadline=1.5,
            target_length=123,
            construction=6,
            pheromone=3,
        )
        req_id, clone = decode_request(
            encode_request(request, "abc"), default_id="zz"
        )
        assert req_id == "abc"
        assert clone.iterations == 7
        assert clone.report_every == 2
        assert clone.deadline == 1.5
        assert clone.target_length == 123
        assert clone.construction == 6
        assert clone.pheromone == 3
        assert clone.params == request.params
        assert clone.bucket_key == request.bucket_key

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServeError):
            decode_request(b"not json\n", default_id="d")
        with pytest.raises(ServeError):
            decode_request(b"[1, 2]\n", default_id="d")
        with pytest.raises(ServeError):
            decode_request(b"{}\n", default_id="d")  # no instance
        with pytest.raises(ServeError):
            decode_request(
                b'{"instance": {"suite": "att48"}, "params": {"bogus": 1}}\n',
                default_id="d",
            )

    def test_decode_wraps_typed_garbage_as_serve_error(self):
        # Well-formed JSON with wrong-typed values must become a ServeError
        # (-> error response), not a raw TypeError/ValueError that would
        # drop the connection.
        for payload in (
            b'{"instance": {"suite": "att48"}, "params": {"alpha": "two"}}\n',
            b'{"instance": {"coords": [[1, 2], [3]]}}\n',
            b'{"instance": {"suite": "att48"}, "iterations": [5]}\n',
        ):
            with pytest.raises(ServeError) as err:
                decode_request(payload, default_id="d")
            assert getattr(err.value, "req_id", None) == "d"

    @pytest.mark.parametrize(
        "field",
        [
            "iterations", "report_every", "priority", "target_length",
            "construction", "pheromone", "ls_passes",
            "params.n_ants", "params.nn", "params.seed",
        ],
    )
    @pytest.mark.parametrize("value", [1.9, 8.0, True, False, "3", [3]])
    def test_int_fields_take_json_integers_only(self, field, value):
        obj = {"id": "i", "instance": {"suite": "att48"}}
        if field.startswith("params."):
            obj["params"] = {field.removeprefix("params."): value}
        else:
            obj[field] = value
        if field == "ls_passes":
            obj["local_search"] = "2opt"
        with pytest.raises(ServeError, match=field) as err:
            decode_request(json.dumps(obj), default_id="d")
        assert err.value.req_id == "i"

    @pytest.mark.parametrize(
        "field",
        [
            "deadline", "timeout",
            "params.alpha", "params.beta", "params.rho", "params.eta_shift",
        ],
    )
    @pytest.mark.parametrize(
        "raw", ["NaN", "Infinity", "-Infinity", "true", '"2"', "1e999", "1" * 400]
    )
    def test_second_fields_must_be_finite_numbers(self, field, raw):
        if field.startswith("params."):
            name = field.removeprefix("params.")
            line = '{"instance": {"suite": "att48"}, "params": {"%s": %s}}' % (name, raw)
        else:
            line = '{"instance": {"suite": "att48"}, "%s": %s}' % (field, raw)
        with pytest.raises(ServeError, match=field):
            decode_request(line, default_id="d")

    @pytest.mark.parametrize("field", ["variant", "local_search", "ls_target"])
    @pytest.mark.parametrize("value", [5, None, True, ["as"], {"a": 1}])
    def test_string_fields_take_json_strings_only(self, field, value):
        obj = {"id": "s", "instance": {"suite": "att48"}, field: value}
        if field == "ls_target":
            obj["local_search"] = "2opt"
        with pytest.raises(ServeError, match=f"'{field}' must be a JSON string") as err:
            decode_request(json.dumps(obj), default_id="d")
        assert err.value.req_id == "s"

    @pytest.mark.parametrize("value", [{"a": 1}, None, 2.5, True, ["r"]])
    def test_id_is_a_json_string_or_integer(self, value):
        line = json.dumps({"id": value, "instance": {"suite": "att48"}})
        with pytest.raises(ServeError, match="'id' must be") as err:
            decode_request(line, default_id="d")
        assert getattr(err.value, "req_id", None) is None
        for good in ("r1", 7, -3):
            line = json.dumps({"id": good, "instance": {"suite": "att48"}})
            assert decode_request(line, default_id="d")[0] == good

    @pytest.mark.parametrize(
        "field, default",
        [(name, default) for name, (_, default) in TOP_FIELDS.items()]
        + [(f"params.{name}", default) for name, (_, default) in PARAM_FIELDS.items()],
    )
    def test_null_only_where_the_default_is_none(self, field, default):
        obj = {"instance": {"suite": "att48"}, "local_search": "2opt"}
        if field.startswith("params."):
            obj["params"] = {field.removeprefix("params."): None}
        else:
            obj[field] = None
        line = json.dumps(obj)
        if default is None:
            _, req = decode_request(line, default_id="d")
            record = req.params if field.startswith("params.") else req
            assert getattr(record, field.removeprefix("params.")) is None
        else:
            with pytest.raises(ServeError, match=field):
                decode_request(line, default_id="d")

    def test_integer_valued_float_runs_bit_identical(self):
        """``"alpha": 1`` decodes to the float ``1.0`` and solves exactly
        as ``"alpha": 1.0`` does."""
        line = (
            '{"instance": {"suite": "att48"}, "iterations": 3,'
            ' "params": {"alpha": %s, "seed": 7, "n_ants": null}}'
        )
        requests = [decode_request(line % a, default_id="d")[1] for a in ("1", "1.0")]
        assert type(requests[0].params.alpha) is float
        assert requests[0].params == requests[1].params

        async def drive():
            async with SolveService(max_batch=1) as service:
                return [await (await service.submit(r)).result() for r in requests]

        as_int, as_float = run_async(drive())
        np.testing.assert_array_equal(as_int.best_tour, as_float.best_tour)
        assert as_int.best_length == as_float.best_length
        assert as_int.iteration_best_lengths == as_float.iteration_best_lengths

    def test_numeric_fields_accept_their_json_types(self):
        _, req = decode_request(
            '{"instance": {"suite": "att48"}, "iterations": 3, "deadline": 2,'
            ' "timeout": 0.5, "priority": -1, "target_length": 100,'
            ' "ls_passes": null}',
            default_id="d",
        )
        assert (req.iterations, req.deadline, req.timeout) == (3, 2.0, 0.5)
        assert type(req.deadline) is float
        assert (req.priority, req.target_length, req.ls_passes) == (-1, 100, None)

    def test_integer_past_the_digit_limit_is_bad_json(self):
        line = '{"instance": {"suite": "att48"}, "iterations": %s}' % ("9" * 5000)
        with pytest.raises(ServeError, match="bad JSON"):
            decode_request(line, default_id="d")

    def test_decode_applies_default_id(self):
        req_id, _ = decode_request(
            b'{"instance": {"suite": "att48"}}\n', default_id="req-7"
        )
        assert req_id == "req-7"


class TestTcpServer:
    def test_roundtrip_matches_solo(self):
        inst = uniform_instance(16, seed=21)
        params = ACOParams(seed=5, nn=7)
        request = SolveRequest(
            instance=inst, params=params, iterations=4, report_every=2
        )

        async def drive():
            async with SolveService(max_batch=2) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    updates, final = await request_over_tcp(
                        "127.0.0.1", port, request
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                return updates, final

        updates, final = run_async(drive())
        assert [u["iteration"] for u in updates] == [2, 4]
        solo = AntSystem(inst, params).run(4)
        assert final["best_length"] == solo.best_length
        assert final["best_tour"] == [int(c) for c in solo.best_tour]
        assert final["iterations_run"] == 4
        assert final["early"] is None

    def test_pipelined_requests_interleave_by_id(self):
        inst_a = uniform_instance(16, seed=22)
        inst_b = uniform_instance(16, seed=23)

        async def drive():
            async with SolveService(max_batch=2) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    for rid, inst in (("a", inst_a), ("b", inst_b)):
                        req = SolveRequest(
                            instance=inst,
                            params=ACOParams(seed=3, nn=7),
                            iterations=4,
                            report_every=2,
                        )
                        writer.write(encode_request(req, rid))
                    await writer.drain()
                    finals = {}
                    while len(finals) < 2:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=30
                        )
                        obj = json.loads(line)
                        if obj["type"] == "result":
                            finals[obj["id"]] = obj
                    writer.close()
                    await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()
                return finals, service.stats

        finals, stats = run_async(drive())
        assert set(finals) == {"a", "b"}
        # Both rode one packed batch (same geometry, pipelined in time).
        assert stats.batches == 1 and stats.rows_packed == 2
        solo_a = AntSystem(inst_a, ACOParams(seed=3, nn=7)).run(4)
        assert finals["a"]["best_length"] == solo_a.best_length

    def test_malformed_request_gets_error_response(self):
        async def drive():
            async with SolveService(max_batch=1) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(b'{"id": "bad", "no_instance": true}\n')
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), timeout=10)
                    obj = json.loads(line)
                    # The connection survives for later requests.
                    writer.write(
                        b'{"id": "ok", "instance": {"suite": "att48"},'
                        b' "iterations": 1}\n'
                    )
                    await writer.drain()
                    accepted = json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=10)
                    )
                    writer.close()
                    await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()
                return obj, accepted

        obj, accepted = run_async(drive())
        assert obj["type"] == "error"
        assert obj["id"] == "bad"
        assert "instance" in obj["message"]
        assert accepted == {"type": "accepted", "id": "ok"}

    def test_error_after_drain_refuses_request(self):
        async def drive():
            service = SolveService(max_batch=1)
            await service.start()
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            await service.drain()
            try:
                request = SolveRequest(
                    instance=uniform_instance(10, seed=1), iterations=1
                )
                with pytest.raises(ServeError) as err:
                    await request_over_tcp("127.0.0.1", port, request)
                return str(err.value)
            finally:
                server.close()
                await server.wait_closed()

        message = run_async(drive())
        assert "ServiceClosedError" in message


@pytest.mark.parametrize("front_kind", ["service", "router"])
def test_half_closed_client_receives_every_accepted_result(front_kind):
    """A client that pipelines requests and then shuts its write side
    (``nc -N``, ncat) still gets each request's accepted, update and
    result lines before the server closes the connection."""
    reqs = {
        rid: SolveRequest(
            instance=uniform_instance(16, seed=40 + i),
            params=ACOParams(seed=3, nn=7),
            iterations=4,
            report_every=2,
        )
        for i, rid in enumerate(("a", "b"))
    }

    async def drive():
        async with _make_front(front_kind) as front:
            server = await serve_tcp(front, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                for rid, req in reqs.items():
                    writer.write(encode_request(req, rid))
                writer.write_eof()
                lines = []
                while line := await asyncio.wait_for(reader.readline(), 120):
                    lines.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return lines

    lines = run_async(drive())
    for rid, req in reqs.items():
        mine = [obj for obj in lines if obj["id"] == rid]
        assert [obj["type"] for obj in mine] == [
            "accepted", "update", "update", "result"
        ], lines
        solo = AntSystem(req.instance, req.params).run(4)
        assert mine[-1]["best_length"] == solo.best_length
