"""The router→worker instance hop: suite stubs by name, coordinates inline.

The router forwards the client's own instance object inside the request
line, and a worker decodes that line exactly as a single server would.
Everything here runs in one process over the same functions both sides
call (``decode_request_obj`` at the front, ``ShardRouter._instance_wire_form``
plus ``encode_request`` in the router, ``decode_request`` in the worker),
so the round-trip is checked without spawning workers; the cross-process
path is covered by the router e2e tests.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.checkpoint import instance_digest
from repro.errors import ServeError
from repro.serve.protocol import (
    decode_request,
    decode_request_obj,
    encode_request,
    instance_from_json,
    instance_to_json,
)
from repro.shard import ShardRouter
from repro.tsp import uniform_instance
from repro.tsp.distances import EDGE_WEIGHT_FUNCTIONS


def _forward(raw_obj: dict):
    """The hop as the stack runs it: the front decodes the client's
    object, the router re-encodes it for a worker, the worker decodes
    that line.  Returns ``(front_request, worker_request)``."""
    raw_obj = json.loads(json.dumps(raw_obj))  # what the front parses
    _, front = decode_request_obj(raw_obj, default_id="r0")
    line = encode_request(
        front, "x0", instance_obj=ShardRouter._instance_wire_form(raw_obj["instance"])
    )
    wid, worker = decode_request(line, default_id="unused")
    assert wid == "x0"
    return front, worker


def test_suite_stub_forwards_by_name_only():
    raw = {"suite": "att48", "name": "ignored", "edge_weight_type": "GEO"}
    assert ShardRouter._instance_wire_form(raw) == {"suite": "att48"}
    front, worker = _forward({"instance": raw, "iterations": 2})
    assert worker.instance.name == front.instance.name == "att48"
    assert instance_digest(worker.instance) == instance_digest(front.instance)


def test_coordinate_instance_forwards_as_sent():
    raw = instance_to_json(uniform_instance(12, seed=3))
    assert ShardRouter._instance_wire_form(raw) is raw


@pytest.mark.parametrize("edge_weight_type", sorted(EDGE_WEIGHT_FUNCTIONS))
def test_forwarded_line_rebuilds_the_same_instance(edge_weight_type):
    inst = uniform_instance(10, seed=7, edge_weight_type=edge_weight_type)
    front, worker = _forward(
        {"instance": instance_to_json(inst), "params": {"seed": 4}, "iterations": 3}
    )
    rebuilt = worker.instance
    np.testing.assert_array_equal(rebuilt.coords, inst.coords)
    assert rebuilt.name == inst.name
    assert rebuilt.edge_weight_type == inst.edge_weight_type
    assert instance_digest(rebuilt) == instance_digest(inst)
    np.testing.assert_array_equal(rebuilt.distance_matrix(), inst.distance_matrix())
    assert (worker.params, worker.iterations) == (front.params, front.iterations)


def test_forwarded_line_keeps_coords_bit_exact():
    """JSON floats round-trip exactly: awkward doubles and JSON integers
    reach the worker as the same float64 values the front decoded."""
    coords = [[0.1, 1 / 3], [1e-300, 5e-324], [2**53 + 1, -0.0], [7, 12345678901]]
    front, worker = _forward({"instance": {"name": "odd", "coords": coords}})
    assert worker.instance.coords.tobytes() == front.instance.coords.tobytes()
    assert instance_digest(worker.instance) == instance_digest(front.instance)


@pytest.mark.parametrize(
    "stub",
    [
        {"shm": "aco-x", "digest": "0" * 64, "rows": 3},
        {"shm": "aco-x"},
        {"shm": "aco-x", "digest": "d", "rows": "many"},
        {"shm": "aco-x", "digest": "0" * 64, "rows": 10_000},
    ],
    ids=["well-formed", "no-digest", "bad-rows", "lying-rows"],
)
def test_shared_memory_stub_instance_is_refused(stub):
    """No shared-memory instance form exists on the wire: a stub naming a
    block gets the ordinary missing-instance error, attaching nothing."""
    with pytest.raises(ServeError, match="instance needs 'suite' or 'coords'"):
        instance_from_json(stub)
    line = json.dumps({"id": "s", "instance": stub, "iterations": 1})
    with pytest.raises(ServeError, match="instance needs 'suite' or 'coords'"):
        decode_request(line, default_id="unused")
