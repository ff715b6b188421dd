"""Shared-memory instance cache: publish, resolve, dedup, cleanup.

Everything here runs in one process — ``SharedMemory`` attach-by-name
works within a process exactly as it does across the router/worker
boundary, so the digest verification, reference counting and error
paths are exercised without spawning workers (the cross-process path is
covered by the router e2e tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import instance_digest
from repro.errors import ServeError
from repro.shard import InstanceShmCache, resolve_shared_instance
from repro.shard.shm import shared_instance_stub
from repro.tsp import uniform_instance


def test_wire_form_publishes_once_per_digest():
    cache = InstanceShmCache()
    try:
        inst = uniform_instance(12, seed=3)
        same = uniform_instance(12, seed=3)
        other = uniform_instance(14, seed=3)
        stub = cache.wire_form(inst)
        assert shared_instance_stub(stub)
        assert stub["digest"] == instance_digest(inst)
        assert stub["rows"] == 12
        # Equal content -> same block, no second publication.
        assert cache.wire_form(same)["shm"] == stub["shm"]
        assert len(cache) == 1
        assert cache.wire_form(other)["shm"] != stub["shm"]
        assert len(cache) == 2
    finally:
        cache.close()


def test_wire_form_matrix_instance_returns_none():
    from repro.tsp.instance import TSPInstance

    cache = InstanceShmCache()
    try:
        matrix = np.array([[0, 1], [1, 0]], dtype=np.int64)
        inst = TSPInstance(name="m", coords=None, explicit_matrix=matrix,
                           edge_weight_type="EXPLICIT")
        assert cache.wire_form(inst) is None
        assert len(cache) == 0
    finally:
        cache.close()


def test_resolve_roundtrip():
    cache = InstanceShmCache()
    try:
        inst = uniform_instance(10, seed=7)
        stub = cache.wire_form(inst)
        rebuilt = resolve_shared_instance(stub)
        np.testing.assert_array_equal(rebuilt.coords, inst.coords)
        assert rebuilt.name == inst.name
        assert rebuilt.edge_weight_type == inst.edge_weight_type
        assert instance_digest(rebuilt) == stub["digest"]
        # Workers keep no instance cache: each resolution re-attaches.
        again = resolve_shared_instance(stub)
        assert again is not rebuilt
        np.testing.assert_array_equal(again.coords, inst.coords)
    finally:
        cache.close()


def test_release_unlinks_after_last_reference():
    from multiprocessing import shared_memory

    cache = InstanceShmCache()
    try:
        inst = uniform_instance(12, seed=3)
        first = cache.wire_form(inst)
        second = cache.wire_form(uniform_instance(12, seed=3))  # same digest
        assert second["shm"] == first["shm"]
        cache.release(first["digest"])
        assert len(cache) == 1  # the second request still holds the block
        assert resolve_shared_instance(first).name == inst.name
        cache.release(first["digest"])
        assert len(cache) == 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=first["shm"])
        cache.release(first["digest"])  # unknown digest: ignored
        # Republishing after the unlink makes a fresh block.
        again = cache.wire_form(inst)
        assert again["digest"] == first["digest"]
        assert len(cache) == 1
    finally:
        cache.close()


def test_resolve_after_unlink_is_serve_error():
    cache = InstanceShmCache()
    inst = uniform_instance(10, seed=7)
    stub = cache.wire_form(inst)
    cache.close()
    with pytest.raises(ServeError, match="does not exist"):
        resolve_shared_instance(stub)


def test_resolve_digest_mismatch_is_serve_error():
    cache = InstanceShmCache()
    try:
        stub = cache.wire_form(uniform_instance(10, seed=7))
        forged = dict(stub, digest="0" * len(stub["digest"]))
        with pytest.raises(ServeError, match="digest check"):
            resolve_shared_instance(forged)
        assert resolve_shared_instance(stub).name == stub["name"]
    finally:
        cache.close()


def test_resolve_malformed_stub_is_serve_error():
    with pytest.raises(ServeError, match="malformed"):
        resolve_shared_instance({"shm": "x"})  # no digest/rows
    with pytest.raises(ServeError, match="malformed"):
        resolve_shared_instance({"shm": "x", "digest": "d", "rows": "many"})


def test_resolve_short_block_is_serve_error():
    cache = InstanceShmCache()
    try:
        stub = cache.wire_form(uniform_instance(10, seed=7))
        lying = dict(stub, rows=10_000)
        with pytest.raises(ServeError, match="bytes"):
            resolve_shared_instance(lying)
    finally:
        cache.close()


def test_close_is_idempotent():
    cache = InstanceShmCache()
    cache.wire_form(uniform_instance(8, seed=1))
    cache.close()
    cache.close()
    assert len(cache) == 0
