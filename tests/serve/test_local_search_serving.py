"""Local-search requests through the micro-batching service.

``BatchKey`` carries the ls triple (algorithm, passes, target), so
same-geometry requests that differ in polishing bucket separately; unknown
values are answered with an ``error`` line exactly like unknown variants;
and :class:`~repro.serve.service.ServiceStats` counts how many packed
batches ran with a local-search stage.
"""

from __future__ import annotations

import json

import pytest

from repro.core import ACOParams
from repro.errors import ACOConfigError, ReproError, ServeError
from repro.experiments.harness import run_service
from repro.serve import SolveRequest
from repro.serve.protocol import decode_request, encode_request
from repro.tsp import uniform_instance


class TestRequestValidation:
    def test_unknown_local_search_rejected(self):
        inst = uniform_instance(12, seed=61)
        with pytest.raises(ACOConfigError, match="local search"):
            SolveRequest(instance=inst, local_search="3opt")

    def test_unknown_ls_target_rejected(self):
        inst = uniform_instance(12, seed=62)
        with pytest.raises(ACOConfigError, match="ls target"):
            SolveRequest(
                instance=inst, local_search="2opt", ls_target="global-best"
            )

    def test_bad_ls_passes_rejected(self):
        inst = uniform_instance(12, seed=63)
        with pytest.raises(ACOConfigError, match="ls_passes"):
            SolveRequest(instance=inst, local_search="2opt", ls_passes=0)

    def test_ls_knobs_without_algorithm_rejected(self):
        """Knobs on a disabled stage are an error response, never a
        silently ignored (and bucket-splitting) no-op."""
        inst = uniform_instance(12, seed=64)
        with pytest.raises(ACOConfigError, match="local-search"):
            SolveRequest(instance=inst, ls_passes=2)
        with pytest.raises(ACOConfigError, match="local-search"):
            SolveRequest(instance=inst, ls_target="best-so-far")


class TestBucketing:
    def test_ls_fields_split_the_bucket(self):
        inst = uniform_instance(14, seed=65)
        base = dict(instance=inst, params=ACOParams(seed=1, nn=7), iterations=5)
        plain = SolveRequest(**base)
        polished = SolveRequest(**base, local_search="2opt")
        capped = SolveRequest(**base, local_search="2opt", ls_passes=2)
        retargeted = SolveRequest(
            **base, local_search="2opt", ls_target="best-so-far"
        )
        keys = {
            r.bucket_key for r in (plain, polished, capped, retargeted)
        }
        assert len(keys) == 4
        assert plain.bucket_key.local_search == "none"
        assert polished.bucket_key.local_search == "2opt"

    def test_equal_ls_requests_share_a_bucket(self):
        inst = uniform_instance(14, seed=66)
        a = SolveRequest(
            instance=inst,
            params=ACOParams(seed=1, nn=7),
            local_search="2opt",
            ls_passes=3,
        )
        b = SolveRequest(
            instance=inst,
            params=ACOParams(seed=9, nn=7),
            local_search="2opt",
            ls_passes=3,
        )
        assert a.bucket_key == b.bucket_key


class TestWire:
    def test_roundtrip_preserves_ls_fields(self):
        inst = uniform_instance(12, seed=67)
        request = SolveRequest(
            instance=inst,
            iterations=3,
            variant="acs",
            local_search="2opt",
            ls_passes=2,
            ls_target="best-so-far",
        )
        line = encode_request(request, "r9")
        req_id, clone = decode_request(line, default_id="x")
        assert req_id == "r9"
        assert clone.local_search == "2opt"
        assert clone.ls_passes == 2
        assert clone.ls_target == "best-so-far"
        assert clone.bucket_key == request.bucket_key

    def test_ls_defaults_to_none_and_stays_off_the_wire(self):
        inst = uniform_instance(12, seed=68)
        line = encode_request(SolveRequest(instance=inst), "r1")
        assert b"local_search" not in line
        _, clone = decode_request(line, default_id="x")
        assert clone.local_search == "none"
        assert clone.ls_passes is None

    def test_unknown_local_search_becomes_error_response(self):
        payload = {
            "id": "bad-ls",
            "instance": {
                "coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            },
            "local_search": "3opt",
        }
        with pytest.raises((ServeError, ACOConfigError)) as err:
            decode_request(json.dumps(payload), default_id="x")
        # The connection handler addresses its error line with this id.
        assert getattr(err.value, "req_id", None) == "bad-ls"
        assert isinstance(err.value, ReproError)


class TestServiceStats:
    def test_ls_batches_counted_and_buckets_split(self):
        """A mixed burst packs plain and polished requests into different
        batches; the stats ledger counts the ls ones."""
        inst = uniform_instance(14, seed=69)
        requests = [
            SolveRequest(
                instance=inst,
                params=ACOParams(seed=10 + i, nn=7),
                iterations=4,
                variant="acs",
                local_search=ls,
            )
            for ls in ("none", "2opt")
            for i in range(2)
        ]
        load = run_service(requests, max_batch=2)
        assert load.stats.batches == 2, load.stats.snapshot()
        assert load.stats.ls_batches == 1
        assert load.stats.snapshot()["ls_batches"] == 1
        ls_values = {key.local_search for key in load.stats.batches_per_bucket}
        assert ls_values == {"none", "2opt"}
        # Polished riders never resolve worse than their plain seed-twins.
        plain = [r.best_length for r in load.results[:2]]
        polished = [r.best_length for r in load.results[2:]]
        assert all(p <= q for p, q in zip(polished, plain))
