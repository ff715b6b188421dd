"""Mixed-variant request bursts through the micro-batching service.

The serve-side half of the variant redesign: ``BatchKey`` carries the
variant, so same-geometry requests running different algorithms bucket
separately, each packed batch runs one
:class:`~repro.core.variant.VariantStrategy`, and every rider's final is
bit-identical to its solo (B=1 view) run.
"""

from __future__ import annotations

import pytest

from repro.core import ACOParams, AntColonySystem, AntSystem, MaxMinAntSystem
from repro.errors import ACOConfigError, ServeError
from repro.experiments.harness import run_service
from repro.serve import SolveRequest
from repro.serve.protocol import decode_request, encode_request
from repro.tsp import uniform_instance

ITERATIONS = 4


#: the B=1 engine view of each variant (pinned to the recorded solo loops
#: by tests/property/test_solo_golden.py)
VIEWS = {"as": AntSystem, "acs": AntColonySystem, "mmas": MaxMinAntSystem}


def _solo_best(request: SolveRequest) -> int:
    view = VIEWS[request.variant](request.instance, request.params)
    return view.run(request.iterations).best_length


class TestVariantBucketing:
    def test_variant_splits_the_bucket(self):
        inst = uniform_instance(14, seed=31)
        base = dict(instance=inst, params=ACOParams(seed=1, nn=7), iterations=5)
        a = SolveRequest(**base)
        b = SolveRequest(**base, variant="acs")
        c = SolveRequest(**base, variant="mmas")
        assert a.bucket_key.variant == "as"
        assert len({a.bucket_key, b.bucket_key, c.bucket_key}) == 3

    def test_unknown_variant_rejected(self):
        inst = uniform_instance(12, seed=32)
        with pytest.raises(ACOConfigError, match="variant"):
            SolveRequest(instance=inst, variant="acs2")

    def test_owned_kernel_selections_rejected_not_ignored(self):
        """A variant-owned kernel field is an error response, never a
        silently ignored (and bucket-splitting) no-op."""
        inst = uniform_instance(12, seed=37)
        with pytest.raises(ACOConfigError, match="construction"):
            SolveRequest(instance=inst, variant="acs", construction=5)
        with pytest.raises(ACOConfigError, match="pheromone"):
            SolveRequest(instance=inst, variant="mmas", pheromone=2)
        # Explicitly spelling out the defaults stays compatible, and mmas
        # legitimately composes with any construction kernel.
        SolveRequest(instance=inst, variant="acs", construction=8, pheromone=1)
        SolveRequest(instance=inst, variant="mmas", construction=4)

    def test_mixed_variant_burst_packs_per_variant(self):
        """Six same-geometry requests, two per variant, max_batch=2: the
        service must pack exactly one batch per variant and resolve every
        rider bit-identical to its solo run."""
        inst = uniform_instance(14, seed=33)
        requests = [
            SolveRequest(
                instance=inst,
                params=ACOParams(seed=10 + i, nn=7),
                iterations=ITERATIONS,
                variant=variant,
            )
            for variant in ("as", "acs", "mmas")
            for i in range(2)
        ]
        load = run_service(requests, max_batch=2)
        assert load.stats.batches == 3, load.stats.snapshot()
        assert load.stats.batches_per_variant == {"as": 1, "acs": 1, "mmas": 1}
        keys = {key.variant for key in load.stats.batches_per_bucket}
        assert keys == {"as", "acs", "mmas"}
        for request, result in zip(requests, load.results):
            assert result.best_length == _solo_best(request), request.variant

    def test_variant_streams_monotone(self):
        inst = uniform_instance(16, seed=34)
        requests = [
            SolveRequest(
                instance=inst,
                params=ACOParams(seed=s, nn=7),
                iterations=6,
                report_every=2,
                variant="mmas",
            )
            for s in (1, 2, 3)
        ]
        load = run_service(requests, max_batch=3)
        for updates in load.updates:
            bests = [u.best_length for u in updates]
            assert bests and all(a >= b for a, b in zip(bests, bests[1:]))


class TestVariantWire:
    def test_roundtrip_preserves_variant(self):
        inst = uniform_instance(12, seed=35)
        request = SolveRequest(
            instance=inst, iterations=3, variant="mmas"
        )
        line = encode_request(request, "r7")
        req_id, clone = decode_request(line, default_id="x")
        assert req_id == "r7"
        assert clone.variant == "mmas"
        assert clone.bucket_key == request.bucket_key

    def test_variant_defaults_to_as(self):
        inst = uniform_instance(12, seed=36)
        line = encode_request(SolveRequest(instance=inst), "r1")
        _, clone = decode_request(line, default_id="x")
        assert clone.variant == "as"

    def test_unknown_variant_becomes_error_response(self):
        import json

        payload = {
            "id": "bad",
            "instance": {
                "coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            },
            "variant": "antsys",
        }
        with pytest.raises((ServeError, ACOConfigError)) as err:
            decode_request(json.dumps(payload), default_id="x")
        # The connection handler addresses its error line with this id.
        assert getattr(err.value, "req_id", None) == "bad"
