"""Generated-input properties of the wire request schema.

* ``decode(encode(r)) == r`` for generated :class:`SolveRequest` records
  that set every ``params`` field and every optional top-level field.
* Any JSON value placed in any field of a valid line gives either exactly
  one :class:`~repro.errors.ReproError` (the connection handler's one
  ``error`` line) or a request whose every field has the type the field
  table states — never another exception type, and never a value the
  batch would trip over later.

``tests/chaos/test_wire_chaos.py`` runs the second property live on both
fronts with the strategies defined here.  The tier-1 run draws a bounded
number of examples; set ``WIRE_SCHEMA=deep`` for the deeper profile CI
runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import CONSTRUCTION_VERSIONS, PHEROMONE_VERSIONS, ACOParams
from repro.core.params import MAX_ANTS
from repro.core.variant import LOCAL_SEARCH, LS_TARGETS, VARIANTS
from repro.errors import ReproError
from repro.serve import SolveRequest
from repro.serve.protocol import decode_request, encode_request, instance_to_json
from repro.tsp import uniform_instance

DEEP = os.environ.get("WIRE_SCHEMA") == "deep"

INSTANCE = uniform_instance(6, seed=61, name="wire6")


def _schema(cls) -> dict:
    """``name -> (annotated type name, default)`` per wire field of ``cls``."""
    return {
        f.name: (f.type.removesuffix(" | None"), f.default)
        for f in dataclasses.fields(cls)
        if f.name not in ("instance", "params")
    }


TOP_FIELDS = _schema(SolveRequest)
PARAM_FIELDS = _schema(ACOParams)

#: every place a JSON value can go on a request line
FIELDS = (
    ["id", "instance", "params"]
    + sorted(TOP_FIELDS)
    + [f"params.{name}" for name in sorted(PARAM_FIELDS)]
)

def json_values(ints):
    """Any JSON value (``NaN`` and ``Infinity`` included, as Python's json
    reads and writes them), with integers drawn from ``ints``."""
    scalars = (
        st.none()
        | st.booleans()
        | ints
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=8)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )


def base_line_obj(req_id: str) -> dict:
    """A valid, cheap request object: six cities, two iterations."""
    return {
        "id": req_id,
        "instance": instance_to_json(INSTANCE),
        "iterations": 2,
        "deadline": 5.0,
        "params": {"seed": 3, "nn": 4},
    }


def place(obj: dict, field: str, value) -> dict:
    """``obj`` with ``value`` at ``field`` (``params.X`` nests)."""
    obj = json.loads(json.dumps(obj))
    if field.startswith("params."):
        obj["params"][field.removeprefix("params.")] = value
    else:
        obj[field] = value
    return obj


def check_types(request: SolveRequest) -> None:
    """Every table field holds exactly its annotated type (a float field
    a finite ``float``; ``None`` only where the default is ``None``)."""
    for record, schema in ((request, TOP_FIELDS), (request.params, PARAM_FIELDS)):
        for name, (kind, default) in schema.items():
            value = getattr(record, name)
            if value is None:
                assert default is None, name
                continue
            assert type(value).__name__ == kind, (name, value)
            if kind == "float":
                assert math.isfinite(value), (name, value)


def finite(lo=None, hi=None, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def solve_requests(draw) -> SolveRequest:
    """Valid requests over every field; combinations the dataclasses
    refuse (ACS with a construction, ls knobs without ls) are not drawn."""
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    local_search = draw(st.sampled_from(sorted(LOCAL_SEARCH)))
    with_ls = local_search != "none"
    seconds = st.none() | finite(0.0, 1e9, exclude_min=True)
    # ACOParams refuses a (1 / eta_shift) ** beta outside float64's range:
    # keep |beta * log10(eta_shift)| <= 300.
    eta_shift = draw(finite(1e-300, 1e6))
    beta_max = 300.0 / max(abs(math.log10(eta_shift)), 1e-300)
    params = ACOParams(
        alpha=draw(finite(0.0, 1e6)),
        beta=draw(finite(0.0, min(1e6, beta_max))),
        rho=draw(finite(0.0, 1.0, exclude_min=True)),
        n_ants=draw(st.none() | st.integers(1, MAX_ANTS)),
        nn=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63 - 1)),
        eta_shift=eta_shift,
    )
    return SolveRequest(
        instance=INSTANCE,
        params=params,
        iterations=draw(st.integers(1, 10**9)),
        report_every=draw(st.integers(1, 10**9)),
        deadline=draw(seconds),
        target_length=draw(st.none() | st.integers(1, 10**12)),
        construction=(
            8 if variant == "acs" else draw(st.sampled_from(sorted(CONSTRUCTION_VERSIONS)))
        ),
        pheromone=(
            draw(st.sampled_from(sorted(PHEROMONE_VERSIONS))) if variant == "as" else 1
        ),
        variant=variant,
        local_search=local_search,
        ls_passes=draw(st.none() | st.integers(1, 100)) if with_ls else None,
        ls_target=draw(st.sampled_from(LS_TARGETS)) if with_ls else LS_TARGETS[0],
        timeout=draw(seconds),
        priority=draw(st.integers(-(2**40), 2**40)),
    )


PROFILE = settings(
    max_examples=1500 if DEEP else 150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROFILE
@given(request=solve_requests(), req_id=st.text(max_size=6) | st.integers())
def test_decode_inverts_encode(request, req_id):
    got_id, clone = decode_request(encode_request(request, req_id), default_id="d")
    assert got_id == req_id
    np.testing.assert_array_equal(clone.instance.coords, request.instance.coords)
    assert dataclasses.replace(clone, instance=request.instance) == request
    check_types(clone)


@PROFILE
@given(field=st.sampled_from(FIELDS), value=json_values(st.integers()))
# Values the wire once truncated, coerced or let through untyped.
@example(field="params.seed", value=7.5)
@example(field="params.seed", value="7")
@example(field="params.nn", value=True)
@example(field="params.alpha", value=math.nan)
@example(field="params.beta", value=math.inf)
@example(field="variant", value=["as"])
@example(field="params.n_ants", value=1099511627776)
@example(field="instance", value={"shm": "aco-x", "digest": "0" * 64, "rows": 3})
@example(field="params.beta", value=1e300)
@example(field="params.beta", value=400)
@example(field="params.eta_shift", value=1e300)
def test_any_json_value_in_any_field_decodes_or_is_refused(field, value):
    line = json.dumps(place(base_line_obj("p"), field, value))
    try:
        req_id, request = decode_request(line, default_id="d")
    except ReproError:
        return  # the connection handler's one error line
    assert type(req_id) in (str, int)
    check_types(request)
    hash(request.bucket_key)  # the shard router hashes it
    # What the router forwards to a worker decodes to the same request.
    _, again = decode_request(encode_request(request, req_id), default_id="d")
    assert dataclasses.replace(again, instance=request.instance) == request


def test_n_ants_above_bound_is_refused():
    """A colony size far above ``MAX_ANTS`` is one error naming the field,
    not a request that fails its whole batch with a ``MemoryError``."""
    line = json.dumps(place(base_line_obj("p"), "params.n_ants", 1099511627776))
    try:
        decode_request(line, default_id="d")
    except ReproError as exc:
        assert "n_ants" in str(exc)
    else:
        raise AssertionError("an n_ants above MAX_ANTS was admitted")


@pytest.mark.parametrize(
    "field, value",
    [("params.beta", 1e300), ("params.beta", 400.0), ("params.eta_shift", 1e300)],
)
def test_heuristic_power_out_of_range_is_refused(field, value):
    """A ``beta``/``eta_shift`` pair whose largest ``eta ** beta`` overflows
    or underflows float64 is one error naming both fields, not a request
    that returns the identity tour."""
    line = json.dumps(place(base_line_obj("p"), field, value))
    with pytest.raises(ReproError, match="beta=.*eta_shift="):
        decode_request(line, default_id="d")
