"""The perfbench claims ledger, ``BENCH_perfbench.json`` at the repo root.

Each record is one speed claim: a parent and a change commit measured on
one perfbench workload and end-to-end metric over ``pairs`` alternating
runs of ``seconds`` each, one seed per pair.  ``BENCHMARK.json`` is the
source of truth for workload and metric names and for which direction of
a metric is better; the ledger may only name what it declares.
"""

from __future__ import annotations

import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

RECORD_KEYS = {
    "pr", "parent", "change", "workload", "metric", "seeds", "seconds",
    "pairs", "pairs_won", "parent_median", "change_median", "parent_iqr",
}


def _load(name: str):
    return json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))


def check_record(record: dict, benchmark: dict) -> None:
    """Assert one ledger record is a well-formed claim ``benchmark`` can back."""
    assert set(record) == RECORD_KEYS, sorted(set(record) ^ RECORD_KEYS)
    workloads = {w["name"] for w in benchmark["workloads"]}
    assert record["workload"] in workloads, record["workload"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    assert record["metric"] in better, record["metric"]
    assert 0 <= record["pairs_won"] <= record["pairs"]
    assert len(record["seeds"]) == record["pairs"]
    assert record["parent_iqr"] >= 0
    if better[record["metric"]] == "higher":
        gain = record["change_median"] - record["parent_median"]
    else:
        gain = record["parent_median"] - record["change_median"]
    assert gain > 0, (
        f"PR {record['pr']}: change median {record['change_median']} is not "
        f"better than parent median {record['parent_median']}"
    )


@pytest.fixture(scope="module")
def benchmark_spec():
    return _load("BENCHMARK.json")


def test_every_record_is_a_valid_claim(benchmark_spec):
    ledger = _load("BENCH_perfbench.json")
    assert ledger, "empty ledger"
    for record in ledger:
        check_record(record, benchmark_spec)


@pytest.mark.parametrize(
    "field, value",
    [
        ("change_median", 1000),  # worse than the parent's 1102
        ("workload", "solve-nowhere"),
        ("metric", "colony_iters"),
        ("pairs_won", 11),
        ("parent_iqr", -1),
        ("seeds", [501]),  # one seed for ten pairs
    ],
)
def test_bad_record_rejected(benchmark_spec, field, value):
    record = dict(_load("BENCH_perfbench.json")[0], **{field: value})
    with pytest.raises(AssertionError):
        check_record(record, benchmark_spec)


def test_record_keys_must_match_exactly(benchmark_spec):
    record = _load("BENCH_perfbench.json")[0]
    missing = {k: v for k, v in record.items() if k != "parent_iqr"}
    with pytest.raises(AssertionError, match="parent_iqr"):
        check_record(missing, benchmark_spec)
    with pytest.raises(AssertionError, match="note"):
        check_record(dict(record, note="hand-timed"), benchmark_spec)


def test_lower_is_better_metric_direction(benchmark_spec):
    record = dict(
        _load("BENCH_perfbench.json")[0],
        metric="latency_p50_ms", parent_median=143.6, change_median=111.9,
    )
    check_record(record, benchmark_spec)
    with pytest.raises(AssertionError, match="not better"):
        check_record(dict(record, change_median=150.0), benchmark_spec)
