"""Golden 2-opt results: the batched kernel reproduces its recorded moves.

``data/two_opt_golden.json`` was recorded from the position-indexed
``two_opt_batch`` before the city-indexed rewrite — see
``make_two_opt_golden.py``.  Every case (heterogeneous and broadcast rows,
``nn`` None / 3 / 7, ``max_passes`` None / 1 / 3, a tie-heavy lattice, a280
at B=4, nn=30) must still produce the same tours (by sha256), lengths,
per-row exchanges and pass count, and the a280 MMAS + 2-opt engine run the
same iteration-best lengths and best tours.  Unlike the solo-vs-batch
parity test, this does not compare the kernel with itself.
"""

from __future__ import annotations

import json

import pytest

from .make_two_opt_golden import CASES, OUT, engine_record, kernel_record

GOLDEN = json.loads(OUT.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_kernel_matches_golden(name):
    assert kernel_record(name) == GOLDEN["cases"][name]


def test_engine_run_matches_golden():
    assert engine_record() == GOLDEN["engine"]
