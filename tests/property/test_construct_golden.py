"""Golden construction results: the task-based kernel rebuilds its recorded tours.

``data/construct_golden.json`` was recorded from the float-tabu
``construct_exact_batch`` before the byte-tabu rewrite — see
``make_construct_golden.py``.  Every case (full rule and ``nn`` 3 / 8 / 30
at B 1 and 3, heterogeneous and broadcast rows, a280 at B=4 and at B=8 on
the blocked-draw path, pcb442 at nn=300, ant counts other than ``n`` and
spare generator streams) must still build the same tours (by sha256) and
the same per-colony fallback counts, on a fresh arena and on a reused one.
Unlike the solo-vs-batch parity test, this does not compare the kernel
with itself.
"""

from __future__ import annotations

import json

import pytest

from .make_construct_golden import CASES, OUT, kernel_record

GOLDEN = json.loads(OUT.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_kernel_matches_golden(name):
    assert kernel_record(name) == GOLDEN["cases"][name]
