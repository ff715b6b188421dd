"""Tests for stage/iteration reports."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import WorkBuffers
from repro.core.report import (
    STAGE_REPORT_CACHE_SIZE,
    IterationReport,
    StageReport,
    cached_stage_reports,
)
from repro.simt.counters import KernelStats
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.simt.kernel import LaunchConfig
from repro.simt.timing import CostParams


def make_stage(stage: str, flops: float = 1e9) -> StageReport:
    return StageReport(
        stage=stage,
        kernel=f"{stage}_kernel",
        stats=KernelStats(flops=flops, kernel_launches=1),
        launch=LaunchConfig(grid=100, block=256),
    )


class TestStageReport:
    def test_modeled_time_positive(self):
        t = make_stage("construction").modeled_time(TESLA_C1060, CostParams())
        assert t > 0

    def test_effective_parallelism_bounds(self):
        par = make_stage("choice").effective_parallelism(TESLA_M2050)
        assert 0 < par <= 1

    def test_device_dependence(self):
        s = make_stage("construction", flops=1e10)
        t_c = s.modeled_time(TESLA_C1060, CostParams())
        t_m = s.modeled_time(TESLA_M2050, CostParams())
        assert t_c != t_m  # different peak rates


class TestIterationReport:
    def _report(self):
        return IterationReport(
            iteration=1,
            tours=np.zeros((2, 4), dtype=np.int32),
            lengths=np.array([10, 7], dtype=np.int64),
            stages=[make_stage("choice"), make_stage("construction"), make_stage("pheromone")],
        )

    def test_best_length(self):
        assert self._report().best_length == 7

    def test_total_is_sum_of_stages(self):
        rep = self._report()
        p = CostParams()
        total = rep.total_time(TESLA_C1060, p)
        parts = sum(s.modeled_time(TESLA_C1060, p) for s in rep.stages)
        assert total == pytest.approx(parts)

    def test_stage_lookup(self):
        rep = self._report()
        assert rep.stage("construction").kernel == "construction_kernel"
        with pytest.raises(KeyError, match="local_search"):
            rep.stage("local_search")


class TestCachedStageReports:
    """One report per distinct (kernel, geometry, device, key), built from
    the kernel's ``predict(key)`` ledger and shared across calls."""

    @staticmethod
    def _bstate(n=5):
        return SimpleNamespace(work=WorkBuffers(), n=n, m=n, nn=4, device=TESLA_C1060)

    @staticmethod
    def _predict(calls):
        def predict(key):
            calls.append(key)
            return KernelStats(flops=float(key or 0)), LaunchConfig(grid=2, block=32)

        return predict

    def test_fields_come_from_predict(self):
        calls = []
        (rep,) = cached_stage_reports(
            self._bstate(), "k", [3.0], "pheromone", "atomic", self._predict(calls)
        )
        assert (rep.stage, rep.kernel) == ("pheromone", "atomic")
        assert rep.stats.flops == 3.0
        assert rep.launch == LaunchConfig(grid=2, block=32)
        assert calls == [3.0]

    def test_equal_keys_share_one_report(self):
        calls = []
        bstate = self._bstate()
        predict = self._predict(calls)
        first = cached_stage_reports(bstate, "k", [None, None], "choice", "c", predict)
        again = cached_stage_reports(bstate, "k", [None], "choice", "c", predict)
        assert first[0] is first[1] is again[0]
        assert calls == [None]

    def test_kernel_geometry_and_key_separate_reports(self):
        calls = []
        predict = self._predict(calls)
        bstate = self._bstate()
        a, b = cached_stage_reports(bstate, "k", [1.0, 2.0], "s", "k", predict)
        (c,) = cached_stage_reports(bstate, "other", [1.0], "s", "other", predict)
        bstate.n = 6  # another geometry on the same arena
        (d,) = cached_stage_reports(bstate, "k", [1.0], "s", "k", predict)
        assert len({id(a), id(b), id(c), id(d)}) == 4
        assert calls == [1.0, 2.0, 1.0, 1.0]

    def test_least_recently_used_report_is_evicted(self):
        calls = []
        predict = self._predict(calls)
        bstate = self._bstate()
        keys = list(range(STAGE_REPORT_CACHE_SIZE))
        cached_stage_reports(bstate, "k", keys, "s", "k", predict)
        cached_stage_reports(bstate, "k", [0], "s", "k", predict)  # 0 is fresh again
        cached_stage_reports(bstate, "k", [-1], "s", "k", predict)  # evicts 1
        del calls[:]
        cached_stage_reports(bstate, "k", [0, 2, 1], "s", "k", predict)
        assert calls == [1]
