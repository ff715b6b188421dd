"""Tests for the experiment harness model helpers."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.harness import (
    ExperimentResult,
    construction_model_time,
    device_by_key,
    pheromone_model_time,
    run_experiment,
    sequential_model_time,
)
from repro.simt.device import TESLA_C1060, TESLA_M2050


class TestModelHelpers:
    def test_construction_time_positive_and_growing(self):
        t_small = construction_model_time(8, "att48", TESLA_C1060)
        t_big = construction_model_time(8, "pcb442", TESLA_C1060)
        assert 0 < t_small < t_big

    def test_include_choice_flag(self):
        with_choice = construction_model_time(3, "a280", TESLA_C1060)
        without = construction_model_time(3, "a280", TESLA_C1060, include_choice=False)
        assert with_choice > without

    def test_v1_never_includes_choice(self):
        a = construction_model_time(1, "a280", TESLA_C1060, include_choice=True)
        b = construction_model_time(1, "a280", TESLA_C1060, include_choice=False)
        assert a == b

    def test_pheromone_time_positive(self):
        assert pheromone_model_time(1, "att48", TESLA_M2050) > 0

    def test_sequential_kinds(self):
        nn = sequential_model_time("construct_nnlist", "a280")
        full = sequential_model_time("construct_full", "a280")
        upd = sequential_model_time("update", "a280")
        assert 0 < upd < nn < full

    def test_sequential_invalid_kind(self):
        with pytest.raises(ExperimentError):
            sequential_model_time("construct_greedy", "a280")

    def test_device_lookup(self):
        assert device_by_key("c1060") is TESLA_C1060
        with pytest.raises(ExperimentError):
            device_by_key("h100")

    def test_explicit_fallback_steps_respected(self):
        a = construction_model_time(4, "a280", TESLA_C1060, fallback_steps=0.0)
        b = construction_model_time(4, "a280", TESLA_C1060, fallback_steps=50_000.0)
        assert b > a

    def test_custom_params_override(self):
        from repro.simt.timing import CostParams

        slow = CostParams(launch_overhead_s=1.0)
        t = construction_model_time(8, "att48", TESLA_C1060, params=slow)
        assert t > 1.0


class TestRunService:
    def test_load_generator_packs_and_matches_solo(self):
        import numpy as np

        from repro.core import AntSystem
        from repro.experiments.harness import run_service
        from repro.serve import SolveRequest
        from repro.tsp import uniform_instance

        from repro.core import ACOParams

        instances = [uniform_instance(14, seed=900 + i) for i in range(4)]
        requests = [
            SolveRequest(
                instance=inst,
                params=ACOParams(seed=5 + i, nn=7),
                iterations=4,
                report_every=2,
            )
            for i, inst in enumerate(instances)
        ]
        load = run_service(requests, max_batch=2, workers=2)
        assert load.stats.batches == 2
        assert load.stats.completed == 4
        assert load.wall_seconds > 0.0
        assert load.best_lengths.shape == (4,)
        for request, result, updates in zip(
            requests, load.results, load.updates
        ):
            assert len(updates) == 2
            solo = AntSystem(request.instance, request.params).run(4)
            assert result.best_length == solo.best_length
            np.testing.assert_array_equal(result.best_tour, solo.best_tour)

    def test_empty_burst_rejected(self):
        from repro.errors import ExperimentError
        from repro.experiments.harness import run_service

        with pytest.raises(ExperimentError):
            run_service([])


class TestRunExperiment:
    def test_unknown_id(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("table9")

    def test_registry_contains_all_artefacts(self):
        from repro.experiments.harness import EXPERIMENTS
        from repro.experiments import figures, tables  # noqa: F401

        assert set(EXPERIMENTS) >= {"table2", "table3", "table4", "fig4a", "fig4b", "fig5"}

    def test_result_render_smoke(self):
        res = run_experiment("table3")
        assert isinstance(res, ExperimentResult)
        text = res.render()
        assert "Atomic Ins." in text
        md = res.table().render()
        assert "model" in md
