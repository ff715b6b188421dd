"""Unit tests for the batched multi-colony engine and its state."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ACOParams, AntSystem, BatchEngine
from repro.core.batch import BatchColonyState
from repro.errors import ACOConfigError
from repro.rng import ParkMillerLCG, XorwowRNG, make_batched_rng, make_rng
from repro.simt.device import TESLA_M2050
from repro.tsp import uniform_instance
from repro.tsp.tour import validate_tour


class TestBatchedRng:
    @pytest.mark.parametrize("kind,cls", [("lcg", ParkMillerLCG), ("curand", XorwowRNG)])
    def test_blocks_reproduce_solo_sequences(self, kind, cls):
        seeds = [3, 14, 15]
        streams = 8
        batched = make_batched_rng(kind, streams, seeds)
        assert isinstance(batched, cls)
        assert batched.n_streams == streams * len(seeds)
        draws = np.stack([batched.uniform() for _ in range(5)])  # (5, 24)
        for b, seed in enumerate(seeds):
            solo = make_rng(kind, streams, seed)
            expected = np.stack([solo.uniform() for _ in range(5)])
            np.testing.assert_array_equal(
                draws[:, b * streams : (b + 1) * streams], expected
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_batched_rng("lcg", 4, [])
        with pytest.raises(ValueError):
            make_batched_rng("lcg", 0, [1])
        with pytest.raises(ValueError):
            make_batched_rng("warp", 4, [1])


class TestBatchColonyState:
    def test_replicas_share_readonly_arrays(self):
        inst = uniform_instance(15, seed=1)
        params = [ACOParams(seed=s, nn=5) for s in (1, 2, 3)]
        state = BatchColonyState.create([inst] * 3, params, TESLA_M2050)
        # dist/eta/nn_list broadcast one base matrix; pheromone is per-row.
        assert state.dist.strides[0] == 0
        assert state.eta.strides[0] == 0
        assert state.pheromone.strides[0] != 0
        assert state.pheromone.shape == (3, 15, 15)

    def test_distinct_instances_stack(self):
        a = uniform_instance(12, seed=1)
        b = uniform_instance(12, seed=2)
        state = BatchColonyState.create(
            [a, b], [ACOParams(nn=5)] * 2, TESLA_M2050
        )
        assert state.dist.strides[0] != 0
        np.testing.assert_array_equal(state.dist[0], a.distance_matrix())
        np.testing.assert_array_equal(state.dist[1], b.distance_matrix())

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ACOConfigError, match="equal size"):
            BatchColonyState.create(
                [uniform_instance(10, seed=1), uniform_instance(12, seed=2)],
                [ACOParams(nn=5)] * 2,
                TESLA_M2050,
            )

    def test_unequal_ants_rejected(self):
        inst = uniform_instance(10, seed=1)
        with pytest.raises(ACOConfigError, match="colony size"):
            BatchColonyState.create(
                [inst] * 2,
                [ACOParams(nn=5), ACOParams(nn=5, n_ants=4)],
                TESLA_M2050,
            )

    def test_colony_view_shares_pheromone(self):
        inst = uniform_instance(10, seed=1)
        state = BatchColonyState.create([inst], [ACOParams(nn=5)], TESLA_M2050)
        view = state.colony_view(0)
        state.pheromone[0, 1, 2] = 42.0
        assert view.pheromone[1, 2] == 42.0


class TestBatchEngine:
    def test_broadcasts_single_instance_over_params(self):
        inst = uniform_instance(12, seed=3)
        engine = BatchEngine(inst, [ACOParams(seed=s, nn=5) for s in (1, 2)])
        assert engine.B == 2

    def test_replicas_constructor_seeds(self):
        inst = uniform_instance(12, seed=3)
        engine = BatchEngine.replicas(
            inst, ACOParams(seed=10, nn=5), replicas=3, seed_stride=5
        )
        assert [p.seed for p in engine.state.params] == [10, 15, 20]

    def test_run_produces_valid_tours_per_row(self):
        inst = uniform_instance(14, seed=9)
        engine = BatchEngine.replicas(
            inst, ACOParams(seed=2, nn=6), replicas=3, construction=4
        )
        reports = engine.run_iteration()
        assert len(reports) == 3
        for rep in reports:
            assert rep.tours.shape == (14, 15)
            for t in rep.tours:
                validate_tour(t, 14)

    def test_batch_run_result_best(self):
        inst = uniform_instance(14, seed=9)
        engine = BatchEngine.replicas(inst, ACOParams(seed=2, nn=6), replicas=4)
        batch = engine.run(3)
        assert batch.B == 4
        assert batch.best_length == int(batch.best_lengths.min())
        validate_tour(batch.best_tour, 14)
        assert batch.wall_seconds > 0
        assert batch.colonies_per_second(3) > 0

    def test_invalid_iterations(self):
        inst = uniform_instance(10, seed=1)
        with pytest.raises(ACOConfigError):
            BatchEngine(inst, ACOParams(nn=5)).run(0)

    def test_stage_families_per_row(self):
        inst = uniform_instance(12, seed=5)
        engine = BatchEngine.replicas(
            inst, ACOParams(seed=1, nn=5), replicas=2, construction=8, pheromone=1
        )
        reports = engine.run_iteration()
        for rep in reports:
            assert [s.stage for s in rep.stages] == [
                "choice",
                "construction",
                "pheromone",
            ]


class TestAntSystemIsBatchView:
    def test_antsystem_wraps_b1_engine(self):
        inst = uniform_instance(12, seed=5)
        colony = AntSystem(inst, ACOParams(seed=1, nn=5))
        assert colony.engine.B == 1
        assert colony.rng is colony.engine.rng

    def test_view_stays_in_sync(self):
        inst = uniform_instance(12, seed=5)
        colony = AntSystem(inst, ACOParams(seed=1, nn=5))
        colony.run_iteration()
        bs = colony.engine.state
        np.testing.assert_array_equal(colony.state.tours, bs.tours[0])
        np.testing.assert_array_equal(colony.state.pheromone, bs.pheromone[0])
        assert colony.state.best_length == int(bs.best_lengths[0])
        assert colony.state.iteration == bs.iteration


class TestHarnessDispatch:
    def test_run_replicas(self):
        inst = uniform_instance(14, seed=7)
        batch = BatchEngine.replicas(
            inst, ACOParams(seed=4, nn=6), replicas=3
        ).run(2)
        assert batch.B == 3
        # replica b must equal a solo run with seed 4 + b
        solo = AntSystem(inst, ACOParams(seed=5, nn=6)).run(2)
        assert solo.best_length == batch.results[1].best_length

    def test_run_sweep_grid(self):
        from repro.experiments.harness import run_sweep

        inst = uniform_instance(14, seed=7)
        sweep = run_sweep(
            inst,
            {"rho": [0.3, 0.7], "beta": [2.0, 4.0]},
            iterations=2,
            replicas=2,
            params=ACOParams(seed=4, nn=6),
        )
        assert len(sweep.points) == 4
        assert sweep.batch.B == 8
        assert all(len(r) == 2 for r in sweep.results)
        # point rows reproduce solo runs with the overridden params
        p = dataclasses.replace(ACOParams(seed=4, nn=6), rho=0.3, beta=2.0)
        solo = AntSystem(inst, p).run(2)
        assert solo.best_length == sweep.results[0][0].best_length
        assert "sweep" in sweep.table().render()

    def test_run_sweep_rejects_unsweepable(self):
        from repro.errors import ExperimentError
        from repro.experiments.harness import run_sweep

        inst = uniform_instance(10, seed=7)
        with pytest.raises(ExperimentError, match="cannot sweep"):
            run_sweep(inst, {"n_ants": [4, 8]}, iterations=1)

    def test_run_sweep_rejects_empty_axis(self):
        from repro.errors import ExperimentError
        from repro.experiments.harness import run_sweep

        inst = uniform_instance(10, seed=7)
        with pytest.raises(ExperimentError, match="no values"):
            run_sweep(inst, {"rho": []}, iterations=1)

    def test_run_sweep_rejects_seed_axis_with_replicas(self):
        from repro.errors import ExperimentError
        from repro.experiments.harness import run_sweep

        inst = uniform_instance(10, seed=7)
        with pytest.raises(ExperimentError, match="seed"):
            run_sweep(inst, {"seed": [1, 2]}, iterations=1, replicas=2)

    def test_replicas_rejects_zero_stride(self):
        inst = uniform_instance(10, seed=7)
        with pytest.raises(ACOConfigError, match="seed_stride"):
            BatchEngine.replicas(
                inst, ACOParams(nn=5), replicas=2, seed_stride=0
            )
