"""Tests for the scatter-to-gather pheromone kernels (versions 3-5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ACOParams
from repro.core.pheromone.reduction import ReductionPheromone
from repro.core.pheromone.scatter_gather import (
    ScatterGatherPheromone,
    ScatterGatherTiledPheromone,
)
from repro.errors import ACOConfigError
from repro.simt.device import TESLA_C1060, TESLA_M2050
from repro.tsp.tour import edge_indices, random_tour, tour_lengths
from tests.helpers import one_row_state


@pytest.fixture
def tours_and_lengths(small_instance):
    rng = np.random.default_rng(4)
    n = small_instance.n
    tours = np.stack([random_tour(n, rng) for _ in range(n)])
    return tours, tour_lengths(tours, small_instance.distance_matrix())


class TestPaperFormulas:
    """The paper gives the traffic formulas explicitly — assert them."""

    def test_v5_total_loads_2n4(self):
        n = m = 100
        s, _ = ScatterGatherPheromone().predict_stats(n, m, TESLA_C1060)
        # scan loads: 2 * n^2 cells * m * (n+1) entries... the paper rounds
        # tours to n^2: check the leading term is 2 n^4 within (n+1)/n slack
        scan_bytes = 4.0 * 2.0 * n * n * m * (n + 1)
        assert s.gmem_load_bytes == pytest.approx(
            scan_bytes + 4.0 * (n * n + m), rel=1e-6
        )

    def test_v4_divides_global_by_theta(self):
        n = m = 100
        theta = 256
        s4, l4 = ScatterGatherTiledPheromone(theta=theta).predict_stats(
            n, m, TESLA_C1060
        )
        s5, _ = ScatterGatherPheromone(theta=theta).predict_stats(n, m, TESLA_C1060)
        scan5 = s5.gmem_load_bytes - 4.0 * (n * n + m)
        scan4 = s4.gmem_load_bytes - 4.0 * (n * n + m)
        assert scan4 == pytest.approx(scan5 / l4.block, rel=1e-6)

    def test_v4_full_stream_hits_shared(self):
        n = m = 100
        s4, _ = ScatterGatherTiledPheromone().predict_stats(n, m, TESLA_C1060)
        assert s4.smem_accesses >= 2.0 * n * n * m * (n + 1)

    def test_v3_half_the_threads_half_the_work(self):
        n = m = 100
        s3, l3 = ReductionPheromone().predict_stats(n, m, TESLA_C1060)
        s4, l4 = ScatterGatherTiledPheromone().predict_stats(n, m, TESLA_C1060)
        # thread count halves (upper triangle)
        assert l3.grid * l3.block <= l4.grid * l4.block * 0.6
        # total smem access stream roughly halves
        assert s3.smem_accesses < 0.6 * s4.smem_accesses

    def test_no_atomics_in_any_gather_version(self):
        for cls in (ReductionPheromone, ScatterGatherTiledPheromone, ScatterGatherPheromone):
            s, _ = cls().predict_stats(100, 100, TESLA_C1060)
            assert s.atomics_fp == 0 and s.atomics_int == 0


class TestFunctionalEquivalence:
    def test_all_five_versions_identical_matrices(
        self, small_instance, tours_and_lengths
    ):
        """Every strategy computes the same mathematical update."""
        from repro.core.pheromone import PHEROMONE_VERSIONS

        tours, lengths = tours_and_lengths
        edges = edge_indices(tours[None])
        results = []
        for _version, cls in sorted(PHEROMONE_VERSIONS.items()):
            st = one_row_state(
                small_instance, ACOParams(seed=3), TESLA_M2050, choice=False
            )
            cls().update_batch(st, edges, lengths[None])
            results.append(st.pheromone)
        for other in results[1:]:
            np.testing.assert_allclose(results[0], other, rtol=1e-12)

    def test_theta_validation(self):
        with pytest.raises(ACOConfigError):
            ScatterGatherPheromone(theta=8)
        with pytest.raises(ACOConfigError):
            ReductionPheromone(theta=0)


class TestOrdering:
    """Model-time orderings the paper's tables show."""

    def _time(self, cls, n, device, **kw):
        from repro.experiments.calibration import gpu_cost_params
        from repro.simt.timing import estimate_time

        s, launch = cls(**kw).predict_stats(n, n, device)
        return estimate_time(
            s,
            device,
            gpu_cost_params(device),
            effective_parallelism=launch.occupancy(device).effective_parallelism,
        )

    @pytest.mark.parametrize("device", [TESLA_C1060, TESLA_M2050], ids=["c1060", "m2050"])
    def test_gather_versions_dwarf_atomics(self, device):
        from repro.core.pheromone.atomic import AtomicSharedPheromone

        t_atomic = self._time(AtomicSharedPheromone, 442, device)
        t_s2g = self._time(ScatterGatherPheromone, 442, device)
        assert t_s2g > 50 * t_atomic

    def test_tiling_beats_plain_s2g_at_scale(self):
        t4 = self._time(ScatterGatherTiledPheromone, 657, TESLA_C1060)
        t5 = self._time(ScatterGatherPheromone, 657, TESLA_C1060)
        assert t4 < t5

    def test_reduction_beats_tiled_at_scale(self):
        t3 = self._time(ReductionPheromone, 657, TESLA_C1060)
        t4 = self._time(ScatterGatherTiledPheromone, 657, TESLA_C1060)
        assert t3 < t4

    def test_slowdown_grows_with_n(self):
        from repro.core.pheromone.atomic import AtomicSharedPheromone

        slow = []
        for n in (100, 280, 442):
            slow.append(
                self._time(ScatterGatherPheromone, n, TESLA_C1060)
                / self._time(AtomicSharedPheromone, n, TESLA_C1060)
            )
        assert slow[0] < slow[1] < slow[2]
