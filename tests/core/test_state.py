"""Tests for the ACOTSP derivation of a colony's state (one-row batches)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchColonyState
from repro.core.params import ACOParams
from repro.simt.device import TESLA_C1060


def create(instance, params=None):
    return BatchColonyState.create([instance], [params or ACOParams()], TESLA_C1060)


class TestCreate:
    def test_dimensions(self, small_instance):
        st = create(small_instance)
        assert (st.B, st.n, st.m, st.nn) == (1, 40, 40, 30)  # m = n
        assert st.dist.shape == (1, 40, 40)
        assert st.nn_list.shape == (1, 40, 30)

    def test_tau0_matches_acotsp_rule(self, small_instance):
        from repro.tsp.tour import nearest_neighbor_tour, tour_length

        st = create(small_instance)
        d = small_instance.distance_matrix()
        c_nn = tour_length(nearest_neighbor_tour(d), d)
        assert st.c_nn[0] == c_nn
        assert st.tau0[0] == pytest.approx(st.m / c_nn)

    def test_pheromone_uniform_off_diagonal(self, small_instance):
        st = create(small_instance)
        tau = st.pheromone[0]
        off = tau[~np.eye(40, dtype=bool)]
        assert np.allclose(off, st.tau0[0])
        assert np.all(np.diag(tau) == 0)

    def test_explicit_ants(self, small_instance):
        st = create(small_instance, ACOParams(n_ants=8))
        assert st.m == 8
