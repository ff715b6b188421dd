"""Tests for TSPInstance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TSPError, UnsupportedEdgeWeightError
from repro.tsp.instance import TSPInstance

TRI = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


class TestConstruction:
    def test_coordinate_instance(self):
        inst = TSPInstance(name="tri", coords=TRI, edge_weight_type="EUC_2D")
        assert inst.n == 3

    def test_explicit_instance(self):
        m = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        inst = TSPInstance(name="ex", explicit_matrix=m)
        assert inst.n == 3
        assert inst.edge_weight_type == "EXPLICIT"

    def test_needs_coords_or_matrix(self):
        with pytest.raises(TSPError):
            TSPInstance(name="empty")

    def test_too_few_cities(self):
        with pytest.raises(TSPError):
            TSPInstance(name="two", coords=TRI[:2])

    def test_bad_coord_shape(self):
        with pytest.raises(TSPError):
            TSPInstance(name="bad", coords=np.zeros((4, 3)))

    def test_non_square_matrix(self):
        with pytest.raises(TSPError):
            TSPInstance(name="bad", explicit_matrix=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coords(self, bad):
        coords = TRI.copy()
        coords[1, 0] = bad
        with pytest.raises(TSPError, match="'coords'"):
            TSPInstance(name="bad", coords=coords)

    def test_unsupported_edge_weight_type(self):
        with pytest.raises(UnsupportedEdgeWeightError, match="'FOO'"):
            TSPInstance(name="bad", coords=TRI, edge_weight_type="FOO")

    def test_edge_weight_type_is_case_insensitive(self):
        # As the distance table looks it up.
        assert TSPInstance(name="tri", coords=TRI, edge_weight_type="euc_2d").n == 3

    def test_explicit_instance_is_exempt_from_the_type_check(self):
        m = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        inst = TSPInstance(name="ex", coords=TRI, explicit_matrix=m, edge_weight_type="FOO")
        assert inst.edge_weight_type == "EXPLICIT"


class TestDistanceMatrix:
    def test_values(self):
        inst = TSPInstance(name="tri", coords=TRI)
        d = inst.distance_matrix()
        assert d[1, 2] == 5

    def test_cached_identity(self):
        inst = TSPInstance(name="tri", coords=TRI)
        assert inst.distance_matrix() is inst.distance_matrix()

    def test_explicit_diagonal_zeroed(self):
        m = np.array([[9, 2, 3], [2, 9, 4], [3, 4, 9]])
        inst = TSPInstance(name="ex", explicit_matrix=m)
        assert np.all(np.diag(inst.distance_matrix()) == 0)

    def test_symmetry_check(self):
        inst = TSPInstance(name="tri", coords=TRI)
        assert inst.is_symmetric()


class TestHeuristicMatrix:
    def test_eta_is_reciprocal_with_shift(self):
        inst = TSPInstance(name="tri", coords=TRI)
        eta = inst.heuristic_matrix(shift=0.1)
        assert eta[1, 2] == pytest.approx(1.0 / 5.1)

    def test_diagonal_finite(self):
        inst = TSPInstance(name="tri", coords=TRI)
        eta = inst.heuristic_matrix()
        assert np.all(np.isfinite(eta))
        assert eta[0, 0] == pytest.approx(10.0)  # 1 / 0.1


class TestNNCache:
    def test_nn_lists_shape_and_cache(self):
        inst = TSPInstance(name="tri", coords=TRI)
        nn = inst.nn_lists(2)
        assert nn.shape == (3, 2)
        assert inst.nn_lists(2) is nn  # cached

    def test_nn_lists_clipped(self):
        inst = TSPInstance(name="tri", coords=TRI)
        assert inst.nn_lists(50).shape == (3, 2)
