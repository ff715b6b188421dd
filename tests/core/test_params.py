"""Tests for ACOParams."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.params import MAX_ANTS, ACOParams
from repro.errors import ACOConfigError


class TestDefaults:
    def test_paper_values(self):
        p = ACOParams()
        assert p.alpha == 1.0
        assert p.beta == 2.0
        assert p.rho == 0.5
        assert p.nn == 30
        assert p.n_ants is None

    def test_resolve_ants_default_m_equals_n(self):
        assert ACOParams().resolve_ants(442) == 442

    def test_resolve_ants_explicit(self):
        assert ACOParams(n_ants=64).resolve_ants(442) == 64

    def test_resolve_nn_clips(self):
        assert ACOParams(nn=30).resolve_nn(10) == 9
        assert ACOParams(nn=30).resolve_nn(100) == 30


class TestValidation:
    def test_rho_bounds(self):
        ACOParams(rho=1.0)
        with pytest.raises(ACOConfigError):
            ACOParams(rho=0.0)
        with pytest.raises(ACOConfigError):
            ACOParams(rho=1.5)

    def test_negative_exponents(self):
        with pytest.raises(ACOConfigError):
            ACOParams(alpha=-1)
        with pytest.raises(ACOConfigError):
            ACOParams(beta=-0.5)

    def test_ants_positive(self):
        with pytest.raises(ACOConfigError):
            ACOParams(n_ants=0)

    def test_ants_bounded(self):
        assert ACOParams(n_ants=MAX_ANTS).n_ants == MAX_ANTS
        with pytest.raises(ACOConfigError, match="n_ants"):
            ACOParams(n_ants=MAX_ANTS + 1)
        # The default m = n is not bounded: it follows the instance.
        assert ACOParams().resolve_ants(MAX_ANTS + 1) == MAX_ANTS + 1

    def test_nn_positive(self):
        with pytest.raises(ACOConfigError):
            ACOParams(nn=0)

    def test_eta_shift_positive(self):
        with pytest.raises(ACOConfigError):
            ACOParams(eta_shift=0.0)

    def test_frozen(self):
        p = ACOParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.alpha = 2.0  # type: ignore[misc]


class TestBounds:
    """Each field's admitted range, edge values included; a refusal names
    the field it refuses."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rho", 1e-9),
            ("rho", 1.0),
            ("alpha", 0.0),
            ("beta", 0.0),
            ("n_ants", 1),
            ("n_ants", MAX_ANTS),
            ("nn", 1),
            ("seed", 0),
            ("seed", 2**63 - 1),
            ("eta_shift", 1e-12),
        ],
    )
    def test_edge_value_admitted(self, field, value):
        assert getattr(ACOParams(**{field: value}), field) == value

    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("rho", 0.0, "rho"),
            ("rho", -0.5, "rho"),
            ("rho", 1.0 + 1e-12, "rho"),
            ("alpha", -1.0, "alpha"),
            ("beta", -1e-9, "beta"),
            ("n_ants", 0, "n_ants"),
            ("n_ants", -3, "n_ants"),
            ("n_ants", MAX_ANTS + 1, "n_ants"),
            ("n_ants", 1 << 40, "n_ants"),
            ("nn", 0, "nn"),
            ("eta_shift", 0.0, "eta_shift"),
            ("eta_shift", -1.0, "eta_shift"),
            ("seed", -1, "seed"),
            ("seed", 2**63, "seed"),
        ],
    )
    def test_out_of_range_refused(self, field, value, named):
        with pytest.raises(ACOConfigError, match=named):
            ACOParams(**{field: value})
