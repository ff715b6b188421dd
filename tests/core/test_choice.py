"""Tests for the Choice kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.choice import ChoiceKernel
from repro.core.params import ACOParams
from repro.simt.device import TESLA_C1060, TESLA_M2050
from tests.helpers import one_row_state


@pytest.fixture
def state(small_instance):
    return one_row_state(
        small_instance, ACOParams(alpha=1.0, beta=2.0), TESLA_C1060, choice=False
    )


class TestFunctional:
    def test_fills_choice_info(self, state):
        ChoiceKernel().run_batch(state)
        assert state.choice_info is not None
        i, j = 3, 7
        expected = state.pheromone[0, i, j] ** 1.0 * state.eta[0, i, j] ** 2.0
        assert state.choice_info[0, i, j] == pytest.approx(expected)

    def test_diagonal_zero(self, state):
        ChoiceKernel().run_batch(state)
        assert np.all(np.diagonal(state.choice_info, axis1=1, axis2=2) == 0)

    def test_respects_exponents(self, small_instance):
        st = one_row_state(
            small_instance, ACOParams(alpha=2.0, beta=3.0), TESLA_C1060
        )
        expected = st.pheromone[0, 1, 2] ** 2.0 * st.eta[0, 1, 2] ** 3.0
        assert st.choice_info[0, 1, 2] == pytest.approx(expected)


class TestLedger:
    def test_report_stage(self, state):
        (rep,) = ChoiceKernel().run_batch(state)
        assert rep.stage == "choice"
        assert rep.stats.kernel_launches == 1

    def test_counts_scale_with_n2(self):
        ck = ChoiceKernel()
        s1, _ = ck.predict_stats(100, TESLA_C1060)
        s2, _ = ck.predict_stats(200, TESLA_C1060)
        assert s2.special_ops == pytest.approx(4 * s1.special_ops)
        assert s2.gmem_load_bytes == pytest.approx(4 * s1.gmem_load_bytes)

    def test_launch_covers_matrix(self):
        ck = ChoiceKernel(block=256)
        _, launch = ck.predict_stats(100, TESLA_M2050)
        assert launch.total_threads >= 100 * 100

    def test_block_clipped_to_device(self):
        ck = ChoiceKernel(block=1024)
        cfg = ck.launch_config(TESLA_C1060, n=100)
        assert cfg.block == 512
