"""Tests for the tree-reduction depth of the data-parallel kernel."""

from __future__ import annotations

import pytest

from repro.core.construction.dataparallel import reduction_stage_count


class TestStageCount:
    @pytest.mark.parametrize(
        "width,stages", [(1, 0), (2, 1), (3, 2), (4, 2), (32, 5), (256, 8), (257, 9)]
    )
    def test_values(self, width, stages):
        assert reduction_stage_count(width) == stages

    def test_invalid(self):
        with pytest.raises(ValueError):
            reduction_stage_count(0)
