"""Tests for repro.util.tables."""

from __future__ import annotations

import pytest

from repro.util.tables import Table, format_ms


class TestFormatters:
    def test_format_ms_small(self):
        assert format_ms(0.00123) == "1.23"

    def test_format_ms_medium(self):
        assert format_ms(0.0123) == "12.3"

    def test_format_ms_large(self):
        assert format_ms(1.5) == "1500"

    @pytest.mark.parametrize(
        "seconds,text",
        [(0.0, "0.00"), (0.00999, "9.99"), (0.01, "10.0"), (0.9994, "999.4"), (1.0, "1000")],
    )
    def test_format_ms_boundaries(self, seconds, text):
        assert format_ms(seconds) == text


class TestTable:
    def test_render_contains_headers_and_cells(self):
        t = Table(["a", "bb"], title="demo")
        t.add_row([1, 2])
        text = t.render()
        assert "demo" in text
        assert "a" in text and "bb" in text
        assert "1" in text and "2" in text

    def test_row_length_mismatch_raises(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_alignment_right_justified(self):
        t = Table(["col"])
        t.add_row(["x"])
        t.add_row(["longer"])
        lines = t.render().splitlines()
        # header line, separator, two rows — all equal width
        widths = {len(line) for line in lines}
        assert len(widths) == 1

    def test_markdown_shape(self):
        t = Table(["h1", "h2"], title="md")
        t.add_row(["a", "b"])
        md = t.render_markdown()
        assert "| h1 | h2 |" in md
        assert "|---|---|" in md
        assert "| a | b |" in md

    def test_markdown_without_title_starts_with_header(self):
        t = Table(["h"])
        t.add_row([1])
        assert t.render_markdown().splitlines() == ["| h |", "|---|", "| 1 |"]

    def test_str_equals_render(self):
        t = Table(["x"])
        t.add_row([3])
        assert str(t) == t.render()

    def test_empty_table_renders_headers_only(self):
        t = Table(["only"])
        lines = t.render().splitlines()
        assert len(lines) == 2  # header + separator
