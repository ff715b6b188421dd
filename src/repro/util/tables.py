"""ASCII/markdown table rendering for experiment reports.

The experiment harness prints tables shaped exactly like the paper's
Tables II-IV (versions down the side, instances across the top), so this
module provides a tiny column-aligned table formatter with no third-party
dependencies.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["Table", "format_ms"]


def format_ms(value_s: float) -> str:
    """Render a duration in seconds as milliseconds the way the paper does.

    The paper prints between 2 decimals (small times) and whole numbers
    (huge times); we keep 2-4 significant figures depending on magnitude.
    """
    ms = value_s * 1e3
    if ms >= 1000.0:
        return f"{ms:.0f}"
    if ms >= 10.0:
        return f"{ms:.1f}"
    return f"{ms:.2f}"


class Table:
    """A column-aligned text table.

    Parameters
    ----------
    headers:
        Column titles.
    title:
        Optional caption printed above the table.

    Examples
    --------
    >>> t = Table(["version", "att48"], title="demo")
    >>> t.add_row(["baseline", "13.14"])
    >>> print(t.render())  # doctest: +ELLIPSIS
    demo...
    """

    def __init__(self, headers: Sequence[str], title: str | None = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, cells: Iterable[object]) -> None:
        """Append a row; cells are stringified and must match the header count."""
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def _widths(self) -> list[int]:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """Render as a plain-text table with a header separator line."""
        widths = self._widths()

        def fmt(row: Sequence[str]) -> str:
            return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))

        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt(self.headers))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt(r) for r in self.rows)
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table (used for EXPERIMENTS.md)."""
        lines: list[str] = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
