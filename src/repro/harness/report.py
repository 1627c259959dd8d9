"""Plain-text table formatting for experiment reports."""

from __future__ import annotations

__all__ = ["format_table", "iter_table"]


def iter_table(headers, rows, float_fmt="{:.2f}"):
    """The lines of an aligned ASCII table, one at a time.

    ``rows`` is read twice, for the column widths and then for the
    lines, so it must be a sequence (or any iterable that starts over);
    no rendered row is kept.
    """

    def render(row):
        return [
            float_fmt.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]

    widths = [len(header) for header in headers]
    for row in rows:
        cells = render(row)
        widths = [max(width, len(cells[i])) for i, width in enumerate(widths)]
    yield "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    yield "  ".join("-" * w for w in widths)
    for row in rows:
        yield "  ".join(c.ljust(w) for c, w in zip(render(row), widths))


def format_table(headers, rows, float_fmt="{:.2f}"):
    """Render a list of rows (sequences) as an aligned ASCII table."""
    return "\n".join(iter_table(headers, list(rows), float_fmt))
