"""Plain-text reporting helpers: aligned tables and ASCII series plots.

The paper's figures are line plots of "outer iterations to convergence"
versus "aggregate inner solve iteration that faults".  Since this library is
matplotlib-free by design (no plotting dependency is installed), the
experiment drivers render the same series as ASCII plots and aligned tables,
which is sufficient to compare shapes against the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_table", "ascii_series_plot", "campaign_class_table"]


def _stringify(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.4e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers, rows, title: str | None = None) -> str:
    """Render an aligned plain-text table.

    Parameters
    ----------
    headers : sequence of str
        Column headers.
    rows : sequence of sequences
        Table body; values are stringified with sensible float formatting.
    title : str, optional
        Title printed above the table.
    """
    headers = [str(h) for h in headers]
    str_rows = [[_stringify(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    lines = []
    if title:
        lines.append(title)
    lines.append(sep.join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep.join("-" * w for w in widths))
    for row in str_rows:
        lines.append(sep.join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def campaign_class_table(campaign) -> tuple[list, list]:
    """The per-fault-class summary table of a campaign (Figures 3/4 footer).

    A formatting of :meth:`CampaignResult.summary` — the single
    implementation of the per-class statistics — so it renders identically
    from a live :class:`~repro.faults.campaign.CampaignResult` and from one
    loaded back out of a :class:`~repro.results.store.RunStore`.
    """
    headers = ["fault class", "worst outer", "max increase", "% increase",
               "detected"]
    rows = [
        [cls, stats["max_outer"], stats["max_increase"],
         f"{stats['percent_increase']:.1f}%",
         f"{stats['detection_rate'] * 100:.0f}%"]
        for cls, stats in campaign.summary().items()
    ]
    return headers, rows


def ascii_series_plot(x, y, *, width: int = 72, height: int = 14, title: str = "",
                      xlabel: str = "", ylabel: str = "", marker: str = "*") -> str:
    """Render a scatter/line series as an ASCII plot.

    Parameters
    ----------
    x, y : array_like
        Series data (equal length).
    width, height : int
        Plot canvas size in characters.
    title, xlabel, ylabel : str
        Optional labels.
    marker : str
        Character used for data points.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"x and y must have the same length, got {x.shape} and {y.shape}")
    lines = []
    if title:
        lines.append(title)
    if x.size == 0:
        lines.append("(no data)")
        return "\n".join(lines)

    x_min, x_max = float(x.min()), float(x.max())
    y_min, y_max = float(y.min()), float(y.max())
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0

    canvas = [[" "] * width for _ in range(height)]
    cols = np.clip(((x - x_min) / x_span * (width - 1)).round().astype(int), 0, width - 1)
    rows = np.clip(((y - y_min) / y_span * (height - 1)).round().astype(int), 0, height - 1)
    for c, r in zip(cols, rows):
        canvas[height - 1 - r][c] = marker

    y_label_width = max(len(f"{y_max:g}"), len(f"{y_min:g}"))
    for i, row in enumerate(canvas):
        if i == 0:
            label = f"{y_max:g}".rjust(y_label_width)
        elif i == height - 1:
            label = f"{y_min:g}".rjust(y_label_width)
        else:
            label = " " * y_label_width
        lines.append(f"{label} |" + "".join(row))
    lines.append(" " * y_label_width + " +" + "-" * width)
    x_axis = f"{x_min:g}".ljust(width // 2) + f"{x_max:g}".rjust(width - width // 2)
    lines.append(" " * (y_label_width + 2) + x_axis)
    if xlabel:
        lines.append(" " * (y_label_width + 2) + xlabel.center(width))
    if ylabel:
        lines.insert(1 if title else 0, f"[y: {ylabel}]")
    return "\n".join(lines)
