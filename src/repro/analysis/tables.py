"""ASCII rendering of tables and figure series.

Every benchmark prints the same rows or series the paper reports, so a
run's output can be eyeballed against the original figures without any
plotting dependency.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Monospace table with per-column width fitting."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def format_series(
    times: np.ndarray,
    values_by_label: dict[str, np.ndarray],
    unit: str = "",
) -> str:
    """A figure's time series as rows of aligned columns.

    Times are rendered in hours (the paper's x axes); one column per
    labelled line of the figure.
    """
    labels = list(values_by_label)
    headers = ["t (h)"] + [
        f"{label}{f' ({unit})' if unit else ''}" for label in labels
    ]
    rows = []
    for index, t in enumerate(np.asarray(times)):
        row: list[object] = [f"{t / 3600.0:.2f}"]
        for label in labels:
            series = np.asarray(values_by_label[label])
            row.append(float(series[index]) if index < series.size else float("nan"))
        rows.append(row)
    return format_table(headers, rows)


def format_scatter_summary(
    ranks: np.ndarray,
    values_by_label: dict[str, np.ndarray],
    n_bands: int = 8,
    value_name: str = "value",
) -> str:
    """Summarize a per-channel scatter (Figures 5-8) in rank bands.

    The paper's scatters have 20 000 points; printing geometric-mean
    values over logarithmic rank bands reproduces the visible shape
    (plateaus, crossovers) in a dozen rows.
    """
    ranks = np.asarray(ranks)
    order = np.argsort(ranks)
    n = ranks.size
    edges = np.unique(
        np.geomspace(1, n, n_bands + 1).astype(np.int64)
    )
    headers = ["rank band"] + [
        f"{label} ({value_name})" for label in values_by_label
    ]
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = order[lo - 1 : hi]
        row: list[object] = [f"{lo}-{hi}"]
        for label, values in values_by_label.items():
            selected = np.asarray(values, dtype=np.float64)[band]
            selected = selected[~np.isnan(selected)]
            selected = selected[selected > 0]
            if selected.size == 0:
                row.append(float("nan"))
            else:
                row.append(float(np.exp(np.log(selected).mean())))
        rows.append(row)
    return format_table(headers, rows)
