"""Terminal plotting: render figure curves as ASCII charts.

The harness's primary outputs are tables (diff-friendly, CI-friendly), but
a curve's *shape* — who wins, where the crossover sits — reads faster as a
picture.  These charts are pure text, so they work in logs and over ssh,
and they carry the same data as :meth:`FigureResult.rows`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["ascii_chart", "figure_chart", "topology_map"]

_MARKERS = "ox+*#@%&"


def ascii_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 64,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    y_range: tuple[float, float] | None = None,
    title: str | None = None,
) -> str:
    """Plot named (xs, ys) curves on one text canvas.

    Parameters
    ----------
    series:
        Mapping label -> (x values, y values); each curve gets a marker.
    width, height:
        Canvas size in characters (excluding axes).
    y_range:
        Fixed y axis range; default spans the data (padded 5 %).
    """
    if not series:
        return "(no data)"
    all_x = np.concatenate([np.asarray(xs, dtype=float) for xs, _ in series.values()])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series.values()])
    if all_x.size == 0:
        return "(no data)"
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    if y_range is None:
        pad = 0.05 * (float(all_y.max()) - float(all_y.min()) or 1.0)
        y_lo, y_hi = float(all_y.min()) - pad, float(all_y.max()) + pad
    else:
        y_lo, y_hi = y_range
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    canvas = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, max(0, int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))))

    def to_row(y: float) -> int:
        frac = (y - y_lo) / (y_hi - y_lo)
        return min(height - 1, max(0, int(round((1.0 - frac) * (height - 1)))))

    legend = []
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        legend.append(f"{marker} {label}")
        xs_arr = np.asarray(xs, dtype=float)
        ys_arr = np.asarray(ys, dtype=float)
        # linear interpolation between points for a continuous stroke
        for i in range(len(xs_arr) - 1):
            c0, c1 = to_col(xs_arr[i]), to_col(xs_arr[i + 1])
            for c in range(min(c0, c1), max(c0, c1) + 1):
                if c1 == c0:
                    y = ys_arr[i]
                else:
                    frac = (c - c0) / (c1 - c0)
                    y = ys_arr[i] + frac * (ys_arr[i + 1] - ys_arr[i])
                canvas[to_row(float(y))][c] = marker
        for x, y in zip(xs_arr, ys_arr):
            canvas[to_row(float(y))][to_col(float(x))] = marker

    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(canvas):
        if r == 0:
            axis = f"{y_hi:8.2f} |"
        elif r == height - 1:
            axis = f"{y_lo:8.2f} |"
        elif r == height // 2:
            axis = f"{(y_lo + y_hi) / 2:8.2f} |"
        else:
            axis = "         |"
        lines.append(axis + "".join(row))
    lines.append("         +" + "-" * width)
    left = f"{x_lo:g}"
    right = f"{x_hi:g}"
    gap = max(1, width - len(left) - len(right))
    lines.append("          " + left + " " * gap + right)
    lines.append(f"          {x_label} →   ({y_label} ↑)")
    lines.append("          " + "   ".join(legend))
    return "\n".join(lines)


def topology_map(snapshot, width: int = 60, height: int = 24) -> str:
    """Render a :class:`~repro.sim.world.WorldSnapshot` as an ASCII map.

    Nodes are digits (ID mod 10); logical links are drawn with ``.``
    between endpoints.  Handy in examples and debugging sessions to *see*
    a partition.
    """
    positions = snapshot.positions
    n = positions.shape[0]
    if n == 0:
        return "(empty network)"
    x_lo, y_lo = positions.min(axis=0)
    x_hi, y_hi = positions.max(axis=0)
    x_span = max(x_hi - x_lo, 1e-9)
    y_span = max(y_hi - y_lo, 1e-9)
    canvas = [[" "] * width for _ in range(height)]

    def cell(p) -> tuple[int, int]:
        col = int(round((p[0] - x_lo) / x_span * (width - 1)))
        row = int(round((1.0 - (p[1] - y_lo) / y_span) * (height - 1)))
        return row, col

    # Each link once, as (min, max) pairs in row-major order.
    logical = snapshot.logical_csr
    rows, cols = logical.rows_array(), logical.indices
    off_diagonal = rows != cols
    keys = np.unique(
        np.minimum(rows, cols)[off_diagonal] * n + np.maximum(rows, cols)[off_diagonal]
    )
    for u, v in zip(keys // n, keys % n):
        r0, c0 = cell(positions[u])
        r1, c1 = cell(positions[v])
        steps = max(abs(r1 - r0), abs(c1 - c0), 1)
        for s in range(1, steps):
            r = r0 + (r1 - r0) * s // steps
            c = c0 + (c1 - c0) * s // steps
            if canvas[r][c] == " ":
                canvas[r][c] = "."
    for i in range(n):
        r, c = cell(positions[i])
        canvas[r][c] = str(i % 10)
    lines = [f"t = {snapshot.time:.2f}s — {n} nodes, logical links as dots"]
    lines.extend("".join(row) for row in canvas)
    return "\n".join(lines)


def figure_chart(figure, width: int = 64, height: int = 16) -> str:
    """Render a :class:`~repro.analysis.figures.FigureResult` as ASCII.

    Connectivity figures get a fixed [0, 1] y-range so different charts
    compare visually.
    """
    series = {
        s.label: (s.xs(), s.y(figure.metric)) for s in figure.series
    }
    y_range = (0.0, 1.0) if figure.metric == "connectivity" else None
    x_name = figure.series[0].x_name if figure.series else "x"
    return ascii_chart(
        series,
        width=width,
        height=height,
        x_label=x_name,
        y_label=figure.metric,
        y_range=y_range,
        title=f"{figure.figure_id} — {figure.title}",
    )
