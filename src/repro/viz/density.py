"""ASCII line/density plots for the paper's density figures."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["line_plot", "density_plot"]

_GLYPHS = "123456789*"


def line_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Overlay several (x, y) series on one character grid.

    Each series gets a digit glyph; overlapping cells show '*'.
    """
    if not series:
        return "(no data)"
    xs = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    if xs.size == 0:
        return "(no data)"
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_hi = float(ys.max()) or 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    grid = np.full(height * width, " ", dtype="<U1")
    for si, (x, y) in enumerate(series.values()):
        glyph = _GLYPHS[si % 9]
        x, y = np.asarray(x, float), np.asarray(y, float)
        n = min(x.size, y.size)  # pairs, as zip() would make them
        x, y = x[:n], y[:n]
        keep = ~(np.isnan(x) | np.isnan(y))
        col = (x[keep] - x_lo) / (x_hi - x_lo) * (width - 1)
        row = np.maximum(0.0, y[keep]) / y_hi * (height - 1)
        bad = ~(np.isfinite(col) & np.isfinite(row))
        if bad.any():
            # a NaN or infinite cell index: fail as int() fails on it
            i = int(np.argmax(bad))
            int(col[i]), int(row[i])
        cells = np.unique(
            (height - 1 - row.astype(np.int64)) * width + col.astype(np.int64)
        )
        # a series writes its glyph into empty cells and its own; a cell
        # another series drew first becomes '*'
        cur = grid[cells]
        grid[cells] = np.where((cur == " ") | (cur == glyph), glyph, "*")
    lines = ["|" + "".join(r) for r in grid.reshape(height, width).tolist()]
    lines.append("+" + "-" * width)
    lines.append(f" x: [{x_lo:.3g}, {x_hi:.3g}]  y max: {y_hi:.3g}")
    legend = "  ".join(
        f"{_GLYPHS[i % 9]}={label}" for i, label in enumerate(series.keys())
    )
    lines.append(" " + legend)
    body = "\n".join(lines)
    return f"{title}\n{body}" if title else body


def density_plot(
    samples: Mapping[str, Sequence[float]],
    width: int = 72,
    height: int = 16,
    title: str | None = None,
    log_scale: bool = False,
) -> str:
    """KDE overlay of several samples (the paper's density figures)."""
    from repro.stats.kde import gaussian_kde

    series = {}
    for label, sample in samples.items():
        v = np.asarray(list(sample), dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size < 2:
            continue
        k = gaussian_kde(v, log_scale=log_scale)
        series[label] = (k.grid, k.density)
    if not series:
        return "(no data)"
    return line_plot(series, width=width, height=height, title=title)
