"""Terminal figure rendering (ASCII) for benchmark outputs.

The benches print the paper's tables; these helpers print its *curves*
— CDFs, phase-force profiles, spectra — as monospace plots, so the
regenerated figures are inspectable in a terminal-only environment
(and in the persisted ``benchmarks/results/*.txt`` files) without any
plotting dependency.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def ascii_plot(series: Sequence[Tuple[str, np.ndarray, np.ndarray]],
               width: int = 64, height: int = 16,
               x_label: str = "", y_label: str = "") -> str:
    """Render one or more (label, x, y) series as an ASCII plot.

    Each series gets its own marker character (its label's first
    letter).  Axes are linear; the canvas spans the union of the data
    ranges.

    Args:
        series: Up to ~5 series of equal-meaning axes.
        width / height: Canvas size in characters.
        x_label / y_label: Axis captions.

    Returns:
        The rendered multi-line string.
    """
    if not series:
        raise ConfigurationError("need at least one series")
    if width < 16 or height < 6:
        raise ConfigurationError("canvas too small to be readable")
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size != y.size or x.size < 2:
            raise ConfigurationError(
                f"series {label!r} needs matching x/y with >= 2 points"
            )
        cleaned.append((label, x, y))

    x_min = min(float(x.min()) for _, x, _ in cleaned)
    x_max = max(float(x.max()) for _, x, _ in cleaned)
    y_min = min(float(y.min()) for _, _, y in cleaned)
    y_max = max(float(y.max()) for _, _, y in cleaned)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    canvas = [[" "] * width for _ in range(height)]
    for label, x, y in cleaned:
        marker = (label.strip() or "*")[0]
        # Interpolate onto the column grid so curves read as lines.
        columns = np.arange(width)
        column_x = x_min + columns / (width - 1) * (x_max - x_min)
        in_range = ((column_x >= x.min()) & (column_x <= x.max()))
        column_y = np.interp(column_x, x, y)
        for column in columns[in_range]:
            row = int(round((y_max - column_y[column])
                            / (y_max - y_min) * (height - 1)))
            row = max(0, min(height - 1, row))
            canvas[row][column] = marker

    lines: List[str] = []
    top_label = f"{y_max:.3g}"
    bottom_label = f"{y_min:.3g}"
    gutter = max(len(top_label), len(bottom_label)) + 1
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            prefix = top_label.rjust(gutter)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(prefix + "|" + "".join(row))
    axis = " " * gutter + "+" + "-" * width
    lines.append(axis)
    x_axis = (" " * (gutter + 1) + f"{x_min:.3g}"
              + f"{x_max:.3g}".rjust(width - len(f"{x_min:.3g}")))
    lines.append(x_axis)
    caption = []
    if x_label:
        caption.append(f"x: {x_label}")
    if y_label:
        caption.append(f"y: {y_label}")
    caption.append("series: " + ", ".join(
        f"{(label.strip() or '*')[0]}={label}" for label, _, _ in cleaned))
    lines.append(" " * gutter + "  ".join(caption))
    return "\n".join(lines)


def ascii_cdf(samples_by_label: Sequence[Tuple[str, Sequence[float]]],
              x_label: str = "|error|") -> str:
    """Render empirical CDFs of absolute errors (the paper's Figs. 13-14
    presentation)."""
    series = []
    for label, samples in samples_by_label:
        values = np.sort(np.abs(np.asarray(list(samples), dtype=float)))
        if values.size < 2:
            raise ConfigurationError(
                f"series {label!r} needs >= 2 samples"
            )
        probabilities = np.arange(1, values.size + 1) / values.size
        series.append((label, values, probabilities))
    return ascii_plot(series, x_label=x_label, y_label="CDF")
