"""Headless (ASCII) visualisation of masks, rooflines and breakdowns.

Everything in this reproduction runs without matplotlib; these renderers
give the CLI readable pictures of the paper's figures: Fig. 8 mask
density plots, Fig. 3 rooflines and Fig. 19 breakdown bars.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_mask", "render_breakdown", "render_roofline"]

_SHADES = " .:-=+*#%@"


def render_mask(mask, width=60):
    """Density picture of a boolean (N, N) mask (Fig. 8 style)."""
    mask = np.asarray(mask, dtype=float)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {mask.shape}")
    n, m = mask.shape
    step_r = max(1, n // width)
    step_c = max(1, m // width)
    lines = []
    for i in range(0, n - step_r + 1, step_r):
        row = []
        for j in range(0, m - step_c + 1, step_c):
            density = mask[i:i + step_r, j:j + step_c].mean()
            row.append(_SHADES[min(len(_SHADES) - 1,
                                   int(density * len(_SHADES)))])
        lines.append("".join(row))
    return "\n".join(lines)


def render_breakdown(fractions, width=40):
    """Stacked latency-breakdown bar (Fig. 19 style).

    ``fractions`` maps label -> fraction; characters: compute '#',
    preprocess '~', data_movement '='.
    """
    chars = {"compute": "#", "preprocess": "~", "data_movement": "="}
    bar = []
    for key, ch in chars.items():
        bar.append(ch * int(round(width * fractions.get(key, 0.0))))
    line = "".join(bar)[:width]
    legend = "  ".join(f"{ch}={key} {fractions.get(key, 0.0):.0%}"
                       for key, ch in chars.items())
    return f"[{line.ljust(width)}] {legend}"


def render_roofline(points, config=None, width=60, height=14):
    """Log-log roofline with labelled kernel points (Fig. 3 style).

    ``points`` is an iterable of objects with .name/.intensity attributes
    (see :class:`repro.roofline.RooflinePoint`).
    """
    from .hw.params import VITCOD_DEFAULT
    from .roofline import attainable_gops

    config = config or VITCOD_DEFAULT
    points = list(points)
    intensities = [p.intensity for p in points if np.isfinite(p.intensity)]
    if not intensities:
        raise ValueError("no finite roofline points")
    x_lo = min(min(intensities) / 2, 0.1)
    x_hi = max(max(intensities) * 2, 10.0)
    y_hi = config.peak_gops * 1.5
    y_lo = attainable_gops(x_lo, config) / 2

    def to_col(x):
        return int((np.log10(x) - np.log10(x_lo))
                   / (np.log10(x_hi) - np.log10(x_lo)) * (width - 1))

    def to_row(y):
        return height - 1 - int(
            (np.log10(y) - np.log10(y_lo))
            / (np.log10(y_hi) - np.log10(y_lo)) * (height - 1)
        )

    grid = [[" "] * width for _ in range(height)]
    # The roof itself.
    for col in range(width):
        x = 10 ** (np.log10(x_lo) + col / (width - 1)
                   * (np.log10(x_hi) - np.log10(x_lo)))
        row = to_row(max(min(attainable_gops(x, config), y_hi), y_lo))
        if 0 <= row < height:
            grid[row][col] = "_"
    # Kernel points, labelled by their first letter.
    labels = []
    for p in points:
        if not np.isfinite(p.intensity):
            continue
        col = min(max(to_col(p.intensity), 0), width - 1)
        y = max(min(attainable_gops(p.intensity, config), y_hi), y_lo)
        row = min(max(to_row(y), 0), height - 1)
        marker = p.name[0].upper()
        grid[row][col] = marker
        labels.append(f"{marker}={p.name} ({p.intensity:.2f} Op/B)")
    lines = ["".join(r) for r in grid]
    header = f"GOPS (peak {config.peak_gops:.0f}) — log-log"
    return "\n".join([header] + lines + ["intensity (Ops/Byte)"] + labels)
