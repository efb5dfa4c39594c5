"""Hexagonal-grid SVG heatmaps of per-spot values.

One pointy-top hexagon per spot, placed on an odd-row-offset grid from the
(row, col) array coordinates.  Values are normalized to [0, 1] across the
rendered spots before coloring; a constant field maps to mid-scale.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .errors import ShapeError

# dark blue -> teal -> green -> yellow ramp (t, r, g, b)
_RAMP = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)
HEX_RADIUS = 10.0  # center-to-corner size of a spot's hexagon, in SVG units


def value_to_color(t: float) -> str:
    """Map t in [0, 1] to a hex color on the ramp (clamped outside)."""
    t = min(1.0, max(0.0, float(t)))
    for (t0, c0), (t1, c1) in zip(_RAMP, _RAMP[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + f * (b - a)) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_RAMP[-1][1])


def normalize_values(values: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant field maps to 0.5 everywhere."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def _hex_points(cx: float, cy: float, r: float) -> str:
    pts = []
    for i in range(6):
        angle = math.radians(60.0 * i + 30.0)
        pts.append(f"{cx + r * math.cos(angle):.2f},{cy + r * math.sin(angle):.2f}")
    return " ".join(pts)


def render_hex_svg(coords, values, out_path=None, title: str = "") -> str:
    """Render one hexagon per spot; returns the SVG text.

    ``coords`` is an N x 2 integer array of (row, col); ``values`` the
    per-spot scalars to color.  Writes to ``out_path`` when given.
    """
    coords = np.asarray(coords)
    values = np.asarray(values, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] != values.shape[0]:
        raise ShapeError(
            f"coords {coords.shape} and values {values.shape} must be N x 2 and N"
        )
    t = normalize_values(values)
    width_step = math.sqrt(3.0) * HEX_RADIUS
    height_step = 1.5 * HEX_RADIUS
    margin = 2.0 * HEX_RADIUS

    xs = (coords[:, 1] + 0.5 * (coords[:, 0] % 2)) * width_step + margin
    ys = coords[:, 0] * height_step + margin
    if len(xs):  # a centre left of or above the margin (negative coordinates) shifts the grid
        xs, ys = xs + max(0.0, margin - xs.min()), ys + max(0.0, margin - ys.min())
    width = float(xs.max() + margin) if len(xs) else 2 * margin
    height = float(ys.max() + margin) if len(ys) else 2 * margin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height + (18 if title else 0):.0f}">'
    ]
    if title:
        parts.append(f'<text x="{margin:.0f}" y="14" font-size="12">{escape(title)}</text>')
    offset = 18 if title else 0
    for i in range(coords.shape[0]):
        parts.append(
            f'<polygon points="{_hex_points(float(xs[i]), float(ys[i]) + offset, HEX_RADIUS * 0.95)}" '
            f'fill="{value_to_color(float(t[i]))}" data-value="{t[i]:.6f}"/>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if out_path is not None:
        Path(out_path).write_text(svg)
    return svg
