"""Minimal SVG emission for crystal and polar-body figures.

Coordinates are mathematical (y up); the viewport is fitted to the drawn
elements with a 10% margin. Every element is a closed polygon stroked at
0.4% of the figure's span; its points are "x,y" pairs, each coordinate as
"%.8g" prints it (``fileio._format_table``). Colors are fixed: crystal
blue, cost graph black, polar body green.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from . import fileio

CRYSTAL_COLOR = "#1f4fd8"
GRAPH_COLOR = "#000000"
POLAR_COLOR = "#1a9641"

# Figure width in pixels.
SIZE = 640


@dataclass
class PolyLine:
    points: np.ndarray
    color: str


def render_svg(elements: list[PolyLine], path) -> None:
    """Write the elements as one SVG figure.

    Points must be finite (n, 2) arrays, and the view box, the points'
    bounding box padded by 10% of its larger side, must be finite too,
    with a nonzero width and height; anything else raises ``ValueError``
    naming the file and the quantity, and no file is written.
    """
    points = [np.asarray(e.points, dtype=float) for e in elements]
    for i, p in enumerate(points):
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"{path}: element {i}: points must be (n, 2), got shape {p.shape}")
        if not np.isfinite(p).all():  # whole-array reductions: axis=1 ones are slow on (n, 2)
            bad = int(np.argmin(np.isfinite(p).all(axis=1)))
            raise ValueError(f"{path}: element {i}: point {bad + 1} is not finite: {p[bad].tolist()}")
    pts = np.vstack(points)
    xs, ys = pts[:, 0], pts[:, 1]
    x0, y0, x1, y1 = float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
    # Half the span never overflows, and 0.2 times it is 0.1 times the span
    # (0.2 is 2 * 0.1 in binary), exactly.
    margin = 0.2 * max(0.5 * x1 - 0.5 * x0, 0.5 * y1 - 0.5 * y0, 0.5e-9)
    box = {"left": x0 - margin, "bottom": y0 - margin, "right": x1 + margin, "top": y1 + margin}
    box["width"] = box["right"] - box["left"]
    box["height"] = box["top"] - box["bottom"]
    for name, value in box.items():
        if not math.isfinite(value):
            raise ValueError(f"{path}: the view box {name} is beyond the float range")
    width, height = box["width"], box["height"]
    # A margin below half an ulp of the coordinates vanishes: one point at
    # 1e8, or points one unit apart at y = 1e20.
    for name in ("width", "height"):
        if box[name] == 0.0:
            raise ValueError(f"{path}: the view box {name} rounds to zero")
    stroke = 0.004 * max(width, height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE * (height / width):.0f}" '
        f'viewBox="{box["left"]:.6g} {-box["top"]:.6g} {width:.6g} {height:.6g}">',
        # Flip to y-up: SVG's y axis points down.
        '<g transform="scale(1,-1)">',
    ]
    for e, p in zip(elements, points):
        coords = fileio._format_table(p, 8, ", ")[:-1]
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="{e.color}" '
            f'stroke-width="{stroke:.6g}" stroke-linejoin="round"/>'
        )
    parts.append("</g></svg>")
    FilePath(path).write_text("\n".join(parts) + "\n")


def crystal_figure(ctx, svg_path) -> None:
    """Overlay of the crystal boundary, the cost's polar graph and the polar body."""
    graph = ctx.grid.directions * ctx._f_grid[:, None]
    elements = [
        PolyLine(graph, GRAPH_COLOR),
        PolyLine(ctx.crystal.vertices, CRYSTAL_COLOR),
        PolyLine(ctx.polar_body.vertices, POLAR_COLOR),
    ]
    render_svg(elements, svg_path)
