"""Minimal SVG emission for crystal and polar-body figures.

Coordinates are mathematical (y up); the viewport is fitted to the drawn
elements with a 10% margin. Every element is a closed polygon stroked at
0.4% of the figure's span; its points are "x,y" pairs, each coordinate as
"%.8g" prints it (``fileio._format_table``). Colors are fixed: crystal
blue, cost graph black, polar body green.
"""

from __future__ import annotations

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

    Points must be finite (n, 2) arrays; anything else raises
    ``ValueError`` naming the file, and no file is written.
    """
    points = [np.asarray(e.points, dtype=float) for e in elements]
    for i, p in enumerate(points):
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"{path}: element {i}: points must be (n, 2), got shape {p.shape}")
        finite = np.isfinite(p).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"{path}: element {i}: point {bad + 1} is not finite: {p[bad].tolist()}")
    pts = np.vstack(points)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.1 * float(span.max())
    lo = lo - margin
    hi = hi + margin
    width = float(hi[0] - lo[0])
    height = float(hi[1] - lo[1])
    stroke = 0.004 * max(width, height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE * height / width:.0f}" '
        f'viewBox="{lo[0]:.6g} {-hi[1]:.6g} {width:.6g} {height:.6g}">',
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
