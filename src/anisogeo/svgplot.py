"""Minimal SVG emission for crystal/polar-body/geodesic figures.

Coordinates are mathematical (y up); the viewport is fitted to the drawn
elements with a 10% margin. Colors are fixed: crystal blue, cost graph
black, polar body green, geodesics red/orange.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

CRYSTAL_COLOR = "#1f4fd8"
GRAPH_COLOR = "#000000"
POLAR_COLOR = "#1a9641"
GEODESIC_COLORS = ("#d7191c", "#fdae61")


@dataclass
class PolyLine:
    points: np.ndarray
    color: str
    closed: bool = False
    width_frac: float = 0.004


def render_svg(elements: list[PolyLine], path, size: int = 640) -> None:
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
    stroke = max(width, height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size * height / width:.0f}" '
        f'viewBox="{lo[0]:.6g} {-hi[1]:.6g} {width:.6g} {height:.6g}">',
        # Flip to y-up: SVG's y axis points down.
        '<g transform="scale(1,-1)">',
    ]
    for e, p in zip(elements, points):
        # One C-level format call per element; "%.8g" and f"{x:.8g}" agree.
        coords = " ".join(["%.8g,%.8g"] * len(p)) % tuple(p.ravel().tolist())
        tag = "polygon" if e.closed else "polyline"
        parts.append(
            f'<{tag} points="{coords}" fill="none" stroke="{e.color}" '
            f'stroke-width="{e.width_frac * stroke:.6g}" stroke-linejoin="round"/>'
        )
    parts.append("</g></svg>")
    FilePath(path).write_text("\n".join(parts) + "\n")


def crystal_figure(ctx, svg_path, geodesic_paths=()) -> None:
    """Overlay of the crystal boundary, the cost's polar graph, the polar
    body, and optional geodesics."""
    graph = ctx.grid.directions * ctx._f_grid[:, None]
    elements = [
        PolyLine(graph, GRAPH_COLOR, closed=True),
        PolyLine(ctx.crystal.vertices, CRYSTAL_COLOR, closed=True),
        PolyLine(ctx.polar_body.vertices, POLAR_COLOR, closed=True),
    ]
    for i, p in enumerate(geodesic_paths):
        color = GEODESIC_COLORS[i % len(GEODESIC_COLORS)]
        elements.append(PolyLine(p.points, color, closed=False, width_frac=0.006))
    render_svg(elements, svg_path)
