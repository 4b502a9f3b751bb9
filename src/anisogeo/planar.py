"""Low-level planar geometry: hulls, polygon polars, distances.

Everything here works on plain (k, 2) float arrays of points. Vertex lists
are counterclockwise unless stated otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

TWO_PI = 2.0 * np.pi
_NEIGHBOURS = np.arange(3)[:, None]
# Point-edge pairs per block of the distance kernels: a few MB of temporaries.
_BLOCK_PAIRS = 1 << 18


def unit_scaled(points: np.ndarray) -> tuple[np.ndarray, int]:
    """The points times 2**-e, with e chosen so the largest magnitude lies in
    [0.5, 1), and e. Exact for all but subnormal results."""
    _, exponent = np.frexp(np.abs(points).max())
    return np.ldexp(points, -exponent), int(exponent)


def _prune_collinear_cycle(cycle: np.ndarray, eps: float) -> np.ndarray:
    """Drop cycle vertices whose neighbour turn area is below eps.

    Every turn of a pass is computed at once; passes repeat until no vertex
    drops, exactly as a vertex-by-vertex sweep would.
    """
    while len(cycle) > 3:
        o = np.concatenate((cycle[-1:], cycle[:-1]))
        b = np.concatenate((cycle[1:], cycle[:1]))
        turn = (cycle[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (cycle[:, 1] - o[:, 1]) * (
            b[:, 0] - o[:, 0]
        )
        keep = turn > eps
        kept = int(np.count_nonzero(keep))
        if kept == len(cycle):
            return cycle
        if kept < 3:
            raise ValueError("point cloud is degenerate (collinear)")
        cycle = cycle[keep]
    return cycle


def hull_cycle(points: np.ndarray) -> np.ndarray:
    """qhull's counterclockwise hull cycle of a 2D point cloud, unpruned.

    The cycle may keep vertices that are collinear with their neighbours up
    to rounding; :func:`support_values` reads such cycles exactly, and
    :func:`strictly_convex` prunes them. Fully degenerate clouds raise.
    qhull sees the points scaled by a power of two into [-1, 1]: the scaling
    is exact, and it keeps clouds of any magnitude inside qhull's range.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("need at least 3 planar points")
    try:
        hull = ConvexHull(unit_scaled(pts)[0])
    except QhullError as exc:
        raise ValueError(f"point cloud is degenerate ({exc.__class__.__name__})") from exc
    return pts[hull.vertices]  # counterclockwise in 2D


def strictly_convex(cycle: np.ndarray, eps_rel: float = 1e-12) -> np.ndarray:
    """A CCW hull cycle without the vertices collinear with their neighbours
    (turn area below ``eps_rel * scale**2``, where scale is the largest
    coordinate magnitude).

    Turns are taken on the cycle scaled by a power of two into [-1, 1], so
    they neither overflow nor underflow; the scaling is exact and leaves
    every decision as it is at the cycle's own scale.
    """
    unit, exponent = unit_scaled(cycle)
    scale = float(np.abs(unit).max())
    return np.ldexp(_prune_collinear_cycle(unit, eps_rel * scale**2), exponent)


def convex_hull_ccw(points: np.ndarray, eps_rel: float = 1e-12) -> np.ndarray:
    """Counterclockwise convex hull of a 2D point cloud.

    Vertex selection is qhull's; vertices collinear with their hull
    neighbours (turn area below ``eps_rel * scale**2``) are then pruned, so
    the output is strictly convex. Fully degenerate clouds raise.
    """
    return strictly_convex(hull_cycle(points), eps_rel)


def support_values(cycle: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """max over the vertices of a convex CCW cycle of <vertex, d>, per direction d.

    Vertex ``j`` attains the maximum for the directions between the outward
    normals of edges ``j-1`` and ``j`` (edge ``j`` runs from vertex ``j`` to
    ``j+1``). The edge angles, unwrapped along the cycle, increase; a binary
    search finds each direction's sector, and the maximum over the sector's
    vertex and its two neighbours absorbs rounding at ties and in
    near-collinear runs, so qhull's unpruned cycle is read exactly.
    O((k + n) log k) time and O(k + n) memory for k vertices and n
    directions.
    """
    v = np.asarray(cycle, dtype=float)
    d = np.asarray(directions, dtype=float)
    e = np.concatenate((v[1:], v[:1])) - v
    angle = np.arctan2(e[:, 1], e[:, 0])
    # A step of more than pi between neighbours is a wrap of arctan2's range.
    angle[1:] -= TWO_PI * np.cumsum(np.rint((angle[1:] - angle[:-1]) / TWO_PI))
    np.maximum.accumulate(angle, out=angle)
    # An edge's outward normal is its direction turned by -pi/2, so d lies in
    # vertex j's sector when angle[j-1] <= angle(d) + pi/2 < angle[j].
    start = angle[0]
    turned = start + np.mod(np.arctan2(d[:, 1], d[:, 0]) + (0.5 * np.pi - start), TWO_PI)
    sector = np.searchsorted(angle, turned, side="right")  # 1 <= sector <= k
    # Entry i + 1 of the padded cycle is vertex i (mod k), so entries
    # sector + (0, 1, 2) are the sector's vertex and its two neighbours.
    padded = np.concatenate((v[-1:], v, v[:2])).T
    near = sector + _NEIGHBOURS
    return (padded[0][near] * d[:, 0] + padded[1][near] * d[:, 1]).max(axis=0)


def polygon_area(vertices: np.ndarray) -> float:
    """Signed shoelace area; positive for counterclockwise vertices."""
    v = np.asarray(vertices, dtype=float)
    w = np.concatenate((v[1:], v[:1]))
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))


def edge_normals_and_offsets(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normal and support offset of every edge of a CCW polygon.

    Edge ``j`` runs from vertex ``j`` to vertex ``j+1``; its halfspace is
    ``{x : <x, normal_j> <= offset_j}``.
    """
    v = np.asarray(vertices, dtype=float)
    e = np.concatenate((v[1:], v[:1])) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    if np.any(lengths <= 0.0):
        raise ValueError("polygon has a zero-length edge")
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    return normals, offsets


def polar_polygon(vertices: np.ndarray) -> np.ndarray:
    """Vertices of the polar body of a convex CCW polygon with 0 interior.

    Vertex/facet duality: each edge with outward normal n at support offset
    h > 0 becomes the polar vertex n / h; each primal vertex becomes a polar
    edge. Raises if the origin is not strictly interior (the polar would be
    unbounded).
    """
    normals, offsets = edge_normals_and_offsets(vertices)
    return polar_of_halfspaces(normals, offsets, float(np.abs(vertices).max()))


def polar_of_halfspaces(normals: np.ndarray, offsets: np.ndarray, scale: float) -> np.ndarray:
    """:func:`polar_polygon` from a polygon's edge normals and offsets.

    ``scale`` is the polygon's largest coordinate magnitude: an offset at or
    below ``1e-14 * scale`` puts the origin on the boundary up to rounding.
    """
    if offsets.min() <= 1e-14 * scale:
        raise ValueError("origin is not strictly interior; polar body is unbounded")
    return normals / offsets[:, None]


def segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distance from every point to every segment, shape (points, segments).

    The closest point of segment ``[a, b]`` to ``p`` is ``a + t (b - a)``
    with ``t = clip(<p - a, b - a> / |b - a|**2, 0, 1)``, and ``t = 0`` on a
    zero-length segment.
    """
    p = np.asarray(points, dtype=float)
    a = np.asarray(starts, dtype=float)
    ab = np.asarray(ends, dtype=float) - a
    px, py = p[:, :1], p[:, 1:]
    ax, ay, abx, aby = a[:, 0], a[:, 1], ab[:, 0], ab[:, 1]
    denom = abx * abx + aby * aby
    t = (px - ax) * abx + (py - ay) * aby
    np.divide(t, denom, out=t, where=denom != 0.0)
    t[:, denom == 0.0] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(ax + t * abx - px, ay + t * aby - py)


def _directed_hausdorff(points: np.ndarray, vertices: np.ndarray) -> float:
    """max over the points of their distance to a convex CCW polygon as a set.

    A point is outside when it lies strictly right of some edge; inside
    points are at distance 0. Rows go in blocks of about ``_BLOCK_PAIRS``
    point-edge pairs, so memory stays O(block) for any polygon sizes.
    """
    a = vertices
    b = np.concatenate((a[1:], a[:1]))
    ax, ay = a[:, 0], a[:, 1]
    abx, aby = b[:, 0] - ax, b[:, 1] - ay
    rows = max(1, _BLOCK_PAIRS // len(a))
    worst = []
    for lo in range(0, len(points), rows):
        p = points[lo : lo + rows]
        cross = abx * (p[:, 1:] - ay) - aby * (p[:, :1] - ax)
        outside = p[(cross < 0.0).any(axis=1)]
        worst.append(segment_distances(outside, a, b).min(axis=1).max() if len(outside) else 0.0)
    return float(max(worst))


def hausdorff_distance(a_vertices: np.ndarray, b_vertices: np.ndarray) -> float:
    """Hausdorff distance between two convex polygons (as sets).

    For convex sets the supremum over each set is attained at a vertex, so
    scanning vertices against the other polygon is exact. Both polygons are
    scaled by one power of two into [-1, 1] (exact), so the distances
    neither overflow nor underflow at any scale.
    """
    a = np.asarray(a_vertices, dtype=float)
    both, exponent = unit_scaled(np.vstack((a, np.asarray(b_vertices, dtype=float))))
    a, b = both[: len(a)], both[len(a) :]
    return float(np.ldexp(max(_directed_hausdorff(a, b), _directed_hausdorff(b, a)), exponent))
