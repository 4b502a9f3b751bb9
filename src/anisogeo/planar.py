"""Low-level planar geometry: hulls, polygon polars, distances.

Everything here works on plain (k, 2) float arrays of points. Vertex lists
are counterclockwise unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
_NEIGHBOURS = np.arange(3)[:, None]
# Point-edge pairs per block of the distance kernels: a few MB of temporaries.
_BLOCK_PAIRS = 1 << 18
# Shewchuk's (1997) bound on the rounding error of a computed orientation
# determinant, ccwerrboundA: a determinant larger in magnitude than this
# times |detleft| + |detright| has the sign of the exact one. The floor
# covers products that underflow.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_FLOOR = 2.0**-1060
# Clouds of at least this many points are hulled by whole-array sweeps,
# smaller ones by a Python stack; the two take the same time near this size.
_SWEEP_MIN = 256


def unit_scaled(points: np.ndarray) -> tuple[np.ndarray, int]:
    """The points times 2**-e, with e chosen so the largest magnitude lies in
    [0.5, 1), and e. Exact for all but subnormal results."""
    _, exponent = np.frexp(np.abs(points).max())
    return np.ldexp(points, -exponent), int(exponent)


def _prune_collinear_cycle(cycle: np.ndarray, eps: float) -> np.ndarray:
    """Drop cycle vertices whose neighbour turn area is at most eps.

    A pass computes every turn at once, then drops flagged vertices but
    never two neighbours: in each run of consecutive flagged vertices it
    drops the first, third, ..., so each drop is judged against vertices
    that stay. Two nearly coincident corners therefore lose one point, not
    the corner. Passes repeat until no vertex is flagged; a cycle with every
    vertex flagged is collinear and raises.
    """
    while len(cycle) > 3:
        o = np.concatenate((cycle[-1:], cycle[:-1]))
        b = np.concatenate((cycle[1:], cycle[:1]))
        turn = (cycle[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (cycle[:, 1] - o[:, 1]) * (
            b[:, 0] - o[:, 0]
        )
        flag = turn <= eps
        if not flag.any():
            return cycle
        if flag.all():
            raise ValueError("point cloud is degenerate (collinear)")
        # Start at a kept vertex, so that no run wraps around the end.
        shift = int(np.argmin(flag))
        flag = np.concatenate((flag[shift:], flag[:shift]))
        pos = np.arange(len(flag))
        starts = flag & ~np.concatenate(([False], flag[:-1]))
        nth = pos - np.maximum.accumulate(np.where(starts, pos, 0))
        keep = ~(flag & (nth % 2 == 0))
        keep = np.concatenate((keep[-shift:], keep[:-shift])) if shift else keep
        if np.count_nonzero(keep) < 3:
            raise ValueError("point cloud is degenerate (collinear)")
        cycle = cycle[keep]
    return cycle


def _orient(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Orientation determinant of the points (a, b, c), given as complex
    numbers, and its rounding bound: positive beyond the bound is a certain
    left turn, negative beyond it a certain right turn."""
    u = b - a
    v = c - a
    left = u.real * v.imag
    right = u.imag * v.real
    return left - right, _ORIENT_ERR * (np.abs(left) + np.abs(right)) + _ORIENT_FLOOR


def _cycle_turns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_orient` at every vertex of a cycle with its two neighbours."""
    return _orient(np.concatenate((z[-1:], z[:-1])), z, np.concatenate((z[1:], z[:1])))


def _certain_left(x: list, y: list, a: int, b: int, c: int) -> bool:
    """Whether (a, b, c) certainly turn left; the test :func:`_stack_chain`
    runs inline."""
    ax, ay = x[a], y[a]
    left = (x[b] - ax) * (y[c] - ay)
    right = (y[b] - ay) * (x[c] - ax)
    return left - right > _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_FLOOR


def _stack_chain(x: list, y: list, order: list) -> list:
    """Andrew's monotone chain over ``order``: a point stays on the stack only
    while the turn onto the next point is certainly to the left."""
    out: list = []
    for c in order:
        cx, cy = x[c], y[c]
        while len(out) > 1:
            a, b = out[-2], out[-1]
            ax, ay = x[a], y[a]
            left = (x[b] - ax) * (cy - ay)
            right = (y[b] - ay) * (cx - ax)
            if left - right > _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_FLOOR:
                break
            out.pop()
        out.append(c)
    return out


def _sweep(z: np.ndarray, below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Hull of a sorted cloud by whole-array passes (quickhull on the chains).

    The cycle holds the first point, the lower chain, the last point and
    the upper chain, so every point sits between two marked vertices, its
    segment. It starts with the extreme points along the axes and the
    diagonals marked. Each pass drops every point not certainly outside its
    segment's chord: it lies inside the polygon of cloud points the chains
    form, or within rounding of the chord. Then it marks the farthest point
    of each segment. After the first pass, a segment whose points all turn
    certainly left is marked whole: a left-turning x-monotone chain is
    convex.
    """
    n = len(z)
    idx = np.concatenate(([0], below, [n - 1], above))
    p = z[idx]
    vert = np.zeros(len(idx), bool)
    vert[0] = vert[len(below) + 1] = True
    x, y = p.real, p.imag
    s, d = x + y, x - y
    vert[[y.argmin(), y.argmax(), s.argmin(), s.argmax(), d.argmin(), d.argmax()]] = True
    first = True
    while True:
        # Position j lies in segment k = seg[j] (counted from 1), on the
        # chord from vertex k - 1 to vertex k (mod the vertex count).
        seg = np.add.accumulate(vert, dtype=np.intp)
        a = p[vert]
        det, bound = _orient(
            np.concatenate((a[:1], a))[seg], np.concatenate((a[:1], a[1:], a[:1]))[seg], p
        )
        keep = vert | (det < -bound)
        idx, p, vert, det, seg = idx[keep], p[keep], vert[keep], det[keep], seg[keep]
        if vert.all():
            return idx
        # The farthest point of each segment; a segment without points has
        # its minimum, 0, at its own vertex.
        farthest = np.minimum.reduceat(det, np.flatnonzero(vert))[seg - 1]
        if first:
            first = False
            turn, bound = _cycle_turns(p)
            unsure = np.zeros(len(a) + 1, bool)
            unsure[seg[turn <= bound]] = True
            vert |= ~unsure[seg]
        vert[det == farthest] = True


def _settle(x: list, y: list, cycle: list, todo: list) -> list:
    """Drop the vertices in ``todo`` whose turn is not certainly left, one at
    a time against the neighbours that stay, and recheck those neighbours."""
    while todo and len(cycle) >= 3:
        v = todo.pop()
        if v not in cycle:
            continue
        i = cycle.index(v)
        a, c = cycle[i - 1], cycle[(i + 1) % len(cycle)]
        if not _certain_left(x, y, a, v, c):
            del cycle[i]
            todo += [a, c]
    if len(cycle) < 3:
        raise ValueError("point cloud is degenerate (collinear)")
    return cycle


def hull_cycle(points: np.ndarray) -> np.ndarray:
    """Counterclockwise hull cycle of a 2D point cloud, exact up to rounding.

    The cycle starts at the lexicographically smallest vertex and turns
    certainly left at every vertex (Shewchuk's error bound on the
    orientation determinant). A point is dropped only when it is certainly
    inside, or within rounding of a chord between two points that stay, so
    of two nearly coincident corners one stays. Vertices that are not
    collinear up to rounding stay too; :func:`strictly_convex` prunes at a
    coarser tolerance. Andrew's monotone chain on the lexicographic order:
    a Python stack below ``_SWEEP_MIN`` points, whole-array passes
    (:func:`_sweep`) from there. Turns are taken on the points scaled by a
    power of two into [-1, 1], exact at any magnitude. Fully degenerate or
    non-finite clouds raise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("need at least 3 planar points")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud is not finite")
    # Complex numbers sort lexicographically, real part first.
    z = np.ascontiguousarray(unit_scaled(pts)[0]).view(np.complex128).ravel()
    order = z.argsort(kind="stable")
    z = z[order]
    n = len(z)
    det, bound = _orient(z[0], z[-1], z)
    below = np.flatnonzero(det < -bound)
    above = np.flatnonzero(det > bound)[::-1]
    if n >= _SWEEP_MIN:
        cycle = _sweep(z, below, above)
        turn, bound = _cycle_turns(z[cycle])
        unsure = turn <= bound
        if not unsure.any():
            return pts[order[cycle]]
        x, y = z.real.tolist(), z.imag.tolist()
        cycle, todo = cycle.tolist(), cycle[unsure].tolist()
    else:
        x, y = z.real.tolist(), z.imag.tolist()
        lower = _stack_chain(x, y, [0, *below.tolist(), n - 1])
        upper = _stack_chain(x, y, [n - 1, *above.tolist(), 0])
        # Only the turns where the chains meet are unchecked.
        cycle, todo = lower[:-1] + upper[:-1], [0, n - 1]
    return pts[order[_settle(x, y, cycle, todo)]]


def strictly_convex(cycle: np.ndarray, eps_rel: float = 1e-12) -> np.ndarray:
    """A CCW hull cycle without the vertices collinear with their neighbours
    (turn area at most ``eps_rel * scale**2``, where scale is the largest
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

    :func:`hull_cycle`, then the vertices collinear with their hull
    neighbours (turn area at most ``eps_rel * scale**2``) are pruned, so the
    output is strictly convex. Fully degenerate clouds raise.
    """
    return strictly_convex(hull_cycle(points), eps_rel)


def support_values(cycle: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """max over the vertices of a convex CCW cycle of <vertex, d>, per direction d.

    Vertex ``j`` attains the maximum for the directions between the outward
    normals of edges ``j-1`` and ``j`` (edge ``j`` runs from vertex ``j`` to
    ``j+1``). The edge angles, unwrapped along the cycle, increase; a binary
    search finds each direction's sector, and the maximum over the sector's
    vertex and its two neighbours absorbs rounding at ties and in
    near-collinear runs, so an unpruned hull cycle is read exactly.
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
