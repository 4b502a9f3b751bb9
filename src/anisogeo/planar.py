"""Low-level planar geometry: hulls, polygon polars, distances.

Everything here works on plain (k, 2) float arrays of points. Vertex lists
are counterclockwise unless stated otherwise.

Several cycles can be worked on at once, concatenated into one array with
the links :func:`cycle_links` gives them: :func:`strictly_convex_cycles`
prunes each as :func:`strictly_convex` does and :func:`polar_of_cycles`
takes each one's polar, and the two batches in :mod:`crystal` and
:mod:`isoperimetry` call them. :func:`hausdorff_distances` measures many
pairs of polygons in one kernel; :func:`hausdorff_distance` is its batch of
one. Every batch gives its items' lone values bit for bit.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
_NEIGHBOURS = np.arange(3)[:, None]
# Point-edge pairs per block of the Hausdorff kernel, whose two work arrays
# then take 512 kB each. For a pair of 2880-vertex polygons, 2**14 and
# 2**18 took 1.2 and 1.1 times as long on a 2-vCPU machine.
_BLOCK_PAIRS = 1 << 16
# Shewchuk's (1997) bound on the rounding error of a computed orientation
# determinant, ccwerrboundA: a determinant larger in magnitude than this
# times |detleft| + |detright| has the sign of the exact one. The floor
# covers products that underflow.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_FLOOR = 2.0**-1060
# On points within [-1, 1], |detleft| + |detright| < 8, so a determinant
# above this is beyond the bound and certainly a left turn.
_UNIT_LEFT = 8.0 * _ORIENT_ERR + _ORIENT_FLOOR
# Clouds of at least this many points are hulled by whole-array sweeps,
# smaller ones by a Python stack; the two take the same time near this size.
_SWEEP_MIN = 256
# Turn area, relative to the squared coordinate scale, at or below which a
# hull vertex counts as collinear with its neighbours.
COLLINEAR_REL = 1e-12
# Support offset, relative to a polygon's largest coordinate magnitude, at
# or below which the origin counts as on the boundary up to rounding.
INTERIOR_REL = 1e-14


def unit_scaled(points: np.ndarray) -> tuple[np.ndarray, int]:
    """The points times 2**-e, with e chosen so the largest magnitude lies in
    [0.5, 1), and e. Exact for all but subnormal results."""
    _, exponent = np.frexp(np.abs(points).max())
    return np.ldexp(points, -exponent), int(exponent)


def turn_areas(o: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle (o, c, b), row by row: positive
    where the path o -> c -> b turns left at c."""
    return (c[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (c[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])


def cycle_links(counts) -> tuple[np.ndarray, np.ndarray]:
    """For cycles of these vertex counts concatenated into one array: the
    index of each cycle's first vertex, and of each vertex's successor in
    its own cycle."""
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    nxt = np.arange(1, int(counts.sum()) + 1)
    nxt[starts + counts - 1] = starts
    return starts, nxt


def concatenated_cycles(cycles) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cycles as one array, their vertex counts, and :func:`cycle_links`
    of them."""
    counts = np.array([len(c) for c in cycles])
    return np.concatenate(cycles), counts, *cycle_links(counts)


def row_max_abs(points: np.ndarray) -> np.ndarray:
    """``np.abs(points).max(axis=1)`` of an (n, 2) array, from its columns."""
    return np.maximum(np.abs(points[:, 0]), np.abs(points[:, 1]))


def unit_scaled_cycles(points: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of the concatenated cycles beginning at ``starts``, each
    cycle scaled as :func:`unit_scaled` scales it on its own, and each
    point's exponent (a column)."""
    _, exponent = np.frexp(np.maximum.reduceat(row_max_abs(points), starts))
    counts = np.diff(np.append(starts, len(points)))
    shift = np.repeat(exponent, counts)[:, None]
    return np.ldexp(points, -shift), shift


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
        flag = turn_areas(o, cycle, b) <= eps
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
    """Whether (a, b, c) certainly turn left, for points within [-1, 1]; the
    test :func:`_stack_chain` runs inline."""
    ax, ay = x[a], y[a]
    left = (x[b] - ax) * (y[c] - ay)
    right = (y[b] - ay) * (x[c] - ax)
    det = left - right
    return det > _UNIT_LEFT or det > 0.0 and det > _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_FLOOR


def _stack_chain(x: list, y: list, order: list) -> list:
    """Andrew's monotone chain over ``order``: a point stays on the stack only
    while the turn onto the next point is certainly to the left.

    The points lie within [-1, 1], so a determinant above ``_UNIT_LEFT`` is
    a certain left turn and one at or below 0 never is; only in between is
    Shewchuk's bound computed. The decisions are the bound's.
    """
    out: list = []
    unit_left, err, floor = _UNIT_LEFT, _ORIENT_ERR, _ORIENT_FLOOR
    for c in order:
        cx, cy = x[c], y[c]
        while len(out) > 1:
            a, b = out[-2], out[-1]
            ax, ay = x[a], y[a]
            left = (x[b] - ax) * (cy - ay)
            right = (y[b] - ay) * (cx - ax)
            det = left - right
            if det > unit_left or det > 0.0 and det > err * (abs(left) + abs(right)) + floor:
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


def strictly_convex(cycle: np.ndarray) -> np.ndarray:
    """A CCW hull cycle without the vertices collinear with their neighbours
    (turn area at most ``COLLINEAR_REL * scale**2``, where scale is the
    largest coordinate magnitude).

    Turns are taken on the cycle scaled by a power of two into [-1, 1], so
    they neither overflow nor underflow; the scaling is exact and leaves
    every decision as it is at the cycle's own scale.
    """
    unit, exponent = unit_scaled(cycle)
    scale = float(np.abs(unit).max())
    return np.ldexp(_prune_collinear_cycle(unit, COLLINEAR_REL * scale**2), exponent)


def strictly_convex_cycles(cycles) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`strictly_convex` of each hull cycle, bit for bit, concatenated
    as :func:`concatenated_cycles` gives them.

    One pass takes every turn of every cycle, each cycle scaled as
    :func:`strictly_convex` scales it; a cycle with a turn at or below its
    threshold is pruned by :func:`strictly_convex` itself.
    """
    points, counts, starts, nxt = concatenated_cycles(cycles)
    unit, shift = unit_scaled_cycles(points, starts)
    prv = np.empty_like(nxt)
    prv[nxt] = np.arange(len(nxt))
    scale = np.maximum.reduceat(row_max_abs(unit), starts)
    eps = [COLLINEAR_REL * s**2 for s in scale.tolist()]
    turn = turn_areas(unit[prv], unit, unit[nxt])
    flagged = np.logical_or.reduceat(turn <= np.repeat(eps, counts), starts)
    # Scaling back is what strictly_convex returns for a cycle it leaves whole.
    points = np.ldexp(unit, shift)
    if not flagged.any():
        return points, counts, starts, nxt
    kept = np.split(points, starts[1:])
    return concatenated_cycles(
        [strictly_convex(c) if f else k for c, k, f in zip(cycles, kept, flagged.tolist())]
    )


def convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull of a 2D point cloud.

    :func:`hull_cycle`, then :func:`strictly_convex` prunes the vertices
    collinear with their hull neighbours, so the output is strictly convex.
    Fully degenerate clouds raise.
    """
    return strictly_convex(hull_cycle(points))


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


def edge_normals_and_offsets(
    vertices: np.ndarray, nxt: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normal and support offset of every edge of a CCW polygon.

    Edge ``j`` runs from vertex ``j`` to vertex ``j+1``; its halfspace is
    ``{x : <x, normal_j> <= offset_j}``. For several polygons concatenated,
    ``nxt`` indexes each vertex's successor (:func:`cycle_links`).
    """
    v = np.asarray(vertices, dtype=float)
    e = (np.concatenate((v[1:], v[:1])) if nxt is None else v[nxt]) - v
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


def polar_of_cycles(
    points: np.ndarray, counts: np.ndarray, starts: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """:func:`polar_polygon` of each of the concatenated cycles, bit for bit.

    Polar vertex j is the dual of edge j, so the polars keep the cycles'
    counts and links. One refusal covers them all.
    """
    size = np.maximum.reduceat(row_max_abs(points), starts)
    return polar_of_halfspaces(*edge_normals_and_offsets(points, nxt), np.repeat(size, counts))


def polar_of_halfspaces(normals: np.ndarray, offsets: np.ndarray, scale: float) -> np.ndarray:
    """:func:`polar_polygon` from a polygon's edge normals and offsets.

    ``scale`` is the polygon's largest coordinate magnitude: an offset at or
    below ``INTERIOR_REL * scale`` puts the origin on the boundary up to
    rounding. For several polygons concatenated, ``scale`` holds each edge's
    own.
    """
    if np.any(offsets <= INTERIOR_REL * scale):
        raise ValueError("origin is not strictly interior; polar body is unbounded")
    return normals / offsets[:, None]


def hausdorff_distance(a_vertices: np.ndarray, b_vertices: np.ndarray) -> float:
    """Hausdorff distance between two convex CCW polygons (as sets).

    For convex sets the supremum over each set is attained at a vertex, so
    scanning vertices against the other polygon is exact. Both polygons are
    scaled by one power of two into [-1, 1] (exact), so the distances
    neither overflow nor underflow at any scale. A polygon of one or two
    vertices is a point or a segment. Raises ``ValueError`` naming the
    argument when it is not an (n >= 1, 2) array of finite vertices.
    """
    pair = [_polygon_vertices(a_vertices, "a_vertices"), _polygon_vertices(b_vertices, "b_vertices")]
    return float(_hausdorff(pair)[0])


def hausdorff_distances(pairs) -> np.ndarray:
    """:func:`hausdorff_distance` of each pair ``(a, b)``, bit for bit, in
    whole-array passes. Refusals name the pair by its index."""
    polygons = []
    for i, (a, b) in enumerate(pairs):
        polygons += [_polygon_vertices(a, f"pair {i}: a_vertices"), _polygon_vertices(b, f"pair {i}: b_vertices")]
    return _hausdorff(polygons) if polygons else np.zeros(0)


def _polygon_vertices(vertices, name: str) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 1:
        raise ValueError(f"hausdorff distance: {name} must be an (n >= 1, 2) array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"hausdorff distance: {name} has a non-finite entry")
    return v


def _hausdorff(polygons: list[np.ndarray]) -> np.ndarray:
    """The Hausdorff distance of each pair of polygons 2i and 2i + 1.

    Each pair is scaled by its own power of two. Task k is directed: the
    vertices of polygon k against the edges of polygon k ^ 1. Consecutive
    tasks share a block while their rows times their widest polygon stay
    within ``_BLOCK_PAIRS`` point-edge pairs; there each row gathers its
    own polygon's edges, a shorter polygon padded by repeating its last
    edge, which changes no test and no minimum. A task alone in its block
    reads its polygon's edges as they are, in row blocks of that size.
    Minima and maxima are exact, so no grouping changes a value.
    """
    points, counts, starts, nxt = concatenated_cycles(polygons)
    _, exponent = np.frexp(np.maximum.reduceat(np.abs(points).max(axis=1), starts[::2]))
    p = np.ldexp(points, -np.repeat(exponent, counts[::2] + counts[1::2])[:, None])
    edges = (p[:, 0], p[:, 1], p[nxt, 0] - p[:, 0], p[nxt, 1] - p[:, 1])
    partner = np.arange(len(counts)) ^ 1
    widths, firsts = counts[partner], starts[partner]
    worst = np.zeros(len(counts))
    for t0, t1 in _task_groups(counts.tolist(), widths.tolist()):
        if t1 - t0 == 1:
            w, lo = int(widths[t0]), int(firsts[t0])
            step, end = max(1, _BLOCK_PAIRS // w), int(starts[t0] + counts[t0])
            work = np.empty((2, min(step, int(counts[t0])), w))
            worst[t0] = max(
                _vertex_gaps(p[r : min(r + step, end)], edges, slice(lo, lo + w), w < 3, work).max()
                for r in range(int(starts[t0]), end, step)
            )
        else:
            task = np.repeat(np.arange(t0, t1), counts[t0:t1])
            w = widths[task][:, None]
            cols = firsts[task][:, None] + np.minimum(np.arange(widths[t0:t1].max()), w - 1)
            r0 = int(starts[t0])
            work = np.empty((2, *cols.shape))
            gaps = _vertex_gaps(p[r0 : r0 + len(task)], edges, cols, w[:, 0] < 3, work)
            worst[t0:t1] = np.maximum.reduceat(gaps, starts[t0:t1] - r0)
    return np.ldexp(worst.reshape(-1, 2).max(axis=1), exponent)


def _task_groups(rows: list, widths: list):
    """Runs [t0, t1) of consecutive tasks whose rows, times the widest of
    their polygons, stay within ``_BLOCK_PAIRS``; a larger task runs alone."""
    t0, n, w = 0, 0, 0
    for t, (r, m) in enumerate(zip(rows, widths)):
        if t > t0 and (n + r) * max(w, m) > _BLOCK_PAIRS:
            yield t0, t
            t0, n, w = t, 0, 0
        n, w = n + r, max(w, m)
    yield t0, len(rows)


def _vertex_gaps(points: np.ndarray, edges: tuple, cols, degenerate, work: np.ndarray) -> np.ndarray:
    """Each point's distance to its convex CCW polygon as a set, whose edges
    are ``e[cols]`` for each array e of ``edges`` (start x and y, then
    vector x and y): one row for all points, or one row per point.

    A point is outside when it lies strictly right of some edge; inside
    points are at distance 0. A polygon of fewer than 3 vertices
    (``degenerate``) has no inside. The closest point of edge ``[a, b]`` to
    ``p`` is ``a + t (b - a)`` with ``t = clip(<p - a, b - a> / |b - a|**2,
    0, 1)``, and ``t = 0`` on a zero-length edge. Products and sums run in
    place in ``work``, two arrays of at least one row per point, so a
    block allocates no array of its size.
    """
    ax, ay, abx, aby = (e[cols] for e in edges)
    px, py = points[:, :1], points[:, 1:]
    u, v = work[0, : len(points)], work[1, : len(points)]
    np.multiply(abx, np.subtract(py, ay, out=u), out=u)
    u -= np.multiply(aby, np.subtract(px, ax, out=v), out=v)  # cross(edge, p - a)
    outside = (u < 0.0).any(axis=1) | degenerate
    gaps = np.zeros(len(points))
    if not outside.any():
        return gaps
    if ax.ndim == 2:
        ax, ay, abx, aby = ax[outside], ay[outside], abx[outside], aby[outside]
    px, py = px[outside], py[outside]
    t, v = work[0, : len(px)], work[1, : len(px)]
    np.multiply(np.subtract(px, ax, out=t), abx, out=t)
    t += np.multiply(np.subtract(py, ay, out=v), aby, out=v)
    denom = abx * abx + aby * aby
    if denom.all():
        t /= denom
    else:
        np.divide(t, denom, out=t, where=denom != 0.0)
        np.copyto(t, 0.0, where=denom == 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, abx, out=v)
    v += ax
    v -= px
    t *= aby
    t += ay
    t -= py
    gaps[outside] = np.hypot(v, t, out=v).min(axis=1)
    return gaps
