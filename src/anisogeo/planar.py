"""Low-level planar geometry: hulls, polygon polars, distances.

Everything here works on plain (k, 2) float arrays of points. Vertex lists
are counterclockwise unless stated otherwise.

Several cycles can be worked on at once, concatenated into one array with
the links :func:`cycle_links` gives them: :func:`strictly_convex_cycles`
prunes each as :func:`strictly_convex` does and :func:`polar_of_cycles`
takes each one's polar, and the two batches in :mod:`crystal` and
:mod:`isoperimetry` call them. :func:`hausdorff_distances` measures many
pairs of polygons in one sweep of their support functions;
:func:`hausdorff_distance` is its batch of one. Every batch gives its
items' lone values bit for bit. :func:`unit_scaled` and its forms, with
:func:`scaled` and :func:`scaled_positive`, hold the package's one rule for
the float range. :func:`support_values` searches a cycle's :func:`edge_angles`.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi
_NEIGHBOURS = np.arange(-1, 2)[:, None]
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
    [0.5, 1), and e: exact but for subnormal results. Refuses non-finite points."""
    top = float(np.abs(points).max())
    if not top < math.inf:
        raise ValueError("points are not finite")
    exponent = math.frexp(top)[1]
    return np.ldexp(points, -exponent), exponent


def unit_scaled_pair(a: float, b: float) -> tuple[float, float, int]:
    """:func:`unit_scaled` of the finite vector (a, b), in plain floats."""
    exponent = math.frexp(max(abs(a), abs(b)))[1]
    return math.ldexp(a, -exponent), math.ldexp(b, -exponent), exponent


def scaled(x, exponent):
    """x (a float or an array) times 2**exponent: exact but for subnormal results, +-inf past the range."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return np.ldexp(x, exponent)
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def scaled_positive(x: float, exponent: int) -> float:
    """:func:`scaled` of a float x >= 0, with a positive x that underflows rounded up to 5e-324."""
    return max(scaled(x, exponent), math.ulp(0.0)) if x > 0.0 else 0.0


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
    largest coordinate magnitude), taken on :func:`unit_scaled` of the cycle.
    """
    unit, exponent = unit_scaled(cycle)
    scale = float(np.abs(unit).max())
    return scaled(_prune_collinear_cycle(unit, COLLINEAR_REL * scale**2), exponent)


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
    # np.take gathers rows: indexing an (n, 2) array by rows is several times slower.
    turn = turn_areas(np.take(unit, prv, axis=0), unit, np.take(unit, nxt, axis=0))
    flagged = np.logical_or.reduceat(turn <= np.repeat(eps, counts), starts)
    # Scaling back is what strictly_convex returns for a cycle it leaves whole.
    points = scaled(unit, shift)
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


def _cycle_wraps(angle: np.ndarray) -> np.ndarray:
    """How often a cycle's edge angles have crossed their 2 pi range's end: -1
    forwards, +1 backwards. Steps turn 0 to pi; pi/2 margins absorb rounding."""
    return np.cumsum(np.floor((np.diff(angle, prepend=angle[:1]) + 0.5 * np.pi) / TWO_PI))


def edge_angles(cycle: np.ndarray) -> np.ndarray:
    """The angles of a convex CCW cycle's edges (edge ``j`` runs from vertex
    ``j`` to ``j+1``), unrolled along it so they never decrease. An edge's
    outward normal is its direction turned by -pi/2, so d lies in vertex j's
    sector when angle[j-1] <= angle(d) + pi/2 < angle[j]."""
    e = np.concatenate((cycle[1:], cycle[:1])) - cycle
    angle = np.arctan2(e[:, 1], e[:, 0])
    angle -= TWO_PI * _cycle_wraps(angle)
    return np.maximum.accumulate(angle, out=angle)


def support_values(cycle: np.ndarray, directions: np.ndarray, angles: np.ndarray | None = None) -> np.ndarray:
    """max over the vertices of a convex CCW cycle of <vertex, d>, per direction d.

    A binary search of the cycle's :func:`edge_angles` (``angles``, when held)
    finds each direction's sector; the maximum of ``x * a + y * b`` over the
    sector's vertex (x, y) and its two neighbours absorbs rounding at ties and
    in near-collinear runs, so an unpruned hull cycle is read exactly and no
    value depends on its batch. O((k + n) log k) time, O(k + n) memory.
    """
    v, d = np.asarray(cycle, dtype=float), np.asarray(directions, dtype=float)
    a, b = d[:, 0], d[:, 1]
    angle = edge_angles(v) if angles is None else angles
    start = float(angle[0])
    turned = start + np.mod(np.arctan2(b, a) + (0.5 * np.pi - start), TWO_PI)
    sector = np.searchsorted(angle, turned, side="right")  # 1 <= sector <= k
    near = (sector + _NEIGHBOURS) % len(v)  # the sector's vertex, sector mod k, and its two neighbours
    return (v[:, 0][near] * a + v[:, 1][near] * b).max(axis=0)


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
    e = (np.concatenate((v[1:], v[:1])) if nxt is None else np.take(v, nxt, axis=0)) - v
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

    For convex sets it is the largest gap between the support functions,
    which a sweep over both polygons' edge normals finds; a cycle that
    certainly turns right is measured as its hull. Both polygons are
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
    """The Hausdorff distance of each pair of polygons 2i and 2i + 1: the
    largest gap between their support functions (Schneider 2014, Lemma
    1.8.14), in one sweep over both polygons' edge normals.

    Each pair is scaled by its own power of two, and a cycle that certainly
    turns right is replaced by its :func:`hull_cycle`. Between two consecutive
    normals, one vertex a of a polygon and one vertex b of its partner attain
    the supports, and the gap is largest at the arc's start or, as |a - b|,
    where +-(a - b) points into the arc. An edge's rank is its place along its
    cycle unrolled from angle 0 by :func:`_cycle_wraps`, and the active vertex
    ends the edge of highest rank swept so far, so normals that rounding sorts
    out of cycle order do not change it.
    """
    points, counts, starts, nxt = concatenated_cycles(polygons)
    p, shift = unit_scaled_cycles(points, starts[::2])  # each pair as one cycle
    exponent = shift[starts[::2], 0]
    z = p.view(np.complex128).ravel()
    e = z[nxt] - z
    edge = np.flatnonzero(e)
    gaps = np.abs(z[starts[::2]] - z[starts[1::2]])
    if not len(edge):
        return scaled(gaps, exponent)
    owner = np.repeat(np.arange(len(counts)), counts)[edge]
    m = np.bincount(owner, minlength=len(counts))
    first = np.cumsum(m) - m
    firsts = first[m > 0]
    # The turn onto each nonzero edge from the one before it in its cycle.
    before = np.arange(-1, len(edge) - 1)
    before[firsts] = firsts + m[m > 0] - 1
    det, bound = _orient(z[edge[before]], z[edge], z[nxt[edge]])
    right = np.zeros(len(counts), bool)
    right[m > 0] = np.logical_or.reduceat(det < -bound, firsts)
    if right.any():
        return _hausdorff([hull_cycle(c) if r else c for c, r in zip(polygons, right.tolist())])
    normal = -1j * e[edge]  # outward, turned from the edge by -pi/2
    angle = np.mod(np.angle(normal), TWO_PI)
    turns = _cycle_wraps(angle).astype(np.intp)
    rank = np.arange(len(edge)) - first[owner] + m[owner] * (turns - turns[first[owner]])
    top = np.zeros(len(counts), np.intp)
    top[m > 0] = np.maximum.reduceat(rank, firsts)
    pair = owner // 2
    order = np.lexsort((angle, pair))
    angle, pair, owner, rank, normal = angle[order], pair[order], owner[order], rank[order], normal[order]
    lo, span = int(rank.min()) - 1, int(np.ptp(rank)) + 2
    # Each polygon's running maximum of rank, offset so that pairs do not
    # mix. Before its first normal, a polygon's active vertex ends its edge
    # of highest rank, swept one turn earlier.
    offset = pair * span
    polygon = 2 * pair + np.arange(2)[:, None]
    seen = np.maximum.accumulate(np.where(owner == polygon, rank - lo + offset, offset), axis=1) - offset
    held = np.where(seen > 0, seen + lo, top[polygon]) % np.maximum(m[polygon], 1)
    ends = np.take(nxt[edge], first[polygon] + held, mode="clip")
    w = z[np.where(m[polygon] > 0, ends, starts[polygon])]
    w = w[0] - w[1]
    bounds = np.flatnonzero(np.diff(pair, prepend=-1))
    after = np.append(angle[1:], 0.0)
    after[np.append(bounds[1:], len(angle)) - 1] = angle[bounds] + TWO_PI
    gap = np.abs(w.real * normal.real + w.imag * normal.imag) / np.abs(normal)
    inside = np.mod(np.angle(w) - angle, np.pi) < after - angle
    np.maximum(gap, np.abs(w), out=gap, where=inside)
    gaps[pair[bounds]] = np.maximum.reduceat(gap, bounds)
    return scaled(gaps, exponent)
