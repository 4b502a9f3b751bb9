"""Planar polygons, Wulff crystals, polar bodies and convex-region queries.

:class:`Polygon` is a simple counterclockwise polygon with its edge
halfspaces, area and edge lengths; :class:`ConvexRegion` is the strictly
convex one, with support, gauge and containment queries. Every crystal,
polar body and geodesic ball is a region, and the perimeter and area
measures of :mod:`isoperimetry` take it as it is.

The crystal of a directional cost F is the intersection of the halfplanes
``{x : <x, v> <= F(v)}`` over all unit directions v. It is built here by
dualizing: the points ``v/F(v)`` are hulled and the polar of that hull is
exactly the halfplane intersection, with redundant constraints pruned as a
byproduct of the hull. All exact polytope work is two-dimensional.

:class:`CrystalContext` bundles a cost with its crystal and polar body
and provides the induced (possibly asymmetric) norm, min(F, crystal
support). Its build scans the cost once and runs one hull, of the dual
points: pruned and polarized it is the crystal, and the Wulff transform
and the sampled envelope, both table costs on the grid, are computed from
it on first read. Every grid query is a support query
(:func:`planar.support_values`), so a build takes O(M log M) time and O(M)
memory on M grid directions.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import planar
from .integrand import GridFunction, Integrand, SphereGrid, planar_vector, scan, unit
from .integrand import support_transform, wulff_from_dual

# Rows times crystal vertices up to which one matrix product gives a
# batch's support values faster than planar.support_values (they take the
# same time near 65536); past it the product's memory grows with the batch.
_PRODUCT_MAX = 1 << 16

# Relative slack of region faces: containment, contact faces, normal cones.
FACE_TOL = 1e-9

# Relative gap between a cost and its norm below which a direction counts
# as in contact.
CONTACT_TOL = 1e-6

_BOX_FACTOR = 1e4  # see double_polar

_FIRST = np.zeros(1, dtype=np.intp)  # the start of a lone polyline

NOT_CONVEX = (
    "vertices must be strictly convex in CCW order; "
    "use ConvexRegion.from_points to clean a raw list"
)


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple planar polygon with positively oriented (CCW) vertices.

    Edge j runs from vertex j to vertex j+1 and carries one outward
    normal/offset pair, derived from the vertices, so the two descriptions
    can never drift apart.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = _planar_vertices(self.vertices)
        # The checks run on the polygon scaled by a power of two into [-1, 1]:
        # exact, and free of overflow and underflow at any scale.
        u, _ = planar.unit_scaled(v)
        e = np.concatenate((u[1:], u[:1])) - u
        if np.any(np.hypot(e[:, 0], e[:, 1]) <= 1e-14 * np.abs(u).max()):
            raise ValueError("degenerate polygon: repeated consecutive vertices")
        if planar.polygon_area(u) <= 0.0:
            raise ValueError("vertices must be counterclockwise (positive area)")
        if _self_intersects(u):
            raise ValueError("polygon boundary self-intersects")
        object.__setattr__(self, "vertices", v)

    @cached_property
    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and support offsets of the edges."""
        return planar.edge_normals_and_offsets(self.vertices)

    @property
    def normals(self) -> np.ndarray:
        return self.halfspaces[0]

    @property
    def offsets(self) -> np.ndarray:
        return self.halfspaces[1]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        v = self.vertices
        e = np.concatenate((v[1:], v[:1])) - v
        return np.hypot(e[:, 0], e[:, 1])

    @cached_property
    def area(self) -> float:
        return planar.polygon_area(self.vertices)

    def scaled(self, factor: float):
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return type(self)(factor * self.vertices)

    def translated(self, shift):
        return type(self)(self.vertices + np.asarray(shift, dtype=float))


class ConvexRegion(Polygon):
    """Compact convex planar region, stored as strictly convex CCW vertices.

    Offsets are positive exactly when the origin is strictly interior,
    which is required for polarity.
    """

    def __post_init__(self) -> None:
        # A strictly convex cycle that turns once is a simple CCW polygon, so
        # this one pass stands in for Polygon's checks.
        v = _planar_vertices(self.vertices)
        u, _ = planar.unit_scaled(v)  # turns at any scale neither overflow nor underflow
        if not _turns_once_left(u):
            raise ValueError(NOT_CONVEX)
        object.__setattr__(self, "vertices", v)

    @classmethod
    def from_points(cls, points) -> "ConvexRegion":
        """Region from an arbitrary point cloud (hull + collinearity pruning)."""
        return cls(planar.convex_hull_ccw(points))

    @cached_property
    def diameter(self) -> float:
        spread = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.hypot(*spread))

    @cached_property
    def origin_interior(self) -> bool:
        """Whether every offset exceeds rounding of the largest coordinate,
        the threshold :func:`planar.polar_of_halfspaces` refuses at."""
        return bool(self.offsets.min() > 1e-14 * float(np.abs(self.vertices).max()))

    def support(self, v) -> float:
        """max over the region of <., v>; attained at a vertex."""
        return float((self.vertices @ np.asarray(v, dtype=float)).max())

    def gauge(self, v) -> float:
        """Minkowski gauge min{t >= 0 : v in t * region} (origin interior)."""
        if not self.origin_interior:
            raise ValueError("gauge requires the origin strictly interior")
        return float(((self.normals @ np.asarray(v, dtype=float)) / self.offsets).max())

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        slack = FACE_TOL * max(1.0, self.diameter)
        return bool(np.all(self.normals @ x <= self.offsets + slack))


def _planar_vertices(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise ValueError("a polygon needs at least 3 planar vertices")
    if not np.isfinite(v).all():
        raise ValueError("polygon vertices must be finite")
    return v


def _turns_once_left(v: np.ndarray) -> bool:
    """Whether every turn of the closed polyline v is strictly left and the
    turns add up to one full revolution: v is then convex, hence simple.
    A star such as the pentagram turns left everywhere but winds twice."""
    e = np.concatenate((v[1:], v[:1])) - v
    return bool(each_turns_once_left(e, np.concatenate((e[1:], e[:1])), _FIRST)[0])


def each_turns_once_left(e: np.ndarray, f: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`_turns_once_left` for each of several closed polylines, given
    their edges e concatenated, each edge's successor f in its own
    polyline, and the index of each polyline's first edge."""
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    dot = e[:, 0] * f[:, 0] + e[:, 1] * f[:, 1]
    winding = np.rint(np.add.reduceat(np.arctan2(cross, dot), starts) / planar.TWO_PI)
    return (np.minimum.reduceat(cross, starts) > 0.0) & (winding == 1.0)


def _self_intersects(v: np.ndarray) -> bool:
    """Whether the closed polyline v crosses itself.

    A polyline that turns once to the left is convex, hence simple: O(k).
    Anything else (a reflex vertex, or a star that winds more than once)
    goes to the all-pairs test :func:`_edges_cross`.
    """
    return not _turns_once_left(v) and _edges_cross(v)


def _edges_cross(v: np.ndarray) -> bool:
    """Proper-crossing test between all non-adjacent edge pairs (vectorized)."""
    k = len(v)
    a = v
    b = np.concatenate((v[1:], v[:1]))
    e = b - a

    def _cross(u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    # d1[i, j] = cross(e_i, a_j - a_i), etc.; proper crossing needs strict
    # sign changes on both segments.
    d1 = _cross(e[:, None, :], a[None, :, :] - a[:, None, :])
    d2 = _cross(e[:, None, :], b[None, :, :] - a[:, None, :])
    d3 = _cross(e[None, :, :], a[:, None, :] - a[None, :, :])
    d4 = _cross(e[None, :, :], b[:, None, :] - a[None, :, :])
    crossing = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    idx = np.arange(k)
    adjacent = (np.abs(idx[:, None] - idx[None, :]) <= 1) | (
        np.abs(idx[:, None] - idx[None, :]) == k - 1
    )
    return bool(np.any(crossing & ~adjacent))


@dataclass(frozen=True)
class ContactFace:
    """The face of a region where a direction attains its support value."""

    vertices: np.ndarray  # (1, 2) for a vertex face, (2, 2) for an edge face
    representative: np.ndarray

    @property
    def is_edge(self) -> bool:
        return len(self.vertices) == 2


@dataclass(frozen=True)
class NormalCone:
    """Outward normal directions of a region at a boundary point."""

    at: np.ndarray
    generators: np.ndarray  # one row (edge interior) or two rows (vertex)


def build_crystal(F: Integrand, grid: SphereGrid) -> ConvexRegion:
    """Intersection of the halfplanes {<x, v> <= F(v)} over the scanned grid.

    Built through duality: hull the points v/F(v), then take the polar.
    Redundant halfplanes vanish as hull interior points. Raises when the
    scanned directions fail to positively span (unbounded intersection),
    which cannot happen for a positive cost on a covering grid.
    """
    dirs, vals = scan(F, grid)
    return _crystal_from_dual(planar.hull_cycle(dirs / vals[:, None]))


def _crystal_from_dual(dual_cycle: np.ndarray) -> ConvexRegion:
    """The crystal as the polar of the (pruned) hull cycle of the dual points."""
    hull = planar.strictly_convex(dual_cycle)
    with refusing_unbounded():
        vertices = planar.polar_polygon(hull)
    return ConvexRegion(vertices)


@contextlib.contextmanager
def refusing_unbounded():
    """Re-raise a polar's refusal as the crystal's: its dual hull does not
    surround the origin, so the halfplane intersection is unbounded."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(
            "halfplane intersection is unbounded: scan directions do not "
            f"positively span the plane ({exc})"
        ) from exc


def polar(region: ConvexRegion) -> ConvexRegion:
    """Polar body {z : <z, x> <= 1 on the region}; needs the origin interior."""
    if not region.origin_interior:
        raise ValueError("polar body is unbounded: origin is not interior to the region")
    scale = float(np.abs(region.vertices).max())
    return ConvexRegion(planar.polar_of_halfspaces(*region.halfspaces, scale))


def double_polar(points) -> ConvexRegion:
    """Polar of the polar of a point cloud.

    When the cloud does not surround the origin its polar is unbounded and
    cannot be held as a vertex list, so a huge bounding box (side
    ``_BOX_FACTOR`` times the cloud scale) is intersected in first. That
    perturbs the final region by O(scale / _BOX_FACTOR) - far below every
    geometric tolerance used in this package. When the cloud does surround
    the origin the box constraints are redundant and the result is exact.
    """
    pts = np.asarray(points, dtype=float)
    scale = float(np.abs(pts).max())
    if not 0.0 < scale < math.inf:
        raise ValueError("double polar needs a finite cloud with a nonzero point")
    # Dividing by the cloud's own largest magnitude cannot overflow, and the
    # box stays relative to the cloud at any magnitude.
    q = pts / scale
    # First polar, boxed: {<z, q_i> <= 1, |z_j| <= _BOX_FACTOR}. Each
    # halfspace <z, a> <= h dualizes to the point a/h, so the box
    # contributes the four tiny cross points below.
    r = 1.0 / _BOX_FACTOR
    box_duals = np.array([[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]])
    hull = planar.convex_hull_ccw(np.vstack([q, box_duals]))
    boxed_polar = ConvexRegion(planar.polar_polygon(hull))
    return polar(boxed_polar).scaled(scale)


def contact_face(region: ConvexRegion, v) -> ContactFace:
    """All support-attaining vertices of the region for direction v.

    Ties collapse to an edge whose representative is its midpoint, so the
    representative is always in the relative interior of the face.
    """
    v = unit(v)
    scores = region.vertices @ v
    top = float(scores.max())
    hit = np.flatnonzero(scores >= top - FACE_TOL * max(1.0, abs(top)))
    if len(hit) == 1:
        point = region.vertices[hit[0]]
        return ContactFace(vertices=point[None, :], representative=point)
    # Attaining vertices are consecutive on the polygon; take the extremes
    # along the tangent direction.
    tangent = np.array([-v[1], v[0]])
    along = region.vertices[hit] @ tangent
    a = region.vertices[hit[np.argmin(along)]]
    b = region.vertices[hit[np.argmax(along)]]
    return ContactFace(vertices=np.vstack([a, b]), representative=0.5 * (a + b))


def normal_cone(region: ConvexRegion, y) -> NormalCone:
    """Outward normal cone at a boundary point y.

    Edge-interior points have one generator (the edge normal); vertices
    have two (the adjacent edge normals). Raises when y is off the boundary.
    """
    y = np.asarray(y, dtype=float)
    verts = region.vertices
    nxt = np.concatenate((verts[1:], verts[:1]))
    k = len(verts)
    slack = FACE_TOL * max(1.0, region.diameter)
    dists = planar.segment_distances(y[None, :], verts, nxt)[0]
    if dists.min() > slack:
        raise ValueError("point is not on the region boundary")
    vertex_gap = np.linalg.norm(verts - y, axis=1)
    j = int(np.argmin(vertex_gap))
    if vertex_gap[j] <= slack:
        gens = np.vstack([region.normals[(j - 1) % k], region.normals[j]])
        return NormalCone(at=verts[j], generators=gens)
    e = int(np.argmin(dists))
    return NormalCone(at=y, generators=region.normals[e][None, :])


def extremal_points(region: ConvexRegion) -> np.ndarray:
    """Vertices that are genuine extreme points (collinear triples pruned).

    Grid-built crystals can carry spuriously collinear vertices on flat
    facets; triples spanning less than 1e-10 * diameter**2 collapse.
    """
    area_tol = 1e-10 * region.diameter**2
    eps_rel = 2.0 * area_tol / max(float(np.abs(region.vertices).max()), 1e-30) ** 2
    return planar.convex_hull_ccw(region.vertices, eps_rel=eps_rel)


def hausdorff_distance(a: Polygon | np.ndarray, b: Polygon | np.ndarray) -> float:
    va = a.vertices if isinstance(a, Polygon) else np.asarray(a, dtype=float)
    vb = b.vertices if isinstance(b, Polygon) else np.asarray(b, dtype=float)
    return planar.hausdorff_distance(va, vb)


class CrystalContext:
    """A directional cost with its precomputed planar geometry.

    Holds the crystal (the halfplane intersection over the scanned
    directions), its polar body, and the induced norm - possibly
    asymmetric. A build scans the cost once and runs one hull, of the dual
    points w / F(w): pruned and polarized it is the crystal, and the Wulff
    transform and the sampled convex envelope are computed from it on
    first read. All queries are pure and safe to share across threads.

    The norm of v is min(F(v), h(v)), with h the crystal's support
    function: the cost of the cheaper of two paths, the straight segment
    and the staircase along the two crystal edge normals at v's contact
    vertex (each a scanned direction costing exactly its offset). For
    families convex by construction that minimum is F, evaluated in closed
    form. For table and dip costs it is never below the true norm, equals
    it in contact directions, and exceeds it by O(resolution**2) inside a
    corner's normal cone, since the grid crystal contains the true one.
    Queries on sampled costs keep an O(resolution) tolerance,
    ``default_tol``.
    """

    def __init__(self, integrand: Integrand, grid: SphereGrid | None = None) -> None:
        self.integrand = integrand
        self.grid = grid if grid is not None else SphereGrid.planar(720)
        scan_dirs, scan_values = scan(integrand, self.grid)
        self._f_grid = scan_values[: self.grid.size]
        self._dual = planar.hull_cycle(scan_dirs / scan_values[:, None])
        self.crystal = _crystal_from_dual(self._dual)
        self.polar_body = polar(self.crystal)
        self.f_max = float(self._f_grid.max())
        self.resolution = self.grid.resolution
        if integrand.is_convex:
            self.default_tol = 1e-7
        else:
            self.default_tol = 5.0 * self.resolution * self.f_max
        self._check_build()

    def _check_build(self) -> None:
        if not self.integrand.is_convex:
            return
        bound = 2.0 * self.resolution * self.f_max
        support = planar.support_values(self.crystal.vertices, self.grid.directions)
        fixed_point_gap = np.abs(support - self._f_grid).max()
        if fixed_point_gap > bound:
            raise RuntimeError(
                f"convex cost is not an envelope fixed point: gap {fixed_point_gap:.3e}"
            )

    @cached_property
    def wulff(self) -> GridFunction:
        """The Wulff transform W(F) on the grid, read off the build's dual hull."""
        return wulff_from_dual(self._dual, self.grid)

    @cached_property
    def envelope(self) -> GridFunction:
        """The sampled convex envelope A(W(F)) on the grid."""
        return support_transform(self.wulff)

    def norm(self, v) -> float:
        """The induced anisotropic norm of v (zero only at v = 0).

        Convex families evaluate their closed form (machine precision).
        Sampled costs take min(F(v), crystal support of v). Raises
        ValueError naming v when it is not a finite planar vector.
        """
        f = self.integrand(v)  # refuses v as planar_vector does
        if self.integrand.is_convex or f == 0.0:
            return f
        return min(f, self.crystal.support(v))

    def _norms(self, xs: np.ndarray, fx: np.ndarray) -> np.ndarray:
        """:meth:`norm` of every (nonzero) row of xs, given F on the rows."""
        if self.integrand.is_convex:
            return fx
        vertices = self.crystal.vertices
        if len(xs) * len(vertices) <= _PRODUCT_MAX:
            return np.minimum(fx, (xs @ vertices.T).max(axis=1))
        return np.minimum(fx, planar.support_values(vertices, xs))

    def distance(self, x, y) -> float:
        """Cheapest cost of travelling from x to y; zero iff x == y."""
        (xa, xb), (ya, yb) = planar_vector(x), planar_vector(y)
        return self.norm(np.array((ya - xa, yb - xb)))

    def in_contact(self, x) -> bool:
        """Whether the cost meets its convex envelope in direction x: F(x)
        exceeds the norm by at most ``CONTACT_TOL * max(1, F(x))``."""
        return bool(self.in_contact_many(np.asarray(x, dtype=float)[None, :])[0])

    def in_contact_many(self, xs) -> np.ndarray:
        """:meth:`in_contact` for every row of xs at once; zero rows are in contact."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 2:
            raise ValueError("expected an array of planar vectors")
        speed = np.hypot(xs[:, 0], xs[:, 1])
        moving = speed > 0.0
        contact = np.ones(len(xs), dtype=bool)
        x, speed = xs[moving], speed[moving]
        fx = self.integrand.values_on(x / speed[:, None]) * speed
        contact[moving] = fx - self._norms(x, fx) <= CONTACT_TOL * np.maximum(1.0, fx)
        return contact

    def is_orthogonal_direction(self, v) -> bool:
        """Whether v/|v| is attained as an outer normal of the crystal boundary
        at which the cost meets its envelope.

        The contact vertex of v is the crystal vertex maximizing <., v>; v
        lies in its normal cone, between the edge normals n_k with offsets
        h_k on either side. With tol the grid resolution, v counts as
        extreme when two things hold: v rescaled onto the polar body
        boundary lies within ``tol * |v_scaled|`` of one of the polar points
        n_k / h_k, and the cost is in contact, ``F(v) - |v| <= tol * |v|``.
        For table and dip costs v also counts as extreme where F(v) is below
        the crystal's support beyond rounding: there the straight segment is
        cheaper than the staircase. So smooth costs answer True everywhere,
        while flat polar edges and directions just beside a dip or a steep
        table sample answer False. Crystal edges shorter than ~10x the
        resolution make the answer grid-sensitive.
        """
        tol = self.resolution
        v = np.asarray(v, dtype=float)
        f = self.integrand(v)
        if f == 0.0:
            raise ValueError("zero vector has no direction")
        scores = self.crystal.vertices @ v
        k = int(np.argmax(scores))
        n = f  # the norm, F itself for convex families
        if not self.integrand.is_convex:
            support = float(scores[k])
            if f < support * (1.0 - 1e-12):
                return True
            n = min(f, support)
            if f - n > tol * n:
                return False
        a, b = v.tolist()
        a, b = a / n, b / n
        normals, offsets = self.crystal.halfspaces
        gap = math.inf
        for j in (k - 1, k):
            (na, nb), h = normals[j].tolist(), float(offsets[j])
            gap = min(gap, math.hypot(na / h - a, nb / h - b))
        return gap <= tol * max(math.hypot(a, b), 1e-30)

    def contact_point_candidates(self, v, face: ContactFace | None = None) -> list[np.ndarray]:
        """Crystal points that may realize <v, x> = |v|: the contact face
        of the crystal (vertex, or endpoints plus midpoint of an edge) and,
        when the cost knows one, its closed-form contact point.
        ``face`` is that contact face when the caller has it already."""
        if face is None:
            face = contact_face(self.crystal, unit(v))
        candidates = [p for p in face.vertices]
        if face.is_edge:
            candidates.append(face.representative)
        exact = self.integrand.contact_point(np.asarray(v, dtype=float))
        if exact is not None:
            candidates.append(exact)
        return candidates
