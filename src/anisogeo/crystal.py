"""Planar polygons, Wulff crystals, polar bodies and convex-region queries.

:class:`Polygon` is a simple counterclockwise polygon with its edge
halfspaces and area; :class:`ConvexRegion` is the strictly
convex one, with support, gauge and containment queries. Every crystal,
polar body and geodesic ball is a region, and the perimeter and area
measures of :mod:`isoperimetry` take it as it is; :func:`contact_face`
gives the vertex rows where a direction attains its support.

The crystal of a directional cost F is the intersection of the halfplanes
``{x : <x, v> <= F(v)}`` over all unit directions v. Where the cost knows
its corners (:attr:`Integrand.crystal_corners`) the crystal is that exact
polygon; otherwise it is built here by dualizing: the points ``v/F(v)`` are
hulled and the polar of that hull is exactly the halfplane intersection,
with redundant constraints pruned as a byproduct of the hull
(:func:`build_crystal`, also the reference the exact polygons are tested
against). All exact polytope work is two-dimensional.

:func:`double_polars` takes the double polars of several clouds as one
batch, as its docstring describes; :func:`double_polar` is its batch of one.

:class:`CrystalContext` bundles a cost with its crystal, the one region
it builds, and provides the induced (possibly asymmetric) norm, min(F,
crystal support). It builds nothing at construction and pays for what its
queries read, each made on first read. The crystal is the cost's exact
polygon where it has corners (p = 1, p = inf, crystalline); for a table or
dip cost it is one scan and one hull, of the dual points
(:func:`integrand.scan`), pruned and polarized, in O(M log M) time and O(M)
memory on M grid directions, made by the first query. A cost without
corners (other p-norms, constants) answers its queries from F alone and
scans only when its crystal is read. F on the grid, the fixed-point check
of a convex cost (made with the crystal), the polar body and the Wulff
transform (a second scan) are made on first read too; the grid is shared
with every context of its size (:meth:`SphereGrid.planar`), and no dual
hull is kept. Every support (the envelope, the norm, a contact vertex) is
one O(log V) lookup in :attr:`ConvexRegion.edge_angles`.
"""

from __future__ import annotations

import array
import bisect
import contextlib
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import planar
from .integrand import GridFunction, Integrand, SphereGrid, planar_vector, scan, unit_pair, wulff_transform

# Relative slack of region faces: containment and contact faces.
FACE_TOL = 1e-9

# Relative gap between a cost and its norm below which a direction counts
# as in contact.
CONTACT_TOL = 1e-6

# Edge pairs per row block of _edges_cross, whose arrays then take 512 kB
# each.
_BLOCK_PAIRS = 1 << 16

_BOX_FACTOR = 1e4  # see double_polar
# Each halfspace <z, a> <= h of the box |z_j| <= _BOX_FACTOR dualizes to
# the point a/h: four tiny cross points.
_BOX_DUALS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) / _BOX_FACTOR

_FIRST = np.zeros(1, dtype=np.intp)  # the start of a lone polyline

UNBOUNDED_POLAR = "polar body is unbounded: origin is not interior to the region"

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
        u, _ = planar.unit_scaled(v)  # the checks at any scale neither overflow nor underflow
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
    def area(self) -> float:
        """The shoelace area of :func:`planar.unit_scaled` of the vertices, scaled back."""
        u, e = planar.unit_scaled(self.vertices)
        return planar.scaled(planar.polygon_area(u), 2 * e)

    def scaled(self, factor: float):
        if not 0.0 < factor < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {factor!r}")
        return type(self)(factor * self.vertices)

    def translated(self, shift):
        """The polygon moved by shift; refuses shift as :func:`planar_vector` does."""
        return type(self)(self.vertices + np.array(planar_vector(shift)))


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
        """Region from an arbitrary point cloud, by :func:`planar.convex_hull_ccw`."""
        return cls(planar.convex_hull_ccw(points))

    @cached_property
    def diameter(self) -> float:
        """The bounding box's diagonal, of :func:`planar.unit_scaled` of the vertices, scaled back."""
        u, e = planar.unit_scaled(self.vertices)
        return planar.scaled(float(np.hypot(*(u.max(axis=0) - u.min(axis=0)))), e)

    @cached_property
    def magnitude(self) -> float:
        """The largest vertex coordinate magnitude, the scale of every score <vertex, unit d>."""
        return float(np.abs(self.vertices).max())

    @cached_property
    def origin_interior(self) -> bool:
        """Whether every offset exceeds rounding of the largest coordinate,
        the threshold :func:`planar.polar_of_halfspaces` refuses at."""
        return bool(self.offsets.min() > planar.INTERIOR_REL * self.magnitude)

    @cached_property
    def edge_angles(self) -> np.ndarray:
        """:func:`planar.edge_angles`, the table every support query searches."""
        return planar.edge_angles(self.vertices)

    @cached_property
    def _lookup(self) -> tuple[array.array, ...]:
        """The edge angles and vertex columns as compact sequences of plain floats."""
        return tuple(array.array("d", column.tobytes()) for column in (self.edge_angles, *self.vertices.T))

    def support_vertex(self, a: float, b: float) -> tuple[int, float]:
        """The first vertex in vertex order maximizing <., (a, b)>, and that maximum: in plain
        floats, :func:`planar.support_values`' sector, then its vertex and two neighbours scored."""
        angles, xs, ys = self._lookup
        start, count = angles[0], len(xs)
        sector = bisect.bisect_right(angles, start + (math.atan2(b, a) + (0.5 * math.pi - start)) % planar.TWO_PI)
        i, j, k = sector - 1, sector % count, (sector + 1) % count
        if sector >= count - 1:  # the three wrap past vertex 0: put them in vertex order
            i, j, k = sorted((i, j, k))
        si, sj, sk = xs[i] * a + ys[i] * b, xs[j] * a + ys[j] * b, xs[k] * a + ys[k] * b
        top = max(si, sj, sk)
        return (i if si == top else j if sj == top else k), top

    def support_values(self, directions: np.ndarray) -> np.ndarray:
        """:meth:`support` of every row, each as it is alone (:func:`planar.support_values`)."""
        return planar.support_values(self.vertices, directions, self.edge_angles)

    def support(self, v) -> float:
        """max over the region of <., v>; attained at a vertex."""
        return self.support_vertex(*planar_vector(v))[1]

    def gauge(self, v) -> float:
        """Minkowski gauge min{t >= 0 : v in t * region} (origin interior)."""
        v = np.array(planar_vector(v))
        if not self.origin_interior:
            raise ValueError("gauge requires the origin strictly interior")
        return float(((self.normals @ v) / self.offsets).max())

    def contains(self, x) -> bool:
        """Whether x lies in the region, up to ``FACE_TOL`` times its magnitude, as faces tie."""
        x = np.array(planar_vector(x))
        return bool(np.all(self.normals @ x <= self.offsets + FACE_TOL * self.magnitude))


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
    f = np.concatenate((e[1:], e[:1]))
    return bool(each_turns_once_left(e[:, 0], e[:, 1], f[:, 0], f[:, 1], _FIRST)[0])


def checked_cycles(
    vertices: np.ndarray, starts: np.ndarray, nxt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:class:`ConvexRegion`'s checks on each of the concatenated cycles
    (:func:`planar.cycle_links` gives ``starts`` and ``nxt``) of at least 3
    vertices, with its messages; the cycles scaled as those checks scale
    them, and the two columns of their edges. Successors are gathered
    column by column: a row gather on an (n, 2) array is several times slower."""
    if not np.isfinite(vertices).all():
        raise ValueError("polygon vertices must be finite")
    u, _ = planar.unit_scaled_cycles(vertices, starts)
    ux, uy = u[:, 0], u[:, 1]
    ex, ey = ux[nxt] - ux, uy[nxt] - uy
    if not each_turns_once_left(ex, ey, ex[nxt], ey[nxt], starts).all():
        raise ValueError(NOT_CONVEX)
    return u, ex, ey


def each_turns_once_left(ex: np.ndarray, ey: np.ndarray, fx: np.ndarray, fy: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`_turns_once_left` for each of several closed polylines, given
    the columns of their edges e concatenated, of each edge's successor f in
    its own polyline, and the index of each polyline's first edge."""
    cross = ex * fy - ey * fx
    dot = ex * fx + ey * fy
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
    """Proper-crossing test between all non-adjacent edge pairs, vectorized
    in row blocks of ``_BLOCK_PAIRS`` pairs: O(k) memory, not O(k**2)."""
    k = len(v)
    a = v
    b = np.concatenate((v[1:], v[:1]))
    e = b - a
    step = max(1, _BLOCK_PAIRS // k)

    def _cross(u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    # d1[i, j] = cross(e_i, a_j - a_i), etc.; proper crossing needs strict
    # sign changes on both segments.
    for r in range(0, k, step):
        ai, bi, ei = (x[r : r + step, None, :] for x in (a, b, e))
        d1, d2 = _cross(ei, a - ai), _cross(ei, b - ai)
        d3, d4 = _cross(e, ai - a), _cross(e, bi - a)
        gap = np.abs(np.arange(r, r + len(ai))[:, None] - np.arange(k))
        if np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0) & (gap > 1) & (gap != k - 1)):
            return True
    return False


def build_crystal(F: Integrand, grid: SphereGrid) -> ConvexRegion:
    """Intersection of the halfplanes {<x, v> <= F(v)} over the scanned grid.

    Built through duality: hull the points v/F(v), then take the polar.
    Redundant halfplanes vanish as hull interior points. Raises when the
    scanned directions fail to positively span (unbounded intersection),
    which cannot happen for a positive cost on a covering grid.
    """
    return _crystal_from_dual(scan(F, grid))


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
        raise ValueError(UNBOUNDED_POLAR)
    return ConvexRegion(planar.polar_of_halfspaces(*region.halfspaces, region.magnitude))


def double_polar(points) -> ConvexRegion:
    """Polar of the polar of a point cloud.

    When the cloud does not surround the origin its polar is unbounded and
    cannot be held as a vertex list, so a huge bounding box (side
    ``_BOX_FACTOR`` times the cloud scale) is intersected in first. That
    perturbs the final region by O(scale / _BOX_FACTOR) - far below every
    geometric tolerance used in this package. When the cloud does surround
    the origin the box constraints are redundant and the result is exact.
    """
    return ConvexRegion(double_polars([points])[0])


def double_polars(clouds) -> list[np.ndarray]:
    """The vertices of :func:`double_polar` of each cloud, bit for bit, as
    one batch.

    Each cloud, divided by its own largest magnitude (which cannot
    overflow, and keeps the box relative to the cloud at any magnitude),
    gets one hull with the box's dual points. Every later step runs once
    on the cycles concatenated: the pruning, the polar (the boxed first
    polar), its region check, the origin-interior test, the second polar,
    its region check, and the scaling back with its region check. Each
    refusal raises :func:`double_polar`'s message; a batch raises the first
    by step, not by cloud.
    """
    scales, cycles = [], []
    for points in clouds:
        pts = np.asarray(points, dtype=float)
        scale = float(np.abs(pts).max())
        if not 0.0 < scale < math.inf:
            raise ValueError("double polar needs a finite cloud with a nonzero point")
        scales.append(scale)
        cycles.append(planar.hull_cycle(np.vstack([pts / scale, _BOX_DUALS])))
    hulls, counts, starts, nxt = planar.strictly_convex_cycles(cycles)
    boxed = planar.polar_of_cycles(hulls, counts, starts, nxt)
    checked_cycles(boxed, starts, nxt)
    try:
        vertices = planar.polar_of_cycles(boxed, counts, starts, nxt)
    except ValueError as exc:  # polar's refusal, by the same test
        raise ValueError(UNBOUNDED_POLAR) from exc
    checked_cycles(vertices, starts, nxt)
    vertices = np.repeat(scales, counts)[:, None] * vertices
    checked_cycles(vertices, starts, nxt)
    return np.split(vertices, starts[1:])


def contact_face(region: ConvexRegion, v) -> np.ndarray:
    """All support-attaining vertices of the region for direction v: one
    vertex as a (1, 2) row, or the two ends of a tied edge as (2, 2) rows,
    in the order of the tangent direction (v turned a quarter left). A vertex within ``FACE_TOL``
    times the region's magnitude of the support is tied, so a face scales with its region.
    Scores on a convex polygon peak once: a walk outward from the support vertex finds them."""
    a, b = unit_pair(v)
    k, top = region.support_vertex(a, b)
    _, xs, ys = region._lookup
    floor, count, hit = top - FACE_TOL * region.magnitude, len(xs), [k]
    for step in (1, -1):
        j = (k + step) % count
        while len(hit) < count and xs[j] * a + ys[j] * b >= floor:
            hit.append(j)
            j = (j + step) % count
    if len(hit) > 1:
        along = [ys[j] * a - xs[j] * b for j in hit]
        hit = [hit[along.index(min(along))], hit[along.index(max(along))]]
    return np.array([(xs[j], ys[j]) for j in hit])


def displacement(x, y) -> tuple[tuple[float, float], int, float]:
    """(d, e, |y - x|) with y - x = d * 2**e: d = y - x and e = 0 where that is finite, else the
    difference of :func:`planar.unit_scaled` of x and y together. Refuses them as planar_vector does."""
    return _displacement(planar_vector(x), planar_vector(y))


def _displacement(x: tuple[float, float], y: tuple[float, float]) -> tuple[tuple[float, float], int, float]:
    """:func:`displacement` of two endpoints that :func:`planar_vector` has read."""
    a, b = y[0] - x[0], y[1] - x[1]
    if not (math.isinf(a) or math.isinf(b)):
        return (a, b), 0, math.hypot(a, b)  # math.hypot is inf, not an error, where it overflows
    ends, e = planar.unit_scaled(np.array((x, y)))
    return tuple((ends[1] - ends[0]).tolist()), e, math.inf


class Contact(NamedTuple):
    """How a displacement v meets the crystal, as every query on v reads it: ``key`` holds
    v's bits (-0.0 and 0.0 differ); ``k`` is the first crystal vertex maximizing <., v>
    (:meth:`ConvexRegion.support_vertex`), None for a cost without corners, whose analysis
    reads no crystal; ``unique`` is None where F(v) = 0; ``legs``
    are :func:`geodesics.geodesic_legs`, None where v has none."""

    key: bytes
    k: int | None
    norm: float
    unique: bool | None
    legs: tuple[tuple[float, float], tuple[float, float]] | None

    def staircase(self) -> tuple[np.ndarray, np.ndarray]:
        if self.legs is None:
            raise ValueError("direction is extreme: no staircase decomposition exists")
        return np.array(self.legs[0]), np.array(self.legs[1])


def hausdorff_distance(a: Polygon | np.ndarray, b: Polygon | np.ndarray) -> float:
    va = a.vertices if isinstance(a, Polygon) else np.asarray(a, dtype=float)
    vb = b.vertices if isinstance(b, Polygon) else np.asarray(b, dtype=float)
    return planar.hausdorff_distance(va, vb)


class CrystalContext:
    """A directional cost with its precomputed planar geometry.

    Holds the induced norm and the grid it was given (``SphereGrid.planar()``
    by default, shared and read-only), and makes what its queries read as the
    module describes: construction stores the cost, the grid, ``resolution``
    and ``default_tol``, and nothing else. Every family makes its crystal on
    first read, so the refusals of its build come there: a table or dip
    cost's scan and hull, ``polar``'s refusal of a crystal whose origin is
    not interior, and a convex cost's fixed-point check, whose gap the read
    keeps as ``fixed_point_gap`` (None for table and dip costs), even when it
    refuses it. F on the grid (``_f_grid``, ``f_max``), the crystal's polar
    points (one array: the polar body's vertices and what the analysis
    reads), the Wulff transform (a rescan of F) and the convex envelope are
    made on first read too; the build's dual hull is not kept.
    It keeps one record, its last analysis of
    a displacement (:class:`Contact`), taken on the crystal's halfspaces:
    immutable, replaced by one assignment, and read once by a query that
    checks its key, so queries stay pure and thread-safe.

    The norm of v is min(F(v), h(v)), with h the crystal's support
    function: the cost of the cheaper of two paths, the straight segment
    and the staircase along the two crystal edge normals at v's contact
    vertex (each a scanned direction costing exactly its offset). For
    families convex by construction that minimum is F, evaluated in closed
    form to machine precision; a cost without corners reads no crystal, as
    every direction is an attained normal and the segment the unique
    geodesic. For table and dip costs the norm is never below the true one,
    equals it in contact directions, and exceeds it by O(resolution**2)
    inside a corner's normal cone, since the grid crystal contains the true
    one. Queries on sampled costs keep a relative
    O(resolution) tolerance, ``default_tol``.
    """

    def __init__(self, integrand: Integrand, grid: SphereGrid | None = None) -> None:
        self.integrand = integrand
        self.grid = grid if grid is not None else SphereGrid.planar()
        self.resolution = self.grid.resolution
        self.default_tol = 1e-7 if integrand.is_convex else 5.0 * self.resolution
        self._last = Contact(b"", 0, 0.0, None, None)

    @cached_property
    def _corner_free(self) -> bool:
        """Whether the cost's crystal has no corners (other p-norms, constants): its norm is F."""
        corners = self.integrand.crystal_corners
        return corners is not None and not len(corners)

    @cached_property
    def crystal(self) -> ConvexRegion:
        """The crystal: the cost's exact polygon where it has one, else the polar of the
        pruned hull of the dual points (:func:`build_crystal`). Refused when the origin is
        not interior, as :func:`polar` refuses it. A convex cost's crystal must reproduce F
        on the grid: the read keeps the largest gap as ``fixed_point_gap`` and refuses it
        above :attr:`envelope_bound`. Each refusal names its stage ("crystal build, scan
        and hull", "polar" or "fixed-point check") before the refusal it passes on."""
        corners = self.integrand.crystal_corners
        if corners is not None and len(corners):
            region = ConvexRegion(corners)
        else:
            try:
                region = build_crystal(self.integrand, self.grid)
            except ValueError as exc:
                raise ValueError(f"crystal build, scan and hull: {exc}") from exc
        if not region.origin_interior:  # polar's refusal, on the crystal's first read
            raise ValueError(f"crystal build, polar: {UNBOUNDED_POLAR}")
        self.fixed_point_gap = None
        if self.integrand.is_convex:
            # Not self.envelope: a context keeps that table only once it is read.
            support = region.support_values(self.grid.directions)
            self.fixed_point_gap = gap = float(np.abs(support - self._f_grid).max())
            if gap > self.envelope_bound:
                raise RuntimeError(
                    "crystal build, fixed-point check: convex cost is not an envelope fixed point: "
                    f"gap {gap:.3e} above the bound 2 res maxF = {self.envelope_bound:.3e}"
                )
        return region

    @property
    def envelope_bound(self) -> float:
        """2 res maxF, the grid bound on how far an envelope of F on the grid may sit from
        F at a fixed point, or from the sampled A(W(F))."""
        return 2.0 * self.resolution * self.f_max

    @cached_property
    def _f_grid(self) -> np.ndarray:
        """F on the grid directions, with the bits of the scan's grid rows: a row's
        ``values_on`` does not depend on its batch."""
        return self.integrand.values_on(self.grid.directions)

    @cached_property
    def f_max(self) -> float:
        """The largest value of F on the grid, the scale of the grid bounds."""
        return float(self._f_grid.max())

    @cached_property
    def polar_body(self) -> ConvexRegion:
        """The polar body of the crystal, the unit ball of the norm: :func:`polar` of it, bit for bit."""
        return ConvexRegion(self._polar_points)

    @cached_property
    def _polar_points(self) -> np.ndarray:
        """The polar points n_j / h_j of the crystal's halfspaces, as :func:`polar` takes them
        (the crystal's first read refused an origin that is not interior)."""
        return planar.polar_of_halfspaces(*self.crystal.halfspaces, self.crystal.magnitude)

    @cached_property
    def wulff(self) -> GridFunction:
        """The Wulff transform W(F) on the grid, :func:`integrand.wulff_transform`: the
        context keeps no dual hull, so the first read scans F again. The scan is
        deterministic, so W(F) has the bits of the build's dual hull."""
        return wulff_transform(self.integrand, self.grid)

    @cached_property
    def envelope(self) -> GridFunction:
        """The convex envelope of F on the grid: the crystal's support. It
        reaches the corners that the sampled A(W(F)) of
        :func:`integrand.convex_envelope` cuts off where no grid direction hits."""
        return GridFunction(self.grid, self.crystal.support_values(self.grid.directions))

    def norm(self, v) -> float:
        """The induced anisotropic norm of v (zero only at v = 0), as the class
        describes, read from v's analysis (:class:`Contact`). Raises ValueError
        naming v when it is not a finite planar vector."""
        return self._contact(v).norm

    def _contact(self, v) -> Contact:
        """:meth:`_record` of v; refuses v as planar_vector does."""
        return self._record(*planar_vector(v))

    def _record(self, a: float, b: float) -> Contact:
        """The analysis of (a, b): the last one if it has their bits, else a new one that replaces it."""
        key = struct.pack("2d", a, b)
        last = self._last
        if last.key == key:
            return last
        # Analysed on v * 2**-e, where no product overflows; F, the norm and the legs scale back.
        a, b, e = planar.unit_scaled_pair(a, b)
        f = self.integrand((a, b))
        if self._corner_free:  # the norm is F, every direction an attained normal, and no staircase
            self._last = record = Contact(key, None, planar.scaled_positive(f, e), None if f == 0.0 else True, None)
            return record
        k, support = self.crystal.support_vertex(a, b)
        sampled = not self.integrand.is_convex
        n = min(f, support) if sampled and f != 0.0 else f
        nx, ny, px, py = self._edge_columns
        p0, p1, q0, q1 = nx[k - 1], ny[k - 1], nx[k], ny[k]
        det = p0 * q1 - p1 * q0
        alpha, beta = (a * q1 - b * q0) / det, (p0 * b - p1 * a) / det
        u0, u1 = alpha * p0, alpha * p1
        legs = None
        if alpha > 0.0 and beta > 0.0:
            legs = (planar.scaled(u0, e), planar.scaled(u1, e)), (planar.scaled(a - u0, e), planar.scaled(b - u1, e))
        if f == 0.0:  # is_orthogonal_direction's rule from here
            unique = None
        elif sampled and f < support * (1.0 - 1e-12):
            unique = True
        elif sampled and f > support * (1.0 + 1e-12):
            unique = False
        else:
            a, b = a / n, b / n
            gap = min(math.hypot(px[k - 1] - a, py[k - 1] - b), math.hypot(px[k] - a, py[k] - b))
            unique = gap <= self.resolution * math.hypot(a, b)
        self._last = record = Contact(key, k, planar.scaled_positive(n, e), unique, legs)
        return record

    @cached_property
    def _edge_columns(self) -> tuple[array.array, ...]:
        """The crystal's edge normals n_j and its polar points n_j / h_j, the polar body's
        vertices, by column, as plain floats."""
        return tuple(array.array("d", column.tobytes()) for column in (*self.crystal.normals.T, *self._polar_points.T))

    def _norms(self, xs: np.ndarray, fx: np.ndarray) -> np.ndarray:
        """:meth:`norm` of every (nonzero) row of xs, given F on the rows, bit for bit."""
        if self.integrand.is_convex:
            return fx
        return np.minimum(fx, self.crystal.support_values(xs))

    def distance(self, x, y) -> float:
        """Cheapest cost of travelling from x to y; zero iff x == y."""
        d, e, _ = displacement(x, y)
        return planar.scaled_positive(self._record(*d).norm, e)

    def in_contact(self, x) -> bool:
        """Whether the cost meets its convex envelope in direction x: F(x)
        exceeds the norm by at most ``CONTACT_TOL * F(x)``, at every scale of x and F.
        Raises ValueError naming x when it is not a planar vector, and as
        :meth:`in_contact_many` does, its one row, when it is not finite."""
        row = np.asarray(x, dtype=float)
        if row.shape != (2,):
            raise ValueError(f"expected a planar vector, got {x!r}")
        return bool(self.in_contact_many(row[None, :])[0])

    def in_contact_many(self, xs) -> np.ndarray:
        """:meth:`in_contact` for every row of xs at once; zero rows are in
        contact. Raises ValueError naming the first row that is not finite."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 2:
            raise ValueError("expected an array of planar vectors")
        finite = planar.row_max_abs(xs) < math.inf  # a nan's row fails it too
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"row {bad} is not a finite planar vector: {xs[bad].tolist()}")
        xs, _ = planar.unit_scaled_cycles(xs, np.arange(len(xs)))
        speed = np.hypot(xs[:, 0], xs[:, 1])
        moving = speed > 0.0
        contact = np.ones(len(xs), dtype=bool)
        x, speed = xs[moving], speed[moving]
        fx = self.integrand.values_on(x / speed[:, None]) * speed
        # Each row is a cycle of one point, scaled on its own: the relative gap is the row's.
        contact[moving] = fx - self._norms(x, fx) <= CONTACT_TOL * fx
        return contact

    def is_orthogonal_direction(self, v) -> bool:
        """Whether v/|v| is attained as an outer normal of the crystal boundary
        at which the cost meets its envelope.

        The contact vertex of v is the crystal vertex maximizing <., v>; v
        lies in its normal cone, between the edge normals n_k with offsets
        h_k on either side. With tol the grid resolution, v counts as
        extreme when v rescaled onto the polar body boundary lies within
        ``tol * |v_scaled|`` of one of the polar points n_k / h_k. For table
        and dip costs F(v) is first compared with the crystal's support
        h(v), beyond a relative 1e-12 of rounding: below it v counts as
        extreme, since the straight segment is cheaper than the staircase
        along the two edge normals, which costs h(v); above it v does not,
        since the staircase is cheaper. Only where F(v) = h(v) up to
        rounding does the polar-point rule decide, so a constructed path
        always costs the norm. Smooth costs answer True everywhere, while
        flat polar edges and directions just beside a dip or a steep table
        sample answer False. Crystal edges shorter than ~10x the resolution
        make the polar-point rule grid-sensitive.
        """
        unique = self._contact(v).unique
        if unique is None:
            raise ValueError("zero vector has no direction")
        return unique

    def contact_point_candidates(self, v, face: np.ndarray) -> np.ndarray:
        """Crystal points that may realize <v, x> = |v|, as (C, 2) rows: the
        rows of v's contact face (:func:`contact_face`), the midpoint of an
        edge face, and the cost's closed-form contact point when it knows one."""
        rows = face.tolist()
        if len(rows) == 2:
            (pa, pb), (qa, qb) = rows
            rows.append([0.5 * (pa + qa), 0.5 * (pb + qb)])
        exact = self.integrand.contact_point(v)
        if exact is not None:
            rows.append(exact.tolist())
        return np.array(rows)
