"""Wulff crystals, polar bodies, and exact planar convex-region queries.

The crystal of a directional cost F is the intersection of the halfplanes
``{x : <x, v> <= F(v)}`` over all unit directions v. It is built here by
dualizing: the points ``v/F(v)`` are hulled and the polar of that hull is
exactly the halfplane intersection, with redundant constraints pruned as a
byproduct of the hull. All exact polytope work is two-dimensional.

:class:`CrystalContext` bundles a cost with its crystal, polar body and
sampled envelope, and provides the induced (possibly asymmetric) norm. Its
build scans the cost once and computes two hulls: the hull of the dual
points gives the Wulff transform and, pruned and polarized, the crystal;
the hull of the Wulff graph gives the envelope and, pruned, the inner
hull. Every grid query on them is a support query
(:func:`planar.support_values`), so a build takes O(M log M) time and
O(M) memory on M grid directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import planar
from .integrand import GridFunction, Integrand, SphereGrid, scan, unit, wulff_from_dual

PROVENANCE_CRYSTAL = "crystal"
PROVENANCE_POLAR = "polar-body"
PROVENANCE_USER = "user"


@dataclass(frozen=True, eq=False)
class ConvexRegion:
    """Compact convex planar region, stored as strictly convex CCW vertices.

    Halfspaces are derived from the vertices (edge j runs from vertex j to
    vertex j+1 and carries one outward normal/offset pair), so the two
    descriptions can never drift apart. Offsets are positive exactly when
    the origin is strictly interior, which is required for polarity.
    """

    vertices: np.ndarray
    provenance: str = PROVENANCE_USER

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("a region needs at least 3 planar vertices")
        u, _ = planar.unit_scaled(v)  # turns at any scale neither overflow nor underflow
        e = np.concatenate((u[1:], u[:1])) - u
        f = np.concatenate((e[1:], e[:1]))
        turns = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
        if np.any(turns <= 0.0):
            raise ValueError(
                "vertices must be strictly convex in CCW order; "
                "use ConvexRegion.from_points to clean a raw list"
            )
        object.__setattr__(self, "vertices", v)

    @classmethod
    def from_points(cls, points, provenance: str = PROVENANCE_USER) -> "ConvexRegion":
        """Region from an arbitrary point cloud (hull + collinearity pruning)."""
        return cls(planar.convex_hull_ccw(points), provenance)

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
        return planar.polygon_area(self.vertices)

    @cached_property
    def diameter(self) -> float:
        spread = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.hypot(*spread))

    @property
    def origin_interior(self) -> bool:
        return bool(self.offsets.min() > 0.0)

    def support(self, v) -> float:
        """max over the region of <., v>; attained at a vertex."""
        return float((self.vertices @ np.asarray(v, dtype=float)).max())

    def gauge(self, v) -> float:
        """Minkowski gauge min{t >= 0 : v in t * region} (origin interior)."""
        if not self.origin_interior:
            raise ValueError("gauge requires the origin strictly interior")
        return float(((self.normals @ np.asarray(v, dtype=float)) / self.offsets).max())

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        slack = tol * max(1.0, self.diameter)
        return bool(np.all(self.normals @ x <= self.offsets + slack))

    def translated(self, shift) -> "ConvexRegion":
        return ConvexRegion(self.vertices + np.asarray(shift, dtype=float), PROVENANCE_USER)

    def scaled(self, factor: float) -> "ConvexRegion":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return ConvexRegion(factor * self.vertices, self.provenance)


@dataclass(frozen=True)
class ContactFace:
    """The face of a region where a direction attains its support value."""

    normal: np.ndarray
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
    try:
        vertices = planar.polar_polygon(hull)
    except ValueError as exc:
        raise ValueError(
            "halfplane intersection is unbounded: scan directions do not "
            f"positively span the plane ({exc})"
        ) from exc
    return ConvexRegion(vertices, PROVENANCE_CRYSTAL)


def polar(region: ConvexRegion) -> ConvexRegion:
    """Polar body {z : <z, x> <= 1 on the region}; needs the origin interior."""
    if not region.origin_interior:
        raise ValueError("polar body is unbounded: origin is not interior to the region")
    tag = {
        PROVENANCE_CRYSTAL: PROVENANCE_POLAR,
        PROVENANCE_POLAR: PROVENANCE_CRYSTAL,
    }.get(region.provenance, PROVENANCE_USER)
    scale = float(np.abs(region.vertices).max())
    return ConvexRegion(planar.polar_of_halfspaces(*region.halfspaces, scale), tag)


def double_polar(points, box_factor: float = 1e4) -> ConvexRegion:
    """Polar of the polar of a point cloud.

    When the cloud does not surround the origin its polar is unbounded and
    cannot be held as a vertex list, so a huge bounding box (side
    ``box_factor`` times the cloud scale) is intersected in first. That
    perturbs the final region by O(scale / box_factor) - far below every
    geometric tolerance used in this package. When the cloud does surround
    the origin the box constraints are redundant and the result is exact.
    """
    pts = np.asarray(points, dtype=float)
    scale = max(float(np.abs(pts).max()), 1e-12)
    q = pts / scale
    # First polar, boxed: {<z, q_i> <= 1, |z_j| <= box_factor}. Each
    # halfspace <z, a> <= h dualizes to the point a/h, so the box
    # contributes the four tiny cross points below.
    r = 1.0 / box_factor
    box_duals = np.array([[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]])
    hull = planar.convex_hull_ccw(np.vstack([q, box_duals]))
    boxed_polar = ConvexRegion(planar.polar_polygon(hull), PROVENANCE_USER)
    return polar(boxed_polar).scaled(scale)


def contact_face(region: ConvexRegion, v, tol: float = 1e-9) -> ContactFace:
    """All support-attaining vertices of the region for direction v.

    Ties collapse to an edge whose representative is its midpoint, so the
    representative is always in the relative interior of the face.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    v = unit(v)
    scores = region.vertices @ v
    top = float(scores.max())
    hit = np.flatnonzero(scores >= top - tol * max(1.0, abs(top)))
    if len(hit) == 1:
        point = region.vertices[hit[0]]
        return ContactFace(normal=v, vertices=point[None, :], representative=point)
    # Attaining vertices are consecutive on the polygon; take the extremes
    # along the tangent direction.
    tangent = np.array([-v[1], v[0]])
    along = region.vertices[hit] @ tangent
    a = region.vertices[hit[np.argmin(along)]]
    b = region.vertices[hit[np.argmax(along)]]
    return ContactFace(normal=v, vertices=np.vstack([a, b]), representative=0.5 * (a + b))


def normal_cone(region: ConvexRegion, y, tol: float = 1e-9) -> NormalCone:
    """Outward normal cone at a boundary point y.

    Edge-interior points have one generator (the edge normal); vertices
    have two (the adjacent edge normals). Raises when y is off the boundary.
    """
    y = np.asarray(y, dtype=float)
    verts = region.vertices
    nxt = np.concatenate((verts[1:], verts[:1]))
    k = len(verts)
    slack = tol * max(1.0, region.diameter)
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


def extremal_points(region: ConvexRegion, area_tol: float | None = None) -> np.ndarray:
    """Vertices that are genuine extreme points (collinear triples pruned).

    Grid-built crystals can carry spuriously collinear vertices on flat
    facets; triples spanning less than ``area_tol`` (default
    1e-10 * diameter**2) collapse.
    """
    if area_tol is None:
        area_tol = 1e-10 * region.diameter**2
    eps_rel = 2.0 * area_tol / max(float(np.abs(region.vertices).max()), 1e-30) ** 2
    return planar.convex_hull_ccw(region.vertices, eps_rel=eps_rel)


def hausdorff_distance(a: ConvexRegion | np.ndarray, b: ConvexRegion | np.ndarray) -> float:
    va = a.vertices if isinstance(a, ConvexRegion) else np.asarray(a, dtype=float)
    vb = b.vertices if isinstance(b, ConvexRegion) else np.asarray(b, dtype=float)
    return planar.hausdorff_distance(va, vb)


class CrystalContext:
    """A directional cost with its precomputed planar geometry.

    Holds the crystal (halfplane intersection), the polar body, the Wulff
    transform and sampled convex envelope, and the induced norm - possibly
    asymmetric. Everything is immutable after construction; all queries
    are pure and safe to share across threads.

    The norm is the support function of a single authoritative region.
    For families convex by construction it is the crystal, and the norm is
    evaluated through the cost's closed form (machine precision, the two
    agreeing within the grid bound by a build-time check). For table and
    dip costs it is the hull of the Wulff graph: its support function
    coincides with the sampled envelope exactly and lies within the grid
    bound below the crystal's. Its points lie on the grid crystal, which
    contains the true crystal, so it is not a bound on the true norm from
    either side. Queries on sampled costs inherit an O(resolution) error,
    reflected in ``default_tol``.
    """

    def __init__(self, integrand: Integrand, grid: SphereGrid | None = None) -> None:
        self.integrand = integrand
        self.grid = grid if grid is not None else SphereGrid.planar(720)
        # One scan of the cost and two hulls: the dual points w / F(w) give
        # the Wulff transform and the crystal, the Wulff graph gives the
        # envelope and the inner hull.
        scan_dirs, scan_values = scan(integrand, self.grid)
        self._f_grid = scan_values[: self.grid.size]
        dual = planar.hull_cycle(scan_dirs / scan_values[:, None])
        self.wulff = wulff_from_dual(dual, self.grid)
        self.crystal = _crystal_from_dual(dual)
        # The hull of the Wulff graph is the crystal seen from inside: its
        # support function is the sampled envelope, which makes it the norm
        # authority for sampled costs (convex families use their closed
        # form instead).
        graph = planar.hull_cycle(self.grid.directions * self.wulff.values[:, None])
        self.envelope = GridFunction(self.grid, planar.support_values(graph, self.grid.directions))
        self._inner = ConvexRegion(planar.strictly_convex(graph), PROVENANCE_CRYSTAL)
        self._norm_region = self.crystal if integrand.is_convex else self._inner
        self.polar_body = polar(self._norm_region)
        self.f_max = float(self._f_grid.max())
        self.f_min = float(self._f_grid.min())
        self.resolution = self.grid.resolution
        if integrand.is_convex:
            self.default_tol = 1e-7
        else:
            self.default_tol = 5.0 * self.resolution * self.f_max
        self._check_build()

    def _check_build(self) -> None:
        bound = 2.0 * self.resolution * self.f_max
        outer_support = planar.support_values(self.crystal.vertices, self.grid.directions)
        inner_support = planar.support_values(self._inner.vertices, self.grid.directions)
        if np.abs(self.envelope.values - inner_support).max() > 1e-9 * max(1.0, self.f_max):
            raise RuntimeError("sampled envelope disagrees with the Wulff-graph hull")
        two_sided = np.abs(outer_support - inner_support).max()
        if two_sided > bound:
            raise RuntimeError(
                f"inner/outer crystal gap {two_sided:.3e} exceeds grid bound {bound:.3e}"
            )
        if self.integrand.is_convex:
            fixed_point_gap = np.abs(outer_support - self._f_grid).max()
            if fixed_point_gap > bound:
                raise RuntimeError(
                    f"convex cost is not an envelope fixed point: gap {fixed_point_gap:.3e}"
                )

    def norm(self, v) -> float:
        """The induced anisotropic norm of v (zero only at v = 0).

        Convex families evaluate their closed form (machine precision).
        Sampled costs use the support function of the Wulff-graph hull -
        identical to the sampled envelope - cross-checked on every call
        against the Minkowski gauge of the polar body (exact duality) and
        against the halfplane crystal within the grid bound.
        """
        v = np.asarray(v, dtype=float)
        speed = math.hypot(*v)
        if speed == 0.0:
            return 0.0
        if self.integrand.is_convex:
            return self.integrand(v)
        s = self._norm_region.support(v)
        g = self.polar_body.gauge(v)
        if abs(s - g) > 1e-9 * max(1.0, abs(s)):
            raise RuntimeError(f"support/gauge duality broken: {s!r} vs {g!r}")
        outer = self.crystal.support(v)
        if not (s <= outer + 1e-12 * max(1.0, outer)):
            raise RuntimeError("inner support exceeds the halfplane crystal's")
        if outer - s > 2.0 * self.resolution * self.f_max * speed:
            raise RuntimeError("inner/outer support gap exceeds the grid bound")
        return s

    @property
    def norm_region(self) -> ConvexRegion:
        """The region whose support function is the norm (crystal for convex
        families, the Wulff-graph hull for sampled ones)."""
        return self._norm_region

    def distance(self, x, y) -> float:
        """Cheapest cost of travelling from x to y; zero iff x == y."""
        return self.norm(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def in_contact(self, x, tol: float = 1e-6) -> bool:
        """Whether the cost meets its convex envelope in direction x."""
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        x = np.asarray(x, dtype=float)
        if math.hypot(*x) == 0.0:
            return True
        fx = self.integrand(x)
        return fx - self.norm(x) <= tol * max(1.0, fx)

    def is_orthogonal_direction(self, v, tol: float | None = None) -> bool:
        """Whether v/|v| is attained as an outer normal of the crystal boundary
        at which the cost meets its envelope.

        The contact vertex of v is the crystal vertex maximizing <., v>; v
        lies in its normal cone, between the edge normals n_k with offsets
        h_k on either side. v counts as extreme when two things hold: v
        rescaled onto the polar body boundary lies within ``tol * |v_scaled|``
        of one of the polar points n_k / h_k, and the cost is in contact,
        ``F(v) - |v| <= tol * |v|``. The default tol is the grid resolution,
        so smooth costs answer True everywhere, while flat polar edges and
        directions just beside a dip or a steep table sample answer False.
        Crystal edges shorter than ~10x the tolerance make the answer
        grid-sensitive.
        """
        if tol is None:
            tol = self.resolution
        v = np.asarray(v, dtype=float)
        n = self.norm(v)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        if self.integrand(v) - n > tol * n:
            return False
        v_hat = v / n
        normals, offsets = self.crystal.halfspaces
        k = int(np.argmax(self.crystal.vertices @ v))
        cone = [k - 1, k]
        gaps = np.hypot(*(normals[cone] / offsets[cone, None] - v_hat).T)
        return bool(gaps.min() <= tol * max(math.hypot(*v_hat), 1e-30))

    def contact_point_candidates(self, v) -> list[np.ndarray]:
        """Crystal points that may realize <v, x> = |v|: the contact face
        of the norm authority (vertex, or endpoints plus midpoint of an
        edge) and, when the cost knows one, its closed-form contact point."""
        face = contact_face(self._norm_region, unit(v))
        candidates = [p for p in face.vertices]
        if face.is_edge:
            candidates.append(face.representative)
        exact = self.integrand.contact_point(np.asarray(v, dtype=float))
        if exact is not None:
            candidates.append(exact)
        return candidates

    def envelope_integrand(self) -> Integrand:
        """The sampled envelope repackaged as a (table) cost."""
        from .integrand import AngularTable

        return AngularTable(self.grid.angles, self.envelope.values)
