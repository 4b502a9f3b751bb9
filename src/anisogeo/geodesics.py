"""Anisotropic path length, geodesic construction, and certification.

Paths are polylines: the cost of a segment is exact (1-homogeneity makes
it independent of parametrization speed), so polyline length needs no
quadrature. A path is a geodesic exactly when its length equals the
induced norm of its endpoint difference; :func:`is_geodesic` checks that
scalar identity and additionally emits a geometric certificate: every
segment direction must meet the cost's convex envelope, and one common
crystal contact point must support all segment directions at once.

Between two points there is always a geodesic. It is unique (up to
reparametrization) exactly when the endpoint difference is an attained
crystal normal; otherwise a one-parameter family of distinct staircase
geodesics exists, produced by :func:`geodesic_family`. A staircase's legs
run along the two crystal edge normals at the contact vertex x of the
displacement v. Each normal n is a scanned direction whose cost is the
offset <n, x>, so the staircase costs exactly <v, x>, the crystal's
support of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .crystal import ConvexRegion, CrystalContext
from .integrand import Integrand, planar_vector

MIN_SEGMENT = 1e-12


class GeodesicClass(Enum):
    UNIQUE_UP_TO_REPARAM = "unique-up-to-reparametrization"
    INFINITELY_MANY = "infinitely-many"


@dataclass(frozen=True, eq=False)
class Path:
    """Polyline through ordered breakpoints; every segment has positive length.

    ``segments`` are the segment vectors, ``speeds`` their Euclidean lengths
    and ``directions`` the unit segment directions.
    """

    points: np.ndarray
    segments: np.ndarray = field(init=False, repr=False)
    speeds: np.ndarray = field(init=False, repr=False)
    directions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("a path needs at least two planar breakpoints")
        # A max over the points before any difference (inf - inf warns); nan fails it.
        if not np.abs(pts).max() < math.inf:
            bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValueError(f"path breakpoint {bad + 1} is not finite: {pts[bad].tolist()}")
        seg = pts[1:] - pts[:-1]
        speeds = np.hypot(seg[:, 0], seg[:, 1])
        if not speeds.min() > MIN_SEGMENT:
            raise ValueError("degenerate segment: consecutive breakpoints coincide")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "segments", seg)
        object.__setattr__(self, "speeds", speeds)
        object.__setattr__(self, "directions", seg / speeds[:, None])

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    @property
    def displacement(self) -> np.ndarray:
        return self.end - self.start

    @classmethod
    def segment(cls, x, y) -> "Path":
        return cls(np.vstack([np.asarray(x, float), np.asarray(y, float)]))

    def translated(self, shift) -> "Path":
        return Path(self.points + np.asarray(shift, dtype=float))


def path_length(F: Integrand, path: Path) -> float:
    """Total cost of a polyline: the sum of F over its segment vectors."""
    return _length(F.values_on(path.directions), path)


def _length(unit_costs: np.ndarray, path: Path) -> float:
    """The path's cost from F on its segment directions, summed in segment order."""
    return float(sum((unit_costs * path.speeds).tolist()))


def concatenate(paths: list[Path]) -> Path:
    """Chain paths, the last entry traversed first.

    The composition convention matches operator order: ``[gamma, rho]``
    traverses rho and then gamma translated to start at rho's end. Paths
    are rigidly translated into the chain, so lengths add exactly.
    """
    if not paths:
        raise ValueError("nothing to concatenate")
    pieces = list(reversed(paths))
    points = [pieces[0].points]
    end = pieces[0].end
    for piece in pieces[1:]:
        moved = piece.points - piece.start + end
        points.append(moved[1:])
        end = moved[-1]
    return Path(np.vstack(points))


def resample_polyline(path: Path, count: int) -> Path:
    """Resample a (densely sampled) curve at ``count`` evenly spaced points.

    Spacing is uniform in Euclidean arc length along the polyline. Corners
    that fall between sample positions are cut, so this is a sampler for
    smooth curves, not a reparametrization of polygonal ones.
    """
    if count < 2:
        raise ValueError("need at least two sample points")
    s = np.concatenate([[0.0], np.cumsum(path.speeds)])
    targets = np.linspace(0.0, s[-1], count)
    pts = np.empty((count, path.points.shape[1]))
    for d in range(path.points.shape[1]):
        pts[:, d] = np.interp(targets, s, path.points[:, d])
    keep = [0]
    for i in range(1, count):
        if math.hypot(*(pts[i] - pts[keep[-1]])) > MIN_SEGMENT:
            keep.append(i)
    return Path(pts[keep])


@dataclass
class SegmentCheck:
    """Certificate entry for one segment direction."""

    direction: np.ndarray
    contact_ok: bool
    support_ok: bool

    @property
    def ok(self) -> bool:
        return self.contact_ok and self.support_ok


@dataclass
class GeodesicCertificate:
    """Evidence that a path is (or is not) a geodesic.

    ``verdict`` is the scalar test: achieved length equals the target norm
    within tolerance. The segment checks are the geometric side: each
    segment direction meets the envelope (contact) and is supported by the
    common contact point (one crystal point serving every segment). For a
    true geodesic both views agree; the certificate records both so that
    disagreement is observable rather than assumed away.
    """

    achieved_length: float
    target_norm: float
    verdict: bool
    contact_point: np.ndarray | None
    segment_checks: list[SegmentCheck]
    tolerance: float

    def __bool__(self) -> bool:
        return self.verdict

    @property
    def certified(self) -> bool:
        """Geometric verdict: all segments in contact and commonly supported."""
        return all(check.ok for check in self.segment_checks)

    def as_dict(self) -> dict:
        return {
            "achieved_length": self.achieved_length,
            "target_norm": self.target_norm,
            "verdict": self.verdict,
            "certified": self.certified,
            "tolerance": self.tolerance,
            "contact_point": None if self.contact_point is None else list(self.contact_point),
            "segments": [
                {
                    "direction": list(check.direction),
                    "contact_ok": check.contact_ok,
                    "support_ok": check.support_ok,
                }
                for check in self.segment_checks
            ],
        }


def is_geodesic(ctx: CrystalContext, path: Path, tol: float | None = None) -> GeodesicCertificate:
    """Check whether a polyline is a geodesic and build its certificate.

    The primary criterion is the exactly computable scalar one:
    ``|length - norm(displacement)| <= tol * max(1, norm)``. The geometric
    certificate searches the contact face of the displacement direction
    (its vertices and midpoint, plus the cost's closed-form contact point
    when available) for one point supporting every segment direction; its
    per-segment tolerance budget is length-weighted so that the aggregate
    budget matches the scalar criterion's (the discrete form of a
    condition holding at almost every traversal time). A tolerance that is
    not positive and finite raises ValueError.
    """
    if tol is None:
        tol = ctx.default_tol
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    v = path.displacement
    if math.hypot(*v.tolist()) <= MIN_SEGMENT:
        raise ValueError("path endpoints coincide; geodesic comparison undefined")

    # F on every segment direction, once: the length, the contact flags and
    # the segment norms.
    dirs = path.directions
    unit_costs = ctx.integrand.values_on(dirs)
    achieved = _length(unit_costs, path)
    record = ctx._contact(v)
    target = record.norm
    verdict = abs(achieved - target) <= tol * max(1.0, target)

    unit_tol = tol * max(1.0, target) / float(path.speeds.sum())
    seg_norms = ctx._norms(dirs, unit_costs)
    contact = unit_costs - seg_norms <= unit_tol

    # Every candidate scored in one (segments x candidates) pass; the first
    # best wins, as in a loop over them that stops at a full score.
    candidates = ctx.contact_point_candidates(v, ctx._contact_face(v, record))
    support = np.abs(dirs @ np.transpose(candidates) - seg_norms[:, None]) <= unit_tol
    best = int((contact[:, None] & support).sum(axis=0).argmax())
    checks = [
        SegmentCheck(d, c_ok, s_ok)
        for d, c_ok, s_ok in zip(dirs, contact.tolist(), support[:, best].tolist())
    ]
    return GeodesicCertificate(
        achieved_length=achieved,
        target_norm=target,
        verdict=verdict,
        contact_point=candidates[best],
        segment_checks=checks,
        tolerance=tol,
    )


def classify(ctx: CrystalContext, x, y) -> GeodesicClass:
    """Uniqueness of the geodesic between two distinct points.

    A single geodesic class (the straight segment) exists exactly when the
    displacement is an attained crystal normal; otherwise infinitely many
    distinct geodesics connect the points.
    """
    v = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    if math.hypot(*v.tolist()) <= MIN_SEGMENT:
        raise ValueError("classification requires distinct endpoints")
    if ctx.is_orthogonal_direction(v):
        return GeodesicClass.UNIQUE_UP_TO_REPARAM
    return GeodesicClass.INFINITELY_MANY


@dataclass(frozen=True)
class DirectionDecomposition:
    """A direction written as a convex combination of extreme polar directions.

    Every listed direction d satisfies norm(d) = 1 and is an attained
    crystal normal; the weights are positive and sum to one, and the
    weighted sum reconstructs the input scaled to unit norm.
    """

    weights: tuple[float, ...]
    directions: np.ndarray

    @property
    def reconstructed(self) -> np.ndarray:
        return np.asarray(self.weights) @ self.directions


def decompose_direction(ctx: CrystalContext, v) -> DirectionDecomposition:
    """Write v (scaled onto the polar body boundary) on a face of the polar body.

    Extreme directions return a single unit-weight term. Otherwise the
    polar-body edge crossed by the ray through v is the one attaining the
    gauge of v, and the barycentric weights of its two endpoints are read
    off the exact ray/segment intersection, so the weights sum to one by
    construction.
    """
    v = np.asarray(v, dtype=float)
    record = ctx._contact(v)
    n = record.norm
    if n == 0.0:
        raise ValueError("cannot decompose the zero vector")
    v_hat = v / n
    if record.unique:
        return DirectionDecomposition((1.0,), v_hat[None, :])

    body = ctx.polar_body
    face = int(np.argmax(body.normals @ v_hat / body.offsets))
    a = body.vertices[face]
    b = body.vertices[(face + 1) % len(body.vertices)]
    ca = float(a[0] * v_hat[1] - a[1] * v_hat[0])  # cross(a, v_hat)
    cb = float(b[0] * v_hat[1] - b[1] * v_hat[0])
    s = ca / (ca - cb) if ca - cb > 0.0 else math.nan
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise RuntimeError("direction lies on no polar-body face; geometry inconsistent")
    if s <= 1e-12:
        return DirectionDecomposition((1.0,), a[None, :] / ctx.norm(a))
    if s >= 1.0 - 1e-12:
        return DirectionDecomposition((1.0,), b[None, :] / ctx.norm(b))
    return DirectionDecomposition((1.0 - s, s), np.vstack([a, b]))


def construct_geodesic(ctx: CrystalContext, x, y) -> Path:
    """A geodesic from x to y.

    The straight segment when the displacement is an attained normal;
    otherwise the two-leg staircase along the two crystal edge normals at
    the displacement's contact vertex (first leg along the earlier normal).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = y - x
    if math.hypot(*v.tolist()) <= MIN_SEGMENT:
        raise ValueError("geodesic construction requires distinct endpoints")
    record = ctx._contact(v)
    if record.unique:
        return Path(np.array([x, y]))
    return Path(np.array([x, x + record.staircase()[0], y]))


def geodesic_legs(ctx: CrystalContext, v) -> tuple[np.ndarray, np.ndarray]:
    """The two staircase legs u, w with u + w = v for a non-extreme direction.

    v lies in the normal cone of the crystal at its contact vertex x, the
    vertex maximizing <., v>. The cone is spanned by the edge normals on
    either side of x, and v = alpha * n_before + beta * n_after with
    alpha, beta > 0 gives the legs u = alpha * n_before and w = v - u.
    """
    return ctx._contact(v).staircase()


def geodesic_family(ctx: CrystalContext, x, y, tau: float) -> Path:
    """Member tau of the staircase family of geodesics from x to y.

    The displacement must not be an attained normal (otherwise the
    geodesic is unique and no family exists). The path runs
    ``x -> x + tau*u -> x + tau*u + w -> y``; every member has the same
    length and distinct tau give distinct breakpoints.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("family parameter must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = y - x
    if math.hypot(*v.tolist()) <= MIN_SEGMENT:
        raise ValueError("family requires distinct endpoints")
    record = ctx._contact(v)
    if record.unique:
        raise ValueError("direction is an attained normal: geodesic is unique, no family")
    u, w = record.staircase()
    raw = [x, x + tau * u, x + tau * u + w, y]
    points = [raw[0]]
    for p in raw[1:]:
        if math.hypot(*(p - points[-1])) > MIN_SEGMENT:
            points.append(p)
    return Path(np.array(points))


def geodesic_ball(ctx: CrystalContext, center, radius: float) -> ConvexRegion:
    """Points reachable from the center within a given cost budget.

    The unit ball at the origin is the polar body of the crystal; general
    balls are its translates and dilates.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    center = np.array(planar_vector(center))
    return ConvexRegion(center + radius * ctx.polar_body.vertices)
