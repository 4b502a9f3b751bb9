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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .crystal import ContactFace, ConvexRegion, CrystalContext, contact_face, PROVENANCE_USER
from .integrand import Integrand, unit

MIN_SEGMENT = 1e-12


class GeodesicClass(Enum):
    UNIQUE_UP_TO_REPARAM = "unique-up-to-reparametrization"
    INFINITELY_MANY = "infinitely-many"


@dataclass(frozen=True, eq=False)
class Path:
    """Polyline through ordered breakpoints; every segment has positive length."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("a path needs at least two planar breakpoints")
        seg = np.diff(pts, axis=0)
        if np.any(np.hypot(seg[:, 0], seg[:, 1]) <= MIN_SEGMENT):
            raise ValueError("degenerate segment: consecutive breakpoints coincide")
        object.__setattr__(self, "points", pts)

    @cached_property
    def segments(self) -> np.ndarray:
        return np.diff(self.points, axis=0)

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
    return float(sum(F(seg) for seg in path.segments))


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
    seg_len = np.hypot(path.segments[:, 0], path.segments[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seg_len)])
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
    contact_face: ContactFace
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
    condition holding at almost every traversal time).
    """
    if tol is None:
        tol = ctx.default_tol
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    v = path.displacement
    if math.hypot(*v) <= MIN_SEGMENT:
        raise ValueError("path endpoints coincide; geodesic comparison undefined")

    achieved = path_length(ctx.integrand, path)
    target = ctx.norm(v)
    verdict = abs(achieved - target) <= tol * max(1.0, target)
    face = contact_face(ctx.norm_region, unit(v))

    speeds = np.hypot(path.segments[:, 0], path.segments[:, 1])
    unit_tol = tol * max(1.0, target) / float(speeds.sum())
    seg_dirs = [unit(seg) for seg in path.segments]
    seg_norms = [ctx.norm(d) for d in seg_dirs]
    contact_flags = [
        ctx.integrand(d) - nd <= unit_tol for d, nd in zip(seg_dirs, seg_norms)
    ]

    best_checks: list[SegmentCheck] | None = None
    best_point: np.ndarray | None = None
    best_score = -1
    for xbar in ctx.contact_point_candidates(v):
        checks = []
        for d, nd, c_ok in zip(seg_dirs, seg_norms, contact_flags):
            support_gap = abs(float(d @ xbar) - nd)
            checks.append(SegmentCheck(d, c_ok, support_gap <= unit_tol))
        score = sum(check.ok for check in checks)
        if score > best_score:
            best_checks, best_point, best_score = checks, xbar, score
        if score == len(checks):
            break

    assert best_checks is not None
    return GeodesicCertificate(
        achieved_length=achieved,
        target_norm=target,
        verdict=verdict,
        contact_face=face,
        contact_point=best_point,
        segment_checks=best_checks,
        tolerance=tol,
    )


def classify(ctx: CrystalContext, x, y) -> GeodesicClass:
    """Uniqueness of the geodesic between two distinct points.

    A single geodesic class (the straight segment) exists exactly when the
    displacement is an attained crystal normal; otherwise infinitely many
    distinct geodesics connect the points.
    """
    v = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    if math.hypot(*v) <= MIN_SEGMENT:
        raise ValueError("classification requires distinct endpoints")
    if ctx.is_orthogonal_direction(v):
        return GeodesicClass.UNIQUE_UP_TO_REPARAM
    return GeodesicClass.INFINITELY_MANY


@dataclass(frozen=True)
class DirectionDecomposition:
    """A direction written as a convex combination of extreme polar directions.

    Every listed direction d satisfies norm(d) = 1 and is an attained
    crystal normal; the weights are positive and sum to one, and the
    weighted sum reconstructs the normalized input ``target``.
    """

    weights: tuple[float, ...]
    directions: np.ndarray
    target: np.ndarray

    @property
    def reconstructed(self) -> np.ndarray:
        return np.asarray(self.weights) @ self.directions


def decompose_direction(ctx: CrystalContext, v, tol: float | None = None) -> DirectionDecomposition:
    """Write v (scaled onto the polar body boundary) on a face of the polar body.

    Extreme directions return a single unit-weight term. Otherwise the
    polar-body edge crossed by the ray through v is the one attaining the
    gauge of v, and the barycentric weights of its two endpoints are read
    off the exact ray/segment intersection, so the weights sum to one by
    construction.
    """
    v = np.asarray(v, dtype=float)
    n = ctx.norm(v)
    if n == 0.0:
        raise ValueError("cannot decompose the zero vector")
    v_hat = v / n
    if ctx.is_orthogonal_direction(v, tol):
        return DirectionDecomposition((1.0,), v_hat[None, :], v_hat)

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
        return DirectionDecomposition((1.0,), a[None, :] / ctx.norm(a), v_hat)
    if s >= 1.0 - 1e-12:
        return DirectionDecomposition((1.0,), b[None, :] / ctx.norm(b), v_hat)
    return DirectionDecomposition((1.0 - s, s), np.vstack([a, b]), v_hat)


def construct_geodesic(ctx: CrystalContext, x, y) -> Path:
    """A geodesic from x to y.

    The straight segment when the displacement is an attained normal;
    otherwise the two-leg staircase along the two crystal edge normals at
    the displacement's contact vertex (first leg along the earlier normal).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = y - x
    if math.hypot(*v) <= MIN_SEGMENT:
        raise ValueError("geodesic construction requires distinct endpoints")
    if classify(ctx, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM:
        return Path.segment(x, y)
    legs = geodesic_legs(ctx, v)
    return Path(np.vstack([x, x + legs[0], y]))


def geodesic_legs(ctx: CrystalContext, v) -> tuple[np.ndarray, np.ndarray]:
    """The two staircase legs u, w with u + w = v for a non-extreme direction.

    v lies in the normal cone of the crystal at its contact vertex x, the
    vertex maximizing <., v>. The cone is spanned by the edge normals on
    either side of x, and v = alpha * n_before + beta * n_after with
    alpha, beta > 0 gives the legs u = alpha * n_before and w = v - u.
    """
    v = np.asarray(v, dtype=float)
    normals = ctx.crystal.normals
    k = int(np.argmax(ctx.crystal.vertices @ v))
    a, b = normals[k - 1], normals[k]
    det = a[0] * b[1] - a[1] * b[0]
    alpha = (v[0] * b[1] - v[1] * b[0]) / det
    beta = (a[0] * v[1] - a[1] * v[0]) / det
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("direction is extreme: no staircase decomposition exists")
    u = alpha * a
    return u, v - u


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
    if math.hypot(*v) <= MIN_SEGMENT:
        raise ValueError("family requires distinct endpoints")
    if classify(ctx, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM:
        raise ValueError("direction is an attained normal: geodesic is unique, no family")
    u, w = geodesic_legs(ctx, v)
    raw = [x, x + tau * u, x + tau * u + w, y]
    points = [raw[0]]
    for p in raw[1:]:
        if math.hypot(*(p - points[-1])) > MIN_SEGMENT:
            points.append(p)
    return Path(np.vstack(points))


def geodesic_ball(ctx: CrystalContext, center, radius: float) -> ConvexRegion:
    """Points reachable from the center within a given cost budget.

    The unit ball at the origin is the polar body of the crystal; general
    balls are its translates and dilates.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    return ConvexRegion(center + radius * ctx.polar_body.vertices, PROVENANCE_USER)
