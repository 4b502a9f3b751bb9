"""Anisotropic path length, geodesic construction, and certification.

Paths are polylines: the cost of a segment is exact (1-homogeneity makes
it independent of parametrization speed), so polyline length needs no
quadrature. A path is a geodesic exactly when its length equals the
induced norm of its endpoint difference; :func:`is_geodesic` checks that
scalar identity and emits a geometric certificate, two boolean arrays
over the segments: each direction meets the cost's convex envelope, and
one common crystal contact point supports every direction at once.

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
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import planar
from .crystal import ConvexRegion, CrystalContext, _displacement, contact_face, displacement
from .integrand import Integrand, planar_vector

_DEGENERATE = "degenerate segment: consecutive breakpoints coincide"

def _not_finite(i: int, row: list) -> str:
    return f"path breakpoint {i + 1} is not finite: {row}"


def _breakpoints(x, e: int, *legs) -> list[tuple[float, float]]:
    """x + l1, x + l1 + l2, ... for legs of (y - x) * 2**-e, each as s * (x / s + l1 + ...)
    with s = 2**max(e, 0): no term overflows, so a breakpoint in the float range is finite."""
    k = max(e, 0)
    shrink, step = 2.0**-k, 2.0 ** (e - k)  # exact powers of two, as k <= 1025 and e >= -1073
    a, b, points = float(x[0]) * shrink, float(x[1]) * shrink, []
    for la, lb in legs:
        a, b = a + la * step, b + lb * step
        points.append((a, b) if k == 0 else (planar.scaled(a, k), planar.scaled(b, k)))
    return points


def _steps(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each step of the (finite) breakpoints times 2**-e and its own exponent e, the one that
    puts its largest magnitude in [0.5, 1): the plain difference of its breakpoints where that
    is finite, else the difference of the breakpoints scaled together (:func:`planar.unit_scaled`)."""
    with np.errstate(over="ignore"):
        plain = pts[1:] - pts[:-1]
    base = np.zeros(len(plain), dtype=int)
    far = ~(planar.row_max_abs(plain) < math.inf)
    if far.any():
        unit, e = planar.unit_scaled(pts)
        plain[far] = (unit[1:] - unit[:-1])[far]
        base[far] = e
    _, own = np.frexp(planar.row_max_abs(plain))
    return np.ldexp(plain, -own[:, None]), base + own


class GeodesicClass(Enum):
    UNIQUE_UP_TO_REPARAM = "unique-up-to-reparametrization"
    INFINITELY_MANY = "infinitely-many"


@dataclass(frozen=True, eq=False)
class Path:
    """Polyline through ordered breakpoints; every segment has positive length.

    ``directions`` are the unit segment directions, and ``_lengths`` the segment lengths
    (plain floats), each of its step times 2**-e, with e its own entry of ``_exponents``,
    which puts the step's largest magnitude in [0.5, 1). Each step is the plain difference
    of its breakpoints, exact, and keeps its bits beside a far longer step; only where a
    plain difference overflows is the step taken on the breakpoints scaled together.
    ``Path(points)`` works on whole arrays, for paths of any length; the constructions
    build theirs from plain-float breakpoints with :meth:`_from_floats`, bit for bit.
    """

    points: np.ndarray
    directions: np.ndarray = field(init=False, repr=False)
    _lengths: list[float] = field(init=False, repr=False)
    _exponents: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("a path needs at least two planar breakpoints")
        top = float(np.abs(pts).max())
        if not top < math.inf:  # before any difference (inf - inf warns)
            bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValueError(_not_finite(bad, pts[bad].tolist()))
        steps, exponents = _steps(pts)
        lengths = np.hypot(steps[:, 0], steps[:, 1])
        if not lengths.min() > 0.0:
            raise ValueError(_DEGENERATE)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "directions", steps / lengths[:, None])
        object.__setattr__(self, "_lengths", lengths.tolist())
        object.__setattr__(self, "_exponents", exponents.tolist())

    @classmethod
    def _from_floats(cls, points: list[tuple[float, float]]) -> "Path":
        """``Path(np.array(points))`` for two or more breakpoints held as pairs of floats,
        bit for bit and with its refusals: the steps, their scaling and the directions in
        floats, the lengths one ``np.hypot`` (``math.hypot`` rounds differently), and the
        two arrays at the end."""
        flat = [c for p in points for c in p]
        if not all(map(math.isfinite, flat)):
            i = next(i for i, p in enumerate(points) if not all(map(math.isfinite, p)))
            raise ValueError(_not_finite(i, list(points[i])))
        xs, ys = flat[0::2], flat[1::2]
        dx, dy, exponents, unit = [], [], [], None
        for i, (a, b) in enumerate(zip(map(operator.sub, xs[1:], xs), map(operator.sub, ys[1:], ys))):
            base = 0
            if not max(abs(a), abs(b)) < math.inf:  # a plain difference overflows
                if unit is None:
                    far = math.frexp(max(map(abs, flat)))[1]
                    unit = [math.ldexp(c, -far) for c in flat]
                base = far
                a, b = unit[2 * i + 2] - unit[2 * i], unit[2 * i + 3] - unit[2 * i + 1]
            e = math.frexp(max(abs(a), abs(b)))[1]
            dx.append(math.ldexp(a, -e))
            dy.append(math.ldexp(b, -e))
            exponents.append(base + e)
        lengths = np.hypot(np.array(dx), np.array(dy)).tolist()
        if not min(lengths) > 0.0:
            raise ValueError(_DEGENERATE)
        path = object.__new__(cls)
        object.__setattr__(path, "points", np.array(points))
        object.__setattr__(path, "directions", np.array([(a / s, b / s) for a, b, s in zip(dx, dy, lengths)]))
        object.__setattr__(path, "_lengths", lengths)
        object.__setattr__(path, "_exponents", exponents)
        return path

    @property
    def speeds(self) -> np.ndarray:
        """The segment lengths, inf past the float range."""
        return planar.scaled(np.array(self._lengths), np.array(self._exponents))

    def _scaled_lengths(self) -> tuple[list[float], int]:
        """The segment lengths times 2**-e on one scale, e the largest exponent, and e: their
        sum does not overflow, and a step far below the longest counts as the rounding it is."""
        top = max(self._exponents)
        return [math.ldexp(s, e - top) for s, e in zip(self._lengths, self._exponents)], top

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    @classmethod
    def segment(cls, x, y) -> "Path":
        """The segment from x to y; refuses each endpoint as :func:`planar_vector` does."""
        return cls(np.array([planar_vector(x), planar_vector(y)]))

    def translated(self, shift) -> "Path":
        """The path moved by shift; refuses shift as :func:`planar_vector` does."""
        return Path(self.points + np.array(planar_vector(shift)))


def path_length(F: Integrand, path: Path) -> float:
    """Total cost of a polyline: the sum of F over its segment vectors."""
    return _length(F.values_on(path.directions), *path._scaled_lengths())


def _length(unit_costs: np.ndarray, lengths: list[float], exponent: int) -> float:
    """A path's cost from F on its segment directions and its lengths times 2**-exponent
    (:meth:`Path._scaled_lengths`), in segment order: inf, not a warning, past the range."""
    return planar.scaled(sum(map(operator.mul, unit_costs.tolist(), lengths)), exponent)


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
    s = np.concatenate([[0.0], np.cumsum(path._scaled_lengths()[0])])
    targets = np.linspace(0.0, s[-1], count)
    pts = np.empty((count, path.points.shape[1]))
    for d in range(path.points.shape[1]):
        pts[:, d] = np.interp(targets, s, path.points[:, d])
    keep = [0]
    for i in range(1, count):
        if (pts[i] != pts[keep[-1]]).any():
            keep.append(i)
    return Path(pts[keep])


@dataclass(eq=False)
class GeodesicCertificate:
    """Evidence that a path is (or is not) a geodesic.

    ``verdict`` is the scalar test: achieved length equals the target norm
    within tolerance. The per-segment arrays are the geometric side: for
    each unit segment direction ``directions[i]``, ``contact_ok[i]`` says
    it meets the envelope and ``support_ok[i]`` that the common contact
    point (one crystal point serving every segment) supports it. For a
    true geodesic both views agree; the certificate records both so that
    disagreement is observable rather than assumed away.
    """

    achieved_length: float
    target_norm: float
    verdict: bool
    contact_point: np.ndarray
    directions: np.ndarray
    contact_ok: np.ndarray
    support_ok: np.ndarray
    tolerance: float

    def __bool__(self) -> bool:
        return self.verdict

    @property
    def certified(self) -> bool:
        """Geometric verdict: all segments in contact and commonly supported."""
        return bool(np.all(self.contact_ok & self.support_ok))

    def as_dict(self) -> dict:
        return {
            "achieved_length": self.achieved_length,
            "target_norm": self.target_norm,
            "verdict": self.verdict,
            "certified": self.certified,
            "tolerance": self.tolerance,
            "contact_point": self.contact_point.tolist(),
            "segments": [
                {"direction": d, "contact_ok": c, "support_ok": s}
                for d, c, s in zip(self.directions.tolist(), self.contact_ok.tolist(), self.support_ok.tolist())
            ],
        }


def is_geodesic(ctx: CrystalContext, path: Path, tol: float | None = None) -> GeodesicCertificate:
    """Check whether a polyline is a geodesic and build its certificate.

    The primary criterion is the exactly computable scalar one, relative at
    every scale: ``|length - norm(displacement)| <= tol * norm``. The geometric
    certificate searches the contact face of the displacement direction
    (its vertices and midpoint, plus the cost's closed-form contact point
    when available) for one point supporting every segment direction; its
    per-segment budget, ``tol * norm / (Euclidean length)``, matches the scalar
    criterion's in aggregate (the discrete form of a
    condition holding at almost every traversal time). A cost without corners
    has one candidate, its closed-form contact point, and reads no crystal.
    After one ``values_on`` call, the per-segment work is O(segments x
    candidates) in Python floats; the displacement's record, its contact face
    (:func:`contact_face`) and its candidates
    (:meth:`CrystalContext.contact_point_candidates`) are plain floats too,
    each made into an array once. A tolerance that is not positive and finite
    raises ValueError.
    """
    if tol is None:
        tol = ctx.default_tol
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    v, e, gap = displacement(path.start, path.end)  # v has the face and candidates of y - x
    if gap == 0.0:
        raise ValueError("path endpoints coincide; geodesic comparison undefined")

    # F on every segment direction, once: the length, the contact flags and
    # the segment norms.
    dirs = path.directions
    unit_costs = ctx.integrand.values_on(dirs)
    lengths, exponent = path._scaled_lengths()
    achieved = _length(unit_costs, lengths, exponent)
    target = planar.scaled_positive(ctx._record(*v).norm, e)
    if not max(achieved, target) < math.inf:
        raise ValueError(f"path length {achieved!r} or norm {target!r} past the float range")
    verdict = abs(achieved - target) <= tol * target

    # Norms, contact flags and support scores in plain floats: numpy costs more on few segments.
    unit_tol = tol * planar.scaled(target, -exponent) / sum(lengths)  # no sum overflows
    costs, pairs = unit_costs.tolist(), dirs.tolist()
    norms = costs
    if not ctx.integrand.is_convex:  # the norm of a direction is min(F, h), as the record's
        norms = [min(f, ctx.crystal.support_vertex(a, b)[1]) for f, (a, b) in zip(costs, pairs)]
    contact = [f - n <= unit_tol for f, n in zip(costs, norms)]

    # Each candidate scored as the crystal support is, x * a + y * b; the first with the
    # most segments both in contact and supported wins. A cost without corners has one
    # contact point, in closed form.
    if ctx._corner_free:
        candidates = ctx.integrand.contact_point(v)[None, :]
    else:
        candidates = ctx.contact_point_candidates(v, contact_face(ctx.crystal, v))
    best, score, support = 0, -1, []
    for i, (x, y) in enumerate(candidates.tolist()):
        ok = [abs(x * a + y * b - n) <= unit_tol for (a, b), n in zip(pairs, norms)]
        hits = sum(map(operator.and_, contact, ok))
        if hits > score:
            best, score, support = i, hits, ok
    return GeodesicCertificate(
        achieved_length=achieved,
        target_norm=target,
        verdict=verdict,
        contact_point=candidates[best],
        directions=dirs,
        contact_ok=np.array(contact, dtype=bool),
        support_ok=np.array(support, dtype=bool),
        tolerance=tol,
    )


def classify(ctx: CrystalContext, x, y) -> GeodesicClass:
    """Uniqueness of the geodesic between two distinct points.

    A single geodesic class (the straight segment) exists exactly when the
    displacement is an attained crystal normal; otherwise infinitely many
    distinct geodesics connect the points.
    """
    v, _, gap = displacement(x, y)  # v's label is that of y - x
    if gap == 0.0:
        raise ValueError("classification requires distinct endpoints")
    if ctx._record(*v).unique:
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

    Extreme directions return a single unit-weight term. Otherwise the ray
    through v crosses the polar-body edge dual to v's contact vertex x_k,
    the edge from n_{k-1} / h_{k-1} to n_k / h_k (polar points read from the
    crystal's halfspaces, so the polar body is not built), and the barycentric
    weights of its two endpoints are read off the exact ray/segment
    intersection, so the weights sum to one by construction.
    """
    a, b, _ = planar.unit_scaled_pair(*planar_vector(v))  # the decomposition is 0-homogeneous
    record = ctx._record(a, b)
    n = record.norm
    if n == 0.0:
        raise ValueError("cannot decompose the zero vector")
    v_hat = np.array((a, b)) / n
    if record.unique:
        return DirectionDecomposition((1.0,), v_hat[None, :])

    _, _, px, py = ctx._edge_columns
    a, b = np.array((px[record.k - 1], py[record.k - 1])), np.array((px[record.k], py[record.k]))
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
    The path is built from its breakpoints as floats (:meth:`Path._from_floats`):
    the same path, bit for bit, as ``Path`` of them as an array.
    """
    x, y = planar_vector(x), planar_vector(y)
    v, e, gap = _displacement(x, y)
    if gap == 0.0:
        raise ValueError("geodesic construction requires distinct endpoints")
    record = ctx._record(*v)
    if record.unique:
        return Path._from_floats([x, y])
    u, _ = record.legs or record.staircase()  # plain floats; staircase() refuses a direction without legs
    return Path._from_floats([x, *_breakpoints(x, e, u), y])


def geodesic_legs(ctx: CrystalContext, v) -> tuple[np.ndarray, np.ndarray]:
    """The two staircase legs u, w with u + w = v for a non-extreme direction:
    v = alpha * n_before + beta * n_after with alpha, beta > 0, over the edge
    normals on either side of v's contact vertex, gives u = alpha * n_before."""
    return ctx._contact(v).staircase()


def geodesic_family(ctx: CrystalContext, x, y, tau: float) -> Path:
    """Member tau of the staircase family of geodesics from x to y.

    The displacement must not be an attained normal (otherwise the
    geodesic is unique and no family exists). The path runs
    ``x -> x + tau*u -> x + tau*u + w -> y``; every member has the same
    length and distinct tau give distinct breakpoints. Member 1 is
    :func:`construct_geodesic`'s staircase, bit for bit. Below 1, an interior
    breakpoint equal to the one before or to y is dropped, so every member
    runs from x to y; the path is built from the rest as floats, as
    :func:`construct_geodesic` builds its own.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("family parameter must lie in [0, 1]")
    x, y = planar_vector(x), planar_vector(y)
    v, e, gap = _displacement(x, y)
    if gap == 0.0:
        raise ValueError("family requires distinct endpoints")
    record = ctx._record(*v)
    if record.unique:
        raise ValueError("direction is an attained normal: geodesic is unique, no family")
    (ua, ub), w = record.legs or record.staircase()
    if tau == 1.0:
        return Path._from_floats([x, *_breakpoints(x, e, (ua, ub)), y])
    points = [x]
    for p in _breakpoints(x, e, (tau * ua, tau * ub), w):
        if p != points[-1] and p != y:
            points.append(p)
    return Path._from_floats([*points, y])


def geodesic_ball(ctx: CrystalContext, center, radius: float) -> ConvexRegion:
    """Points reachable from the center within a given cost budget.

    The unit ball at the origin is the polar body of the crystal; general
    balls are its translates and dilates.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    a, b = planar_vector(center)
    # Rounding is monotone: no vertex overflows where this bound is finite.
    if not max(abs(a), abs(b)) + float(radius) * float(np.abs(ctx.polar_body.vertices).max()) < math.inf:
        raise ValueError(f"geodesic ball of radius {radius!r} about {[a, b]} reaches past the float range")
    return ConvexRegion(np.array((a, b)) + radius * ctx.polar_body.vertices)
