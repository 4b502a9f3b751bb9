"""Anisotropic perimeter of planar polygons and Wulff-shape identities.

The anisotropic perimeter weighs each boundary element by the cost of its
outward normal; for polygons it is an exact edge sum. Among all shapes of
a given area the crystal of the cost minimizes that perimeter, so its
isoperimetric ratio is the reference value every competitor must beat or
match; homothets of the crystal achieve equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import planar
from .crystal import ConvexRegion, CrystalContext, build_crystal
from .integrand import AngularTable, Integrand, SphereGrid


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple planar polygon with positively oriented (CCW) vertices."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("a polygon needs at least 3 planar vertices")
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

    @classmethod
    def from_region(cls, region: ConvexRegion) -> "Polygon":
        return cls(region.vertices)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        v = self.vertices
        e = np.concatenate((v[1:], v[:1])) - v
        return np.hypot(e[:, 0], e[:, 1])

    @cached_property
    def edge_normals(self) -> np.ndarray:
        n, _ = planar.edge_normals_and_offsets(self.vertices)
        return n

    @cached_property
    def area(self) -> float:
        return planar.polygon_area(self.vertices)

    def scaled(self, factor: float) -> "Polygon":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return Polygon(factor * self.vertices)

    def translated(self, shift) -> "Polygon":
        return Polygon(self.vertices + np.asarray(shift, dtype=float))


def _self_intersects(v: np.ndarray) -> bool:
    """Whether the closed polyline v crosses itself.

    When every turn is strictly left and the turns add up to one full
    revolution the polygon is convex, hence simple: O(k). Anything else
    (a reflex vertex, or a star that winds more than once) goes to the
    all-pairs test :func:`_edges_cross`.
    """
    e = np.concatenate((v[1:], v[:1])) - v
    f = np.concatenate((e[1:], e[:1]))
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    if np.all(cross > 0.0):
        dot = e[:, 0] * f[:, 0] + e[:, 1] * f[:, 1]
        if round(float(np.arctan2(cross, dot).sum()) / planar.TWO_PI) == 1:
            return False
    return _edges_cross(v)


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


def anisotropic_perimeter(F: Integrand, poly: Polygon) -> float:
    """Sum over edges of the cost of the outward normal times edge length."""
    return float(F.values_on(poly.edge_normals) @ poly.edge_lengths)


def _unit_measures(F: Integrand, poly: Polygon) -> tuple[float, float, int]:
    """The anisotropic perimeter and the area of the polygon scaled by 2**-e
    into [-1, 1], and e.

    Scaling by a power of two is exact: they are the polygon's own
    perimeter times 2**-e and area times 2**-2e, neither of which
    overflows nor underflows at any scale of the polygon.
    """
    u, e = planar.unit_scaled(poly.vertices)
    edges = np.concatenate((u[1:], u[:1])) - u
    perimeter = float(F.values_on(poly.edge_normals) @ np.hypot(edges[:, 0], edges[:, 1]))
    return perimeter, planar.polygon_area(u), e


def isoperimetric_ratio(F: Integrand, poly: Polygon) -> float:
    """Anisotropic perimeter over the square root of the area (planar).

    Invariant under homothety: the perimeter is 1-homogeneous in scale and
    the area 2-homogeneous. Computed on the polygon scaled by a power of
    two, so it neither overflows nor underflows.
    """
    perimeter, area, _ = _unit_measures(F, poly)
    if area <= 0.0:
        raise ValueError("isoperimetric ratio needs positive area")
    return perimeter / math.sqrt(area)


@dataclass(frozen=True)
class WulffReport:
    """Perimeter/area identity of the crystal, with both candidate constants.

    For a crystal every boundary edge lies at support distance equal to the
    cost of its normal, so the anisotropic perimeter equals twice the area
    (planar cone formula) and the sharp isoperimetric constant is
    ``2 * sqrt(area)``. The isotropic constant ``2 * sqrt(pi)`` is reported
    alongside for comparison; the two agree only for isotropic costs.

    The ratios and the relative difference are finite at any scale of the
    cost. The perimeter and the area (both about c**2 for a cost c times a
    fixed one) are inf or 0 where they leave the float range, past about
    c = 1e+-150.
    """

    perimeter: float
    area: float
    ratio: float
    reference_ratio: float
    isotropic_constant: float
    relative_difference: float

    def as_dict(self) -> dict:
        return {
            "perimeter": self.perimeter,
            "area": self.area,
            "ratio": self.ratio,
            "reference_ratio": self.reference_ratio,
            "isotropic_constant": self.isotropic_constant,
            "relative_difference": self.relative_difference,
        }


def wulff_identity_check(ctx: CrystalContext) -> WulffReport:
    """Verify perimeter = 2 * area on the crystal and report both constants.

    Every quantity comes from the crystal scaled by 2**-e (see
    :func:`_unit_measures`): |P - 2A| / P is |P_u - 2 A_u 2**e| / P_u.
    """
    perimeter, area, e = _unit_measures(ctx.integrand, Polygon.from_region(ctx.crystal))
    with np.errstate(over="ignore"):
        full_perimeter, full_area = float(np.ldexp(perimeter, e)), float(np.ldexp(area, 2 * e))
    return WulffReport(
        perimeter=full_perimeter,
        area=full_area,
        ratio=perimeter / math.sqrt(area),
        reference_ratio=math.ldexp(2.0 * math.sqrt(area), e),
        isotropic_constant=2.0 * float(np.sqrt(np.pi)),
        relative_difference=abs(perimeter - 2.0 * math.ldexp(area, e)) / perimeter,
    )


def random_wulff_competitor(
    grid: SphereGrid,
    rng: np.random.Generator,
    roughness: float = 0.5,
    samples: int = 24,
) -> Polygon:
    """Random convex polygon whose edge normals lie on the given grid.

    Generated as the crystal of a randomly perturbed positive cost, which
    guarantees convexity, an interior origin, and a normal fan inside the
    grid - the class over which discrete isoperimetric comparisons are
    exact.
    """
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=samples))
    while np.any(np.diff(angles) <= 1e-9):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=samples))
    values = 1.0 + roughness * rng.uniform(0.0, 1.0, size=samples)
    bumpy = AngularTable(angles, values)
    region = build_crystal(bumpy, grid)
    return Polygon.from_region(region)
