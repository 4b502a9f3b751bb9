"""Anisotropic perimeter of planar polygons and Wulff-shape identities.

The anisotropic perimeter weighs each boundary element by the cost of its
outward normal; for polygons it is an exact edge sum. Among all shapes of
a given area the crystal of the cost minimizes that perimeter, so its
isoperimetric ratio is the reference value every competitor must beat or
match; homothets of the crystal achieve equality.
"""

from __future__ import annotations

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
        e = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(e[:, 0], e[:, 1]) <= 1e-14):
            raise ValueError("degenerate polygon: repeated consecutive vertices")
        if planar.polygon_area(v) <= 0.0:
            raise ValueError("vertices must be counterclockwise (positive area)")
        if _self_intersects(v):
            raise ValueError("polygon boundary self-intersects")
        object.__setattr__(self, "vertices", v)

    @classmethod
    def from_region(cls, region: ConvexRegion) -> "Polygon":
        return cls(region.vertices)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
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
    """Proper-crossing test between all non-adjacent edge pairs (vectorized)."""
    k = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
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


def isoperimetric_ratio(F: Integrand, poly: Polygon) -> float:
    """Anisotropic perimeter over the square root of the area (planar).

    Invariant under homothety: the perimeter is 1-homogeneous in scale and
    the area 2-homogeneous.
    """
    area = poly.area
    if area <= 0.0:
        raise ValueError("isoperimetric ratio needs positive area")
    return anisotropic_perimeter(F, poly) / float(np.sqrt(area))


@dataclass(frozen=True)
class WulffReport:
    """Perimeter/area identity of the crystal, with both candidate constants.

    For a crystal every boundary edge lies at support distance equal to the
    cost of its normal, so the anisotropic perimeter equals twice the area
    (planar cone formula) and the sharp isoperimetric constant is
    ``2 * sqrt(area)``. The isotropic constant ``2 * sqrt(pi)`` is reported
    alongside for comparison; the two agree only for isotropic costs.
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
    """Verify perimeter = 2 * area on the crystal and report both constants."""
    poly = Polygon.from_region(ctx.crystal)
    perimeter = anisotropic_perimeter(ctx.integrand, poly)
    area = poly.area
    return WulffReport(
        perimeter=perimeter,
        area=area,
        ratio=perimeter / float(np.sqrt(area)),
        reference_ratio=2.0 * float(np.sqrt(area)),
        isotropic_constant=2.0 * float(np.sqrt(np.pi)),
        relative_difference=abs(perimeter - 2.0 * area) / perimeter,
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
