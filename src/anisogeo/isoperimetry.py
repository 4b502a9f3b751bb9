"""Anisotropic perimeter, isoperimetric ratios and the Wulff identity.

The anisotropic perimeter weighs each boundary element by the cost of its
outward normal; for a :class:`~anisogeo.crystal.Polygon` (a crystal or
any other region included) it is an exact edge sum. Among all shapes of a
given area the crystal of the cost minimizes that perimeter, so its
isoperimetric ratio is the reference value every competitor must beat or
match; homothets of the crystal achieve equality. The crystal itself
satisfies perimeter = 2 * area, and random competitors are the crystals
of randomly perturbed table costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import planar
from .crystal import ConvexRegion, CrystalContext, Polygon, build_crystal
from .integrand import AngularTable, Integrand, SphereGrid


def anisotropic_perimeter(F: Integrand, poly: Polygon) -> float:
    """Sum over edges of the cost of the outward normal times edge length."""
    return float(F.values_on(poly.normals) @ poly.edge_lengths)


def _unit_measures(F: Integrand, poly: Polygon) -> tuple[float, float, int]:
    """The anisotropic perimeter and the area of the polygon scaled by 2**-e
    into [-1, 1], and e.

    Scaling by a power of two is exact: they are the polygon's own
    perimeter times 2**-e and area times 2**-2e, neither of which
    overflows nor underflows at any scale of the polygon.
    """
    u, e = planar.unit_scaled(poly.vertices)
    edges = np.concatenate((u[1:], u[:1])) - u
    perimeter = float(F.values_on(poly.normals) @ np.hypot(edges[:, 0], edges[:, 1]))
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
    perimeter, area, e = _unit_measures(ctx.integrand, ctx.crystal)
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


def random_wulff_competitor(grid: SphereGrid, rng: np.random.Generator) -> ConvexRegion:
    """Random convex polygon: the crystal of a randomly perturbed table cost.

    Being a crystal, it is convex with the origin inside. Its edge normals
    are scan directions of that table on the grid: grid directions, or the
    table's 24 random sample directions, which the scan adds to the grid
    (at grid 60 with ``default_rng(3)``, 7 of 13 edge normals are off the
    grid). The table's values lie in [1, 1.5].
    """
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=24))
    while np.any(np.diff(angles) <= 1e-9):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=24))
    values = 1.0 + 0.5 * rng.uniform(0.0, 1.0, size=24)
    return build_crystal(AngularTable(angles, values), grid)
