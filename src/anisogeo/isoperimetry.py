"""Anisotropic perimeter, isoperimetric ratios and the Wulff identity.

The anisotropic perimeter weighs each boundary element by the cost of its
outward normal; for a :class:`~anisogeo.crystal.Polygon` (a crystal or
any other region included) it is an exact edge sum. Among all shapes of a
given area the crystal of the cost minimizes that perimeter, so its
isoperimetric ratio is the reference value every competitor must beat or
match; homothets of the crystal achieve equality. The crystal itself
satisfies perimeter = 2 * area, and random competitors are the crystals
of randomly perturbed table costs.

The suite scores its competitors as one batch (:func:`_competitor_ratios`):
the tables come from one draw that holds the reference's numbers in its
order (:func:`_random_tables`, which falls back to the reference's loop
when a table needs a redraw), their sorting, padding and scans are
whole-array passes, each competitor's values are one ``np.interp`` and
its dual points get one hull, and every pass after the hulls runs on the
cycles concatenated. The ratios, and the generator's state after them,
are those of :func:`random_wulff_competitor` and
:func:`isoperimetric_ratio` one at a time, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import planar
from .crystal import ConvexRegion, CrystalContext, Polygon, build_crystal, checked_cycles
from .crystal import refusing_unbounded
from .integrand import AngularTable, Integrand, SphereGrid, periodic_samples
from .planar import TWO_PI


def anisotropic_perimeter(F: Integrand, poly: Polygon) -> float:
    """Sum over edges of the cost of the outward normal times edge length."""
    return float(F.values_on(poly.normals) @ poly.edge_lengths)


def _unit_measures(F: Integrand, poly: Polygon) -> tuple[float, float, int]:
    """The anisotropic perimeter and the area of :func:`planar.unit_scaled`
    of the polygon, and its e: the polygon's own times 2**-e and 2**-2e."""
    u, e = planar.unit_scaled(poly.vertices)
    edges = np.concatenate((u[1:], u[:1])) - u
    perimeter = float(F.values_on(poly.normals) @ np.hypot(edges[:, 0], edges[:, 1]))
    return perimeter, planar.polygon_area(u), e


def isoperimetric_ratio(F: Integrand, poly: Polygon) -> float:
    """Anisotropic perimeter over the square root of the area (planar).

    Invariant under homothety: the perimeter is 1-homogeneous in scale and
    the area 2-homogeneous, so it is taken on :func:`_unit_measures`.
    """
    perimeter, area, _ = _unit_measures(F, poly)
    return _ratio(perimeter, area)


def _ratio(perimeter: float, area: float) -> float:
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


def wulff_identity_check(ctx: CrystalContext) -> WulffReport:
    """Verify perimeter = 2 * area on the crystal and report both constants.

    Every quantity comes from the crystal scaled by 2**-e (see
    :func:`_unit_measures`): |P - 2A| / P is |P_u - 2 A_u 2**e| / P_u.
    """
    perimeter, area, e = _unit_measures(ctx.integrand, ctx.crystal)
    return WulffReport(
        perimeter=planar.scaled(perimeter, e),
        area=planar.scaled(area, 2 * e),
        ratio=perimeter / math.sqrt(area),
        reference_ratio=planar.scaled(2.0 * math.sqrt(area), e),
        isotropic_constant=2.0 * float(np.sqrt(np.pi)),
        relative_difference=abs(perimeter - 2.0 * planar.scaled(area, e)) / perimeter,
    )


def _random_table(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The samples of a random table cost: 24 sorted angles in [0, 2*pi),
    more than 1e-9 apart, and 24 values in [1, 1.5]."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=24))
    while np.any(np.diff(angles) <= 1e-9):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=24))
    values = 1.0 + 0.5 * rng.uniform(0.0, 1.0, size=24)
    return angles, values


def random_wulff_competitor(grid: SphereGrid, rng: np.random.Generator) -> ConvexRegion:
    """Random convex polygon: the crystal of a randomly perturbed table cost.

    Being a crystal, it is convex with the origin inside. Its edge normals
    are scan directions of that table on the grid: grid directions, or the
    table's 24 random sample directions, which the scan adds to the grid
    (at grid 60 with ``default_rng(3)``, 7 of 13 edge normals are off the
    grid). The table's values lie in [1, 1.5].
    """
    return build_crystal(AngularTable(*_random_table(rng)), grid)


def _random_tables(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` tables of :func:`_random_table` drawn in turn, as rows of
    angles and of values, and the generator left as that loop leaves it.

    ``Generator.uniform`` returns ``low + (high - low) * next_double``, so
    one ``random((count, 48))`` draw holds each table's numbers in order:
    the angles are 2*pi times its first 24, the values 1 + 0.5 times the
    rest. Should any table need a redraw, the generator is set back and
    the loop draws them all.
    """
    state = rng.bit_generator.state
    draws = rng.random((count, 48))
    angles = np.sort(TWO_PI * draws[:, :24], axis=1)
    if np.any(np.diff(angles, axis=1) <= 1e-9):
        rng.bit_generator.state = state
        angles, values = zip(*[_random_table(rng) for _ in range(count)])
        return np.array(angles), np.array(values)
    return angles, 1.0 + 0.5 * draws[:, 24:]


def _competitor_ratios(F: Integrand, grid: SphereGrid, rng: np.random.Generator, count: int) -> list[float]:
    """``isoperimetric_ratio(F, random_wulff_competitor(grid, rng))`` for
    ``count`` competitors in turn, bit for bit, computed as one batch.

    The tables are drawn as the reference draws them, in one draw
    (:func:`_random_tables`). Their samples are sorted and padded, and
    their scans taken, in whole-array passes; each table's values on its
    scan are one ``np.interp`` and its dual points get one
    :func:`planar.hull_cycle`, as :func:`build_crystal` does; the rest is
    :func:`_crystal_ratios`.
    """
    angles, values = _random_tables(rng, count)
    # The scan of each table: the grid, then its sample directions.
    special = np.column_stack([np.cos(angles.ravel()), np.sin(angles.ravel())])
    special = special / np.linalg.norm(special, axis=1)[:, None]
    theta = np.mod(np.arctan2(special[:, 1], special[:, 0]), TWO_PI).reshape(count, -1)
    dirs = np.concatenate((np.broadcast_to(grid.directions, (count, grid.size, 2)),
                           special.reshape(count, -1, 2)), axis=1)
    scan = np.concatenate((np.broadcast_to(grid.angles, (count, grid.size)), theta), axis=1) % TWO_PI
    cycles = [
        planar.hull_cycle(d / np.interp(t, xp, fp)[:, None])
        for d, t, xp, fp in zip(dirs, scan, *periodic_samples(angles, values))
    ]
    return _crystal_ratios(F, cycles)


def _crystal_ratios(F: Integrand, dual_cycles: list[np.ndarray]) -> list[float]:
    """``isoperimetric_ratio(F, _crystal_from_dual(c))`` for each dual hull
    cycle c, bit for bit, on the cycles concatenated.

    The passes are those of the reference: the pruning
    (:func:`planar.strictly_convex_cycles`), the polar
    (:func:`planar.polar_of_cycles`), the checks of :class:`ConvexRegion`
    (:func:`checked_cycles`), the crystal normals (one ``F.values_on``
    call) and the unit-scaled edges. Each polygon's perimeter and area are
    reduced by the calls :func:`_unit_measures` makes, and every refusal
    raises the reference's message.
    """
    hulls, counts, starts, nxt = planar.strictly_convex_cycles(dual_cycles)
    with refusing_unbounded():
        vertices = planar.polar_of_cycles(hulls, counts, starts, nxt)
    u, ex, ey = checked_cycles(vertices, starts, nxt)
    weights = F.values_on(planar.edge_normals_and_offsets(vertices, nxt)[0])
    lengths = np.hypot(ex, ey)
    shoelace = u[:, 0] * u[nxt, 1] - u[:, 1] * u[nxt, 0]
    return [
        _ratio(float(weights[a:b] @ lengths[a:b]), 0.5 * float(np.sum(shoelace[a:b])))
        for a, b in zip(starts.tolist(), (starts + counts).tolist())
    ]
