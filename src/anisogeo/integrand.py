"""Directional cost functions and their sphere-sampled transforms.

A directional cost F assigns a positive weight to every direction and is
extended 1-homogeneously: F(x) = |x| * F(x/|x|), F(0) = 0. Five concrete
families are provided (p-norms, constants, crystalline maxima of linear
forms, angular tables, and costs with isolated downward dips), together
with the three transforms that drive the rest of the package:

* ``wulff_transform``    W(F)(v) = min_w F(w) / <v, w>   over <v, w> > 0
* ``support_transform``  A(G)(v) = max_w G(w) * <v, w>
* ``convex_envelope``    D(F) = A(W(F)), the largest convex 1-homogeneous
  minorant of F.

Each transform returns a :class:`GridFunction`, the table cost whose
samples sit at the grid's directions, so it evaluates like any other cost.

Extrema over the sphere are realized as extrema over a finite
:class:`SphereGrid`; every scanned value therefore carries an error of
order ``resolution * max F / min F``. Costs may declare
``special_directions`` (facet normals, dip directions, table samples):
these are always appended to the scanned direction set so that flat and
dipped features are resolved exactly rather than at grid accuracy.

Both scans are exact support queries on planar hulls of the scanned
points, never direction-by-direction matrices: W(F) is the reciprocal
support function of the hull of the dual points ``w / F(w)``, and A(G)
the support function of the hull of the graph points ``G(w) w``
(:func:`planar.support_values`). A transform on M directions takes
O(M log M) time and O(M) memory.
"""

from __future__ import annotations

import array
import bisect
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import planar
from .planar import TWO_PI, convex_hull_ccw, edge_normals_and_offsets, support_values
from .planar import scaled_positive, unit_scaled_pair

# Sizes of the equispaced grids SphereGrid.planar builds, and the default size of
# contexts and the CLI.
GRID_SIZE_MIN = 8
GRID_SIZE_MAX = 20000
GRID_SIZE_DEFAULT = 720

# The dtype of the arrays planar_vector reads without a copy.
_FLOAT64 = np.dtype(np.float64)

# Directions closer than this (in Euclidean distance on the sphere) are
# treated as identical; dips have zero angular width at any usable grid.
DIRECTION_MATCH_TOL = 1e-12


def planar_vector(x) -> tuple[float, float]:
    """The two components of a finite planar vector, as floats.

    Raises ValueError naming x when it is not a planar vector or either
    component is not finite. Both components are tested: ``hypot(inf, nan)``
    is inf, so a test of the length alone would miss the nan. A pair of
    floats and a float64 array of two are read as they are, without a copy.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.shape == (2,):
        a, b = x.tolist()
    elif type(x) is tuple and len(x) == 2 and type(x[0]) is float and type(x[1]) is float:
        a, b = x
    else:
        try:
            arr = np.asarray(x, dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.shape != (2,):
            raise ValueError(f"expected a planar vector, got {x!r}")
        a, b = arr.tolist()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"vector {x!r} is not finite")
    return a, b


def unit_pair(x) -> tuple[float, float]:
    """x / |x| as two floats, taken on x scaled by a power of two; rejects the zero vector and non-finite input."""
    a, b, _ = unit_scaled_pair(*planar_vector(x))
    n = math.hypot(a, b)
    if not n > 0.0:
        raise ValueError("vector has no direction: zero or not finite")
    return a / n, b / n


def unit(x) -> np.ndarray:
    """:func:`unit_pair` of x as an array."""
    return np.array(unit_pair(x))


def _positive(values, what: str) -> np.ndarray:
    """values as floats, rejecting any that is not positive and finite."""
    vals = np.asarray(values, dtype=float)
    if not np.all((vals > 0.0) & (vals < math.inf)):
        raise ValueError(f"{what} must be positive and finite")
    return vals


def periodic_samples(angles, values) -> tuple[np.ndarray, np.ndarray]:
    """Samples of a 2*pi-periodic function, sorted and padded with one wrap
    sample at each end, as ``np.interp(..., period=TWO_PI)`` pads them on
    every call. :func:`interp_periodic` reads them with plain ``np.interp``.
    Given rows of samples, it sorts and pads each row on its own."""
    xp = np.asarray(angles, dtype=float) % TWO_PI
    order = np.argsort(xp, axis=-1)
    xp = np.take_along_axis(xp, order, -1)
    fp = np.take_along_axis(np.asarray(values, dtype=float), order, -1)
    return (
        np.concatenate((xp[..., -1:] - TWO_PI, xp, xp[..., :1] + TWO_PI), axis=-1),
        np.concatenate((fp[..., -1:], fp, fp[..., :1]), axis=-1),
    )


def interp_periodic(theta, samples: tuple[np.ndarray, np.ndarray]):
    """Periodic linear interpolation at angle(s) theta on padded samples.

    Bit-identical to ``np.interp(theta, angles, values, period=TWO_PI)``,
    without re-sorting and re-padding the samples on each call.
    """
    return np.interp(theta % TWO_PI, *samples)


def _check_grid_size(size) -> None:
    if not (isinstance(size, (int, np.integer)) and GRID_SIZE_MIN <= size <= GRID_SIZE_MAX):
        raise ValueError(f"planar grid size must be an integer from {GRID_SIZE_MIN} to {GRID_SIZE_MAX}")


@dataclass(frozen=True)
class SphereGrid:
    """The equispaced planar grid of ``size`` unit directions used for all
    sup/inf scans. Angle 0 (the +x axis) is always included, and
    ``resolution`` is the angular spacing 2*pi / size in radians. Its
    ``directions`` and ``angles`` are read-only, so one grid serves every
    context of its size (:meth:`planar`); a grid pickles as that shared one.
    """

    size: int

    def __post_init__(self) -> None:
        _check_grid_size(self.size)

    def __reduce__(self):
        return SphereGrid.planar, (self.size,)

    @property
    def resolution(self) -> float:
        return TWO_PI / self.size

    @cached_property
    def directions(self) -> np.ndarray:
        """The unit directions at angles k * resolution, as read-only (size, 2) rows."""
        count = self.size
        angles = np.arange(count) * self.resolution
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        # cos/sin of multiples never stray from the unit circle, but pin the
        # cardinal directions exactly so axis-aligned features are exact.
        for k, d in ((0, (1.0, 0.0)), (1, (0.0, 1.0)), (2, (-1.0, 0.0)), (3, (0.0, -1.0))):
            idx = k * count // 4
            if 4 * idx == k * count:
                dirs[idx] = d
        dirs.flags.writeable = False
        return dirs

    @cached_property
    def angles(self) -> np.ndarray:
        """The directions' angles in [0, 2*pi), read-only."""
        angles = np.mod(np.arctan2(self.directions[:, 1], self.directions[:, 0]), TWO_PI)
        angles.flags.writeable = False
        return angles

    @classmethod
    def planar(cls, count: int = GRID_SIZE_DEFAULT) -> "SphereGrid":
        """The shared grid of ``count`` directions: one instance per size, for
        the last 16 sizes asked for, refused as ``SphereGrid(count)`` refuses it.
        ``SphereGrid(count)`` builds a fresh grid with the same directions."""
        _check_grid_size(count)
        return cls._shared(int(count))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def _shared(cls, size: int) -> "SphereGrid":
        return cls(size)


class Integrand(ABC):
    """Positive 1-homogeneous planar directional cost.

    Subclasses define ``values_on``, the cost of each row of an array of
    unit directions, and every evaluation has the bits it gives: ``F(x)`` is
    ``values_on`` of x's direction (through the family's scalar form,
    :meth:`_unit_value`) times the Euclidean norm |x|, taken on x scaled by
    a power of two and scaled back (:func:`planar.scaled_positive`, so F is
    positive at every nonzero x), which makes 1-homogeneity hold by
    construction. Construction validates positivity, so evaluation never fails.
    """

    kind: str = "abstract"

    @abstractmethod
    def values_on(self, dirs) -> np.ndarray:
        """Cost of each row of an (n, 2) array of unit directions."""

    def __call__(self, x) -> float:
        """F(x), the one scalar entry point: |x| times :meth:`_unit_value` of x's
        direction, the family's scalar form, which has the bits of that
        direction's row of ``values_on`` in any batch. Families override
        ``_unit_value``, never this method."""
        a, b, e = unit_scaled_pair(*planar_vector(x))
        n = math.hypot(a, b)
        if n == 0.0:
            return 0.0
        return scaled_positive(n * self._unit_value(a / n, b / n), e)

    def _unit_value(self, a: float, b: float) -> float:
        """The cost of the unit direction (a, b): a one-row ``values_on`` call, unless
        the family has a scalar form with the same bits (every family here has one)."""
        return float(self.values_on(np.array(((a, b),)))[0])

    @property
    def special_directions(self) -> np.ndarray:
        """Directions that sup/inf scans must include to be exact (may be empty)."""
        return np.zeros((0, 2))

    @property
    def is_convex(self) -> bool:
        """True only when convexity is guaranteed by construction."""
        return False

    def contact_point(self, v: np.ndarray) -> np.ndarray | None:
        """A crystal point x with <v, x> = F(v), when known in closed form."""
        return None


class PNorm(Integrand):
    """F(x) = ||x||_p for p >= 1 (math.inf allowed). Convex."""

    kind = "pnorm"

    def __init__(self, p: float) -> None:
        if not (p >= 1.0):
            raise ValueError("p-norm exponent must satisfy p >= 1")
        self.p = float(p)

    def values_on(self, dirs) -> np.ndarray:
        return self._norm(np.asarray(dirs, dtype=float))

    def _norm(self, x: np.ndarray) -> np.ndarray:
        # Column-wise: a two-term sum or max is the axis-1 reduction, bit for
        # bit. abs and the power take both columns at once: F(x) is one row.
        a = np.abs(x)
        if math.isinf(self.p):
            return np.maximum(a[:, 0], a[:, 1])
        if self.p == 1.0:
            return a[:, 0] + a[:, 1]
        a = a ** self.p
        return (a[:, 0] + a[:, 1]) ** (1.0 / self.p)

    def _unit_value(self, a: float, b: float) -> float:
        # p = 1 and inf in plain arithmetic; other p take _norm's two array powers.
        if self.p == 1.0:
            return abs(a) + abs(b)
        if math.isinf(self.p):
            return max(abs(a), abs(b))
        return self._smooth_norm(np.array((abs(a), abs(b))))

    def _smooth_norm(self, w: np.ndarray) -> float:
        """``_norm`` of the one row w = |u|, bit for bit: the same array powers, on
        an array of two and then on an array of one, with their plain sum between."""
        sa, sb = (w ** self.p).tolist()
        return (np.array((sa + sb,)) ** (1.0 / self.p)).item()

    @property
    def is_convex(self) -> bool:
        return True

    @property
    def special_directions(self) -> np.ndarray:
        # Facet normals of the crystal: axes for p = 1 (a square), the
        # diagonals for p = inf (a diamond). Smooth p have none.
        if self.p == 1.0:
            eye = np.eye(2)
            return np.vstack([eye, -eye])
        if math.isinf(self.p):
            diagonals = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
            return diagonals / math.sqrt(2)
        return np.zeros((0, 2))

    def contact_point(self, v) -> np.ndarray | None:
        if self.p == 1.0 or math.isinf(self.p):
            return None  # polygonal crystal faces are exact already
        a, b = unit_pair(v)
        # Gradient of the p-norm, sign(u) |u|**(p-1) / F(u)**(p-1), taken on
        # u = v/|v| (it is 0-homogeneous) so the powers neither overflow nor
        # underflow; Euler's relation gives <v, grad> = F(v). The powers of
        # |u| are one array power, as values_on takes them; F(u)**(p-1) is
        # a scalar power, and (a > 0) - (a < 0) is np.sign(a).
        q, w = self.p - 1.0, np.array((abs(a), abs(b)))
        pa, pb = (w ** q).tolist()
        return np.array((((a > 0.0) - (a < 0.0)) * pa, ((b > 0.0) - (b < 0.0)) * pb)) / self._smooth_norm(w) ** q


class Constant(Integrand):
    """F(x) = c * |x| for a constant c > 0 (isotropic). Convex."""

    kind = "constant"

    def __init__(self, value: float = 1.0) -> None:
        self.value = float(_positive(value, "constant cost"))

    def values_on(self, dirs) -> np.ndarray:
        return np.full(len(dirs), self.value)

    def _unit_value(self, a: float, b: float) -> float:
        return self.value

    @property
    def is_convex(self) -> bool:
        return True

    def contact_point(self, v) -> np.ndarray | None:
        a, b = unit_pair(v)
        return np.array((self.value * a, self.value * b))


class Crystalline(Integrand):
    """F(x) = max_i w_i * <x, u_i> over a finite facet list. Convex.

    The scaled directions ``w_i * u_i`` must positively span the space,
    otherwise F would vanish somewhere; construction rejects such lists.
    """

    kind = "crystalline"

    def __init__(self, facets) -> None:
        rows = []
        for direction, weight in facets:
            weight = float(_positive(weight, "facet weights"))
            rows.append(weight * unit(np.asarray(direction, dtype=float)))
        self.generators = np.array(rows)
        if len(rows) < 3 or self.generators.shape[1:] != (2,):
            raise ValueError("need at least 3 planar facets")
        ang = np.sort(np.mod(np.arctan2(self.generators[:, 1], self.generators[:, 0]), TWO_PI))
        gaps = np.diff(np.append(ang, ang[0] + TWO_PI))
        if gaps.max() >= math.pi - 1e-9:
            raise ValueError("facet directions leave an angular gap >= pi; cost not positive")

    def values_on(self, dirs) -> np.ndarray:
        # Elementwise (facets x rows) products, not a matrix product, whose
        # BLAS kernel rounds a row by the shape of its batch.
        d, g = np.asarray(dirs, dtype=float), self.generators
        return (g[:, :1] * d[:, 0] + g[:, 1:] * d[:, 1]).max(axis=0)

    @cached_property
    def _generator_rows(self) -> list[list[float]]:
        return self.generators.tolist()

    def _unit_value(self, a: float, b: float) -> float:
        return max(x * a + y * b for x, y in self._generator_rows)

    @property
    def is_convex(self) -> bool:
        return True

    @cached_property
    def special_directions(self) -> np.ndarray:
        # The crystal equals the hull of the generators; its facet normals
        # (hull edge normals) are where the halfplane scan must be exact.
        hull = convex_hull_ccw(self.generators)
        normals, _ = edge_normals_and_offsets(hull)
        return normals


class AngularTable(Integrand):
    """Planar cost sampled at angles, linearly interpolated in between.

    Linear interpolation keeps the cost continuous (hence lower
    semicontinuous); convexity is not guaranteed and is not claimed.
    """

    kind = "table"

    def __init__(self, angles, values) -> None:
        ang = np.asarray(angles, dtype=float)
        vals = np.asarray(values, dtype=float)
        if ang.ndim != 1 or ang.shape != vals.shape or len(ang) < 3:
            raise ValueError("need matching angle/value arrays with at least 3 samples")
        if not np.all((ang >= 0.0) & (ang < TWO_PI)) or np.any(np.diff(ang) <= 0.0):
            raise ValueError("angles must be strictly increasing within [0, 2*pi)")
        _positive(vals, "table values")
        self.sample_angles = ang
        self.sample_values = vals
        self._samples = periodic_samples(ang, vals)

    def values_on(self, dirs) -> np.ndarray:
        dirs = np.asarray(dirs, dtype=float)
        return interp_periodic(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI), self._samples)

    @property
    def special_directions(self) -> np.ndarray:
        return np.column_stack([np.cos(self.sample_angles), np.sin(self.sample_angles)])

    def _unit_value(self, a: float, b: float) -> float:
        # values_on's row: numpy's arctan2, the floored mod, one interpolation.
        return float(interp_periodic(float(np.arctan2(b, a)) % TWO_PI, self._samples))

    @cached_property
    def _sample_columns(self) -> tuple[array.array, array.array]:
        """The padded samples as compact sequences of plain floats."""
        return tuple(array.array("d", column.tobytes()) for column in self._samples)

    def contact_point(self, v) -> np.ndarray | None:
        """The gradient F(u) u + F'(u) u' on the arc holding u = v/|v|, with u'
        the unit tangent; None at a sample angle, where F has a kink."""
        a, b = unit_pair(v)
        theta = float(np.arctan2(b, a)) % TWO_PI  # as values_on reads it: numpy's arctan2, then the same mod
        angles, values = self._sample_columns
        i = bisect.bisect_right(angles, theta)  # angles[i-1] <= theta < angles[i]
        if angles[i - 1] == theta:
            return None
        slope = (values[i] - values[i - 1]) / (angles[i] - angles[i - 1])
        f = float(interp_periodic(theta, self._samples))  # F(u), at that angle
        return np.array((f * a - slope * b, f * b + slope * a))


class GridFunction(AngularTable):
    """A positive function sampled on a sphere grid, extended 1-homogeneously:
    the table cost whose samples are the grid's directions."""

    def __init__(self, grid: SphereGrid, values) -> None:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.size,):
            raise ValueError("one value per grid direction required")
        super().__init__(grid.angles, vals)
        self.grid = grid

    @property
    def values(self) -> np.ndarray:
        return self.sample_values


class Dip(Integrand):
    """A base cost lowered at finitely many directions (zero angular width).

    The pointwise minimum with a downward spike is the canonical lower
    semicontinuous non-convex family; an upward spike would not be lower
    semicontinuous and is rejected (a dip value above the base beyond 1e-12 relative).
    """

    kind = "dip"

    def __init__(self, base: Integrand, dips) -> None:
        self.base = base
        directions, values = [], []
        for direction, value in dips:
            d = unit(np.asarray(direction, dtype=float))
            value = float(_positive(value, "dip values"))
            if value > base(d) * (1.0 + 1e-12):
                raise ValueError("dip value exceeds the base cost; not a dip")
            directions.append(d)
            values.append(value)
        if not directions:
            raise ValueError("dip cost requires at least one dip")
        # One row per dip, read by values_on, contact_point and the scans.
        self._dip_dirs, self._dip_values = np.array(directions), np.array(values)

    @property
    def dips(self) -> list[tuple[np.ndarray, float]]:
        """Each dip's unit direction and value."""
        return list(zip(self._dip_dirs, self._dip_values.tolist()))

    def values_on(self, dirs) -> np.ndarray:
        # Every dip against every row in one (dips x rows) broadcast; the
        # minimum over the dips is then a reduction over the leading axis.
        dirs = np.asarray(dirs, dtype=float)
        d = self._dip_dirs
        hit = np.hypot(dirs[:, 0] - d[:, :1], dirs[:, 1] - d[:, 1:]) <= DIRECTION_MATCH_TOL
        vals = self.base.values_on(dirs)
        if hit.any():  # one-row calls off the scans rarely meet a dip
            vals = np.minimum(vals, np.where(hit, self._dip_values[:, None], np.inf).min(axis=0))
        return vals

    @cached_property
    def _dip_columns(self) -> tuple[list[float], list[float], list[float]]:
        """The dips' direction columns and values, as plain floats."""
        return (*self._dip_dirs.T.tolist(), self._dip_values.tolist())

    def _unit_value(self, a: float, b: float) -> float:
        # values_on's row: the base's value, lowered to the least dip within
        # DIRECTION_MATCH_TOL, by the same np.hypot of the differences.
        xs, ys, values = self._dip_columns
        gaps = np.hypot([a - x for x in xs], [b - y for y in ys]).tolist()
        return min([self.base._unit_value(a, b), *(v for v, g in zip(values, gaps) if g <= DIRECTION_MATCH_TOL)])

    def contact_point(self, v) -> np.ndarray | None:
        """The base's contact point, when every dip's halfplane holds at it."""
        x = self.base.contact_point(v)
        if x is None or (self._dip_dirs @ x > self._dip_values).any():
            return None
        return x

    @property
    def special_directions(self) -> np.ndarray:
        return np.vstack([self.base.special_directions, self._dip_dirs])


def scan_directions(F: Integrand, grid: SphereGrid) -> np.ndarray:
    """Grid directions plus the cost's special directions (normalized)."""
    sp = np.asarray(F.special_directions, dtype=float)
    if sp.size == 0:
        return grid.directions
    sp = sp / np.linalg.norm(sp, axis=1)[:, None]
    return np.vstack([grid.directions, sp])


def scan(F: Integrand, grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """F on the scan directions, the first ``grid.size`` of them the grid's, and the
    hull cycle of the dual points w / F(w): what the Wulff transform and the crystal read."""
    dirs = scan_directions(F, grid)
    vals = F.values_on(dirs)
    if np.any(vals <= 0.0):
        raise ValueError("cost is not positive on the scan directions")
    return vals, planar.hull_cycle(dirs / vals[:, None])


def wulff_transform(F: Integrand, grid: SphereGrid) -> GridFunction:
    """W(F)(v) = min over directions w with <v, w> > 0 of F(w) / <v, w>.

    The scan covers the grid plus F's special directions, so flat facets
    and dips are seen exactly. W(F) <= F holds at every grid direction
    because w = v is always a candidate. The minimum is 1 / max over w of
    <v, w / F(w)>, the reciprocal support of the hull of the dual points
    ``w / F(w)``; each grid direction's own dual point lies in the hull, so
    that support is at least 1 / F(v) > 0.
    """
    return GridFunction(grid, 1.0 / support_values(scan(F, grid)[1], grid.directions))


def support_transform(G: GridFunction) -> GridFunction:
    """A(G)(v) = max over grid directions w of G(w) * <v, w>, on G's grid.

    This is the support function of the hypograph of G sampled on the
    grid; A(G) >= G holds at every grid direction (w = v is a candidate).
    Computed as a support query on the hull of the graph points ``G(w) w``;
    G's samples are positive by construction.
    """
    dirs = G.grid.directions
    return GridFunction(G.grid, support_values(planar.hull_cycle(dirs * G.values[:, None]), dirs))


def convex_envelope(F: Integrand, grid: SphereGrid) -> GridFunction:
    """D(F) = A(W(F)): the (grid-sampled) largest convex minorant of F."""
    return support_transform(wulff_transform(F, grid))
