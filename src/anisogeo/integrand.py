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

Extrema over the sphere are realized as extrema over a finite
:class:`SphereGrid`; every scanned value therefore carries an error of
order ``resolution * max F / min F``. Costs may declare
``special_directions`` (facet normals, dip directions, table samples):
these are always appended to the scanned direction set so that flat and
dipped features are resolved exactly rather than at grid accuracy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .planar import convex_hull_ccw, edge_normals_and_offsets

TWO_PI = 2.0 * math.pi

# Directions closer than this (in Euclidean distance on the sphere) are
# treated as identical; dips have zero angular width at any usable grid.
DIRECTION_MATCH_TOL = 1e-12


def unit(x: np.ndarray) -> np.ndarray:
    """x / |x|, rejecting the zero vector and non-finite input."""
    x = np.asarray(x, dtype=float)
    n = float(np.linalg.norm(x))
    if not 0.0 < n < math.inf:
        raise ValueError("vector has no direction: zero or not finite")
    return x / n


def _positive(values, what: str) -> np.ndarray:
    """values as floats, rejecting any that is not positive and finite."""
    vals = np.asarray(values, dtype=float)
    if not np.all((vals > 0.0) & (vals < math.inf)):
        raise ValueError(f"{what} must be positive and finite")
    return vals


def angle_of(x) -> float:
    """Planar angle in [0, 2*pi)."""
    x = np.asarray(x, dtype=float)
    return float(np.mod(math.atan2(x[1], x[0]), TWO_PI))


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Finite set of planar unit directions used for all sup/inf scans.

    Angles are strictly increasing in [0, 2*pi); ``resolution`` is the
    angular spacing in radians.
    """

    directions: np.ndarray
    resolution: float

    def __post_init__(self) -> None:
        dirs = np.asarray(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] < 4 or dirs.shape[1] != 2:
            raise ValueError("grid needs at least 4 planar directions")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("grid directions must be unit vectors (tol 1e-12)")
        if self.resolution <= 0.0:
            raise ValueError("resolution must be positive")
        ang = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI)
        if np.any(np.diff(ang) <= 0.0):
            raise ValueError("planar grid angles must be strictly increasing")
        object.__setattr__(self, "directions", dirs)

    @property
    def size(self) -> int:
        return self.directions.shape[0]

    @cached_property
    def angles(self) -> np.ndarray:
        return np.mod(np.arctan2(self.directions[:, 1], self.directions[:, 0]), TWO_PI)

    @classmethod
    def planar(cls, count: int = 720) -> "SphereGrid":
        """Equispaced planar grid; angle 0 (the +x axis) is always included."""
        if not 8 <= count <= 20000:
            raise ValueError("planar grid size must be between 8 and 20000")
        angles = np.arange(count) * (TWO_PI / count)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        # cos/sin of multiples never stray from the unit circle, but pin the
        # cardinal directions exactly so axis-aligned features are exact.
        for k, d in ((0, (1.0, 0.0)), (1, (0.0, 1.0)), (2, (-1.0, 0.0)), (3, (0.0, -1.0))):
            idx = k * count // 4
            if 4 * idx == k * count:
                dirs[idx] = d
        return cls(dirs, TWO_PI / count)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A positive function sampled on a sphere grid, extended 1-homogeneously.

    Off-grid unit directions are evaluated by periodic linear interpolation
    in angle.
    """

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError("one value per grid direction required")
        object.__setattr__(self, "values", vals)

    def unit_value(self, u) -> float:
        theta = angle_of(u)
        return float(np.interp(theta, self.grid.angles, self.values, period=TWO_PI))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        n = float(np.linalg.norm(x))
        if n == 0.0:
            return 0.0
        return n * self.unit_value(x / n)

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())


class Integrand(ABC):
    """Positive 1-homogeneous planar directional cost.

    Subclasses define the value on unit directions; evaluation at arbitrary
    points scales that value by the Euclidean norm, which makes
    1-homogeneity hold by construction. Construction validates positivity,
    so evaluation never fails.
    """

    kind: str = "abstract"

    @abstractmethod
    def unit_value(self, u: np.ndarray) -> float:
        """Cost of a unit direction."""

    def values_on(self, dirs: np.ndarray) -> np.ndarray:
        """Vectorized cost of an array of unit directions."""
        return np.array([self.unit_value(d) for d in np.asarray(dirs, dtype=float)])

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ValueError("expected a planar vector")
        n = float(np.linalg.norm(x))
        if n == 0.0:
            return 0.0
        return n * self.unit_value(x / n)

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

    def to_spec(self) -> dict:
        raise NotImplementedError(f"{self.kind} costs have no file representation")


class PNorm(Integrand):
    """F(x) = ||x||_p for p >= 1 (math.inf allowed). Convex."""

    kind = "pnorm"

    def __init__(self, p: float) -> None:
        if not (p >= 1.0):
            raise ValueError("p-norm exponent must satisfy p >= 1")
        self.p = float(p)

    def unit_value(self, u) -> float:
        return float(self._norm(np.asarray(u, dtype=float)[None, :])[0])

    def values_on(self, dirs) -> np.ndarray:
        return self._norm(np.asarray(dirs, dtype=float))

    def _norm(self, x: np.ndarray) -> np.ndarray:
        a = np.abs(x)
        if math.isinf(self.p):
            return a.max(axis=1)
        if self.p == 1.0:
            return a.sum(axis=1)
        return (a ** self.p).sum(axis=1) ** (1.0 / self.p)

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
        v = np.asarray(v, dtype=float)
        n = self._norm(v[None, :])[0]
        if n == 0.0:
            return None
        # Gradient of the p-norm; Euler's relation gives <v, grad> = F(v).
        return np.sign(v) * np.abs(v) ** (self.p - 1.0) / n ** (self.p - 1.0)

    def to_spec(self) -> dict:
        return {"kind": "pnorm", "dimension": 2, "p": self.p}


class Constant(Integrand):
    """F(x) = c * |x| for a constant c > 0 (isotropic). Convex."""

    kind = "constant"

    def __init__(self, value: float = 1.0) -> None:
        self.value = float(_positive(value, "constant cost"))

    def unit_value(self, u) -> float:
        return self.value

    def values_on(self, dirs) -> np.ndarray:
        return np.full(len(dirs), self.value)

    @property
    def is_convex(self) -> bool:
        return True

    def contact_point(self, v) -> np.ndarray | None:
        return self.value * unit(v)

    def to_spec(self) -> dict:
        return {"kind": "constant", "dimension": 2, "c": self.value}


class Crystalline(Integrand):
    """F(x) = max_i w_i * <x, u_i> over a finite facet list. Convex.

    The scaled directions ``w_i * u_i`` must positively span the space,
    otherwise F would vanish somewhere; construction rejects such lists.
    """

    kind = "crystalline"

    def __init__(self, facets) -> None:
        scaled = []
        for direction, weight in facets:
            weight = float(_positive(weight, "facet weights"))
            scaled.append(weight * unit(np.asarray(direction, dtype=float)))
        self.generators = np.array(scaled)
        if len(scaled) < 3 or self.generators.shape[1:] != (2,):
            raise ValueError("need at least 3 planar facets")
        ang = np.sort(np.mod(np.arctan2(self.generators[:, 1], self.generators[:, 0]), TWO_PI))
        gaps = np.diff(np.append(ang, ang[0] + TWO_PI))
        if gaps.max() >= math.pi - 1e-9:
            raise ValueError("facet directions leave an angular gap >= pi; cost not positive")

    def unit_value(self, u) -> float:
        return float((self.generators @ np.asarray(u, dtype=float)).max())

    def values_on(self, dirs) -> np.ndarray:
        return (np.asarray(dirs, dtype=float) @ self.generators.T).max(axis=1)

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

    def to_spec(self) -> dict:
        return {
            "kind": "crystalline",
            "dimension": 2,
            "facets": [
                {"direction": list(unit(g)), "weight": float(np.linalg.norm(g))}
                for g in self.generators
            ],
        }


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

    def unit_value(self, u) -> float:
        return float(np.interp(angle_of(u), self.sample_angles, self.sample_values, period=TWO_PI))

    def values_on(self, dirs) -> np.ndarray:
        dirs = np.asarray(dirs, dtype=float)
        theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI)
        return np.interp(theta, self.sample_angles, self.sample_values, period=TWO_PI)

    @property
    def special_directions(self) -> np.ndarray:
        return np.column_stack([np.cos(self.sample_angles), np.sin(self.sample_angles)])

    def to_spec(self) -> dict:
        return {
            "kind": "table",
            "dimension": 2,
            "interpolation": "linear",
            "samples": [
                {"angle": float(a), "value": float(v)}
                for a, v in zip(self.sample_angles, self.sample_values)
            ],
        }


class Dip(Integrand):
    """A base cost lowered at finitely many directions (zero angular width).

    The pointwise minimum with a downward spike is the canonical lower
    semicontinuous non-convex family; an upward spike would not be lower
    semicontinuous and is rejected (dip values must not exceed the base).
    """

    kind = "dip"

    def __init__(self, base: Integrand, dips) -> None:
        self.base = base
        cleaned = []
        for direction, value in dips:
            d = unit(np.asarray(direction, dtype=float))
            value = float(_positive(value, "dip values"))
            if value > base.unit_value(d) + 1e-12:
                raise ValueError("dip value exceeds the base cost; not a dip")
            cleaned.append((d, value))
        if not cleaned:
            raise ValueError("dip cost requires at least one dip")
        self.dips = cleaned

    def unit_value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        val = self.base.unit_value(u)
        for d, dip_value in self.dips:
            if np.linalg.norm(u - d) <= DIRECTION_MATCH_TOL:
                val = min(val, dip_value)
        return val

    def values_on(self, dirs) -> np.ndarray:
        dirs = np.asarray(dirs, dtype=float)
        vals = self.base.values_on(dirs)
        for d, dip_value in self.dips:
            hit = np.linalg.norm(dirs - d, axis=1) <= DIRECTION_MATCH_TOL
            vals[hit] = np.minimum(vals[hit], dip_value)
        return vals

    @property
    def special_directions(self) -> np.ndarray:
        own = np.array([d for d, _ in self.dips])
        base = self.base.special_directions
        return np.vstack([base, own]) if base.size else own

    def to_spec(self) -> dict:
        return {
            "kind": "dip",
            "dimension": 2,
            "base": self.base.to_spec(),
            "dips": [{"direction": list(d), "value": v} for d, v in self.dips],
        }


def scan_directions(F: Integrand, grid: SphereGrid) -> np.ndarray:
    """Grid directions plus the cost's special directions (normalized)."""
    sp = np.asarray(F.special_directions, dtype=float)
    if sp.size == 0:
        return grid.directions
    sp = sp / np.linalg.norm(sp, axis=1)[:, None]
    return np.vstack([grid.directions, sp])


def wulff_transform(F: Integrand, grid: SphereGrid) -> GridFunction:
    """W(F)(v) = min over directions w with <v, w> > 0 of F(w) / <v, w>.

    The scan covers the grid plus F's special directions, so flat facets
    and dips are seen exactly. W(F) <= F holds at every grid direction
    because w = v is always a candidate.
    """
    dirs = scan_directions(F, grid)
    vals = F.values_on(dirs)
    if np.any(vals <= 0.0):
        raise ValueError("cost is not positive on the scan directions")
    dots = grid.directions @ dirs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dots > 1e-12, vals[None, :] / dots, np.inf)
    return GridFunction(grid, ratios.min(axis=1))


def support_transform(G: GridFunction, grid: SphereGrid | None = None) -> GridFunction:
    """A(G)(v) = max over grid directions w of G(w) * <v, w>.

    This is the support function of the hypograph of G sampled on the
    grid; A(G) >= G holds at every shared direction (w = v is a candidate).
    """
    if np.any(G.values <= 0.0):
        raise ValueError("support transform requires positive samples")
    grid = grid or G.grid
    dots = grid.directions @ G.grid.directions.T
    return GridFunction(grid, (dots * G.values[None, :]).max(axis=1))


def convex_envelope(F: Integrand, grid: SphereGrid) -> GridFunction:
    """D(F) = A(W(F)): the (grid-sampled) largest convex minorant of F."""
    return support_transform(wulff_transform(F, grid))
