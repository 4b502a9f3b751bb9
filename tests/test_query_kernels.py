"""The query path against the code it replaced.

Each ``*_reference`` below is an earlier implementation of a kernel, kept
here as the specification its rewrite must reproduce: bit for bit for the
costs, whose one evaluation path is ``values_on``, and with the same
labels, verdicts, certified flags and contact points for the geodesic
checks.
"""

import functools
import itertools
import math
import re
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisogeo import (
    AngularTable,
    Constant,
    Crystalline,
    CrystalContext,
    Dip,
    GeodesicClass,
    Integrand,
    Path,
    PNorm,
    SphereGrid,
    classify,
    construct_geodesic,
    contact_face,
    decompose_direction,
    geodesic_ball,
    geodesic_family,
    is_geodesic,
    path_length,
    planar,
)
from anisogeo.crystal import ConvexRegion, displacement
from anisogeo.geodesics import DirectionDecomposition, geodesic_legs
from anisogeo.integrand import (
    DIRECTION_MATCH_TOL,
    TWO_PI,
    GridFunction,
    interp_periodic,
    periodic_samples,
    unit,
)

BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)


# --- references: the replaced scalar bodies ----------------------------------


def vertex_scores(region, v) -> np.ndarray:
    """<vertex, v> for every vertex of the region, as ``x * a + y * b``: the
    crystal support's one formula, over all vertices."""
    a, b = np.asarray(v, dtype=float).tolist()
    return region.vertices[:, 0] * a + region.vertices[:, 1] * b


def table_values_on_reference(F: AngularTable, dirs) -> np.ndarray:
    dirs = np.asarray(dirs, dtype=float)
    theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI)
    return np.interp(theta, F.sample_angles, F.sample_values, period=TWO_PI)


def grid_values_on_reference(G: GridFunction, dirs) -> np.ndarray:
    dirs = np.asarray(dirs, dtype=float)
    theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI)
    return np.interp(theta, G.grid.angles, G.values, period=TWO_PI)


def call_reference(values_on, x) -> float:
    """The earlier ``Integrand.__call__`` around a given batched unit-value function."""
    x = np.asarray(x, dtype=float)
    n = math.hypot(*x)
    if n == 0.0:
        return 0.0
    return n * float(values_on((x / n)[None, :])[0])


def pnorm_unit_value_reference(F: PNorm, u) -> float:
    return float(F._norm(np.asarray(u, dtype=float)[None, :])[0])


def dip_unit_value_reference(F: Dip, u, base_reference) -> float:
    u = np.asarray(u, dtype=float)
    val = base_reference(F.base, u)
    for d, dip_value in F.dips:
        if np.linalg.norm(u - d) <= DIRECTION_MATCH_TOL:
            val = min(val, dip_value)
    return val


def is_orthogonal_direction_reference(ctx: CrystalContext, v, tol=None) -> bool:
    """A polar point within tol of v / norm(v). On table and dip costs F(v)
    below the crystal's support h(v) beyond a relative 1e-12 answers True
    and above it False; only F(v) = h(v) up to rounding takes the polar rule."""
    if tol is None:
        tol = ctx.resolution
    v = np.asarray(v, dtype=float)
    n = ctx.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    scores = vertex_scores(ctx.crystal, v)
    if not ctx.integrand.is_convex:
        f, support = ctx.integrand(v), float(scores.max())
        if f < support * (1.0 - 1e-12):
            return True
        if f > support * (1.0 + 1e-12):
            return False
    v_hat = v / n
    normals, offsets = ctx.crystal.halfspaces
    k = int(np.argmax(scores))
    cone = [k - 1, k]
    gaps = np.hypot(*(normals[cone] / offsets[cone, None] - v_hat).T)
    return bool(gaps.min() <= tol * math.hypot(*v_hat))


def contact_face_reference(region, v):
    """The contact face as a record: its vertex rows, and a representative
    in its relative interior (the vertex, or the midpoint of an edge)."""
    v = unit(v)
    scores = vertex_scores(region, v)
    top = float(scores.max())
    hit = np.flatnonzero(scores >= top - 1e-9 * max(1.0, abs(top)))
    if len(hit) == 1:
        point = region.vertices[hit[0]]
        return point[None, :], point
    along = region.vertices[hit, 1] * v[0] - region.vertices[hit, 0] * v[1]
    a = region.vertices[hit[np.argmin(along)]]
    b = region.vertices[hit[np.argmax(along)]]
    return np.vstack([a, b]), 0.5 * (a + b)


def is_geodesic_reference(ctx: CrystalContext, path: Path, tol=None):
    """The per-segment certificate: three scalar F calls per segment and
    a second contact-face search. Returns (verdict, (contact_ok,
    support_ok) per segment, contact point)."""
    if tol is None:
        tol = ctx.default_tol
    v = path.end - path.start
    segments = np.diff(path.points, axis=0)
    achieved = float(sum(ctx.integrand(seg) for seg in segments))
    target = ctx.norm(v)
    verdict = abs(achieved - target) <= tol * target
    speeds = np.hypot(segments[:, 0], segments[:, 1])
    unit_tol = tol * target / float(speeds.sum())
    seg_dirs = [seg / math.hypot(*seg) for seg in segments]
    seg_norms = [ctx.norm(d) for d in seg_dirs]
    contact_flags = [ctx.integrand(d) - nd <= unit_tol for d, nd in zip(seg_dirs, seg_norms)]
    vertices, representative = contact_face_reference(ctx.crystal, v)
    candidates = list(vertices) + ([representative] if len(vertices) == 2 else [])
    exact = ctx.integrand.contact_point(v)
    candidates += [] if exact is None else [exact]
    best_flags, best_point, best_score = None, None, -1
    for xbar in candidates:
        flags = [(c_ok, abs(float(d[0] * xbar[0] + d[1] * xbar[1]) - nd) <= unit_tol)
                 for d, nd, c_ok in zip(seg_dirs, seg_norms, contact_flags)]
        score = sum(c_ok and s_ok for c_ok, s_ok in flags)
        if score > best_score:
            best_flags, best_point, best_score = flags, xbar, score
        if score == len(flags):
            break
    return verdict, best_flags, best_point


def norm_reference(ctx: CrystalContext, v) -> float:
    """The norm before contact records: its own F call and support scan."""
    f = ctx.integrand(v)
    if ctx.integrand.is_convex or f == 0.0:
        return f
    return min(f, float(vertex_scores(ctx.crystal, v).max()))


def unique_reference(ctx: CrystalContext, v) -> bool:
    """``is_orthogonal_direction`` before contact records: its own F call,
    argmax and polar points n_j / h_j. Table and dip costs first compare F(v)
    with the support h(v): beyond a relative 1e-12 below it the straight
    segment is cheaper, above it the staircase."""
    tol = ctx.resolution
    v = np.asarray(v, dtype=float)
    f = ctx.integrand(v)
    if f == 0.0:
        raise ValueError("zero vector has no direction")
    scores = vertex_scores(ctx.crystal, v)
    k = int(np.argmax(scores))
    n = f
    if not ctx.integrand.is_convex:
        support = float(scores[k])
        if f < support * (1.0 - 1e-12):
            return True
        if f > support * (1.0 + 1e-12):
            return False
        n = min(f, support)
    a, b = v.tolist()
    a, b = a / n, b / n
    normals, offsets = ctx.crystal.halfspaces
    gap = math.inf
    for j in (k - 1, k):
        (na, nb), h = normals[j].tolist(), float(offsets[j])
        gap = min(gap, math.hypot(na / h - a, nb / h - b))
    return gap <= tol * math.hypot(a, b)


def geodesic_legs_reference(ctx: CrystalContext, v):
    """``geodesic_legs`` with its own argmax over the crystal vertices."""
    v = np.asarray(v, dtype=float)
    normals = ctx.crystal.normals
    k = int(np.argmax(vertex_scores(ctx.crystal, v)))
    (a0, a1), (b0, b1), (v0, v1) = normals[k - 1].tolist(), normals[k].tolist(), v.tolist()
    det = a0 * b1 - a1 * b0
    alpha = (v0 * b1 - v1 * b0) / det
    beta = (a0 * v1 - a1 * v0) / det
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("direction is extreme: no staircase decomposition exists")
    u0, u1 = alpha * a0, alpha * a1
    return np.array((u0, u1)), np.array((v0 - u0, v1 - u1))


def construct_geodesic_reference(ctx: CrystalContext, x, y) -> Path:
    """``construct_geodesic`` by a classification, then a legs search."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v = y - x
    if math.hypot(*v.tolist()) == 0.0:
        raise ValueError("geodesic construction requires distinct endpoints")
    if unique_reference(ctx, v):
        return Path(np.array([x, y]))
    return Path(np.array([x, x + geodesic_legs_reference(ctx, v)[0], y]))


def geodesic_family_reference(ctx: CrystalContext, x, y, tau: float) -> Path:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v = y - x
    if math.hypot(*v.tolist()) == 0.0:
        raise ValueError("family requires distinct endpoints")
    if unique_reference(ctx, v):
        raise ValueError("direction is an attained normal: geodesic is unique, no family")
    u, w = geodesic_legs_reference(ctx, v)
    if tau == 1.0:
        return Path(np.array([x, x + u, y]))
    points = [x]
    for p in [x + tau * u, x + tau * u + w]:
        if (p != points[-1]).any() and (p != y).any():
            points.append(p)
    return Path(np.array([*points, y]))


def decompose_direction_reference(ctx: CrystalContext, v) -> DirectionDecomposition:
    v = np.asarray(v, dtype=float)
    n = norm_reference(ctx, v)
    if n == 0.0:
        raise ValueError("cannot decompose the zero vector")
    v_hat = v / n
    if unique_reference(ctx, v):
        return DirectionDecomposition((1.0,), v_hat[None, :])
    body = ctx.polar_body
    face = int(np.argmax(body.normals @ v_hat / body.offsets))
    a = body.vertices[face]
    b = body.vertices[(face + 1) % len(body.vertices)]
    ca = float(a[0] * v_hat[1] - a[1] * v_hat[0])
    cb = float(b[0] * v_hat[1] - b[1] * v_hat[0])
    s = ca / (ca - cb) if ca - cb > 0.0 else math.nan
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise RuntimeError("direction lies on no polar-body face; geometry inconsistent")
    if s <= 1e-12:
        return DirectionDecomposition((1.0,), a[None, :] / norm_reference(ctx, a))
    if s >= 1.0 - 1e-12:
        return DirectionDecomposition((1.0,), b[None, :] / norm_reference(ctx, b))
    return DirectionDecomposition((1.0 - s, s), np.vstack([a, b]))


def path_checks_reference(points):
    """``Path``'s checks before the fast test: the finite check, then the
    differences and the degenerate check. Returns (segments, speeds)."""
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise ValueError(f"path breakpoint {bad + 1} is not finite: {pts[bad].tolist()}")
    seg = pts[1:] - pts[:-1]
    speeds = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(speeds == 0.0):
        raise ValueError("degenerate segment: consecutive breakpoints coincide")
    return seg, speeds


def pnorm_rows_reference(F: PNorm, x: np.ndarray) -> np.ndarray:
    """``PNorm._norm`` by axis-1 reductions."""
    a = np.abs(x)
    if math.isinf(F.p):
        return a.max(axis=1)
    if F.p == 1.0:
        return a.sum(axis=1)
    return (a ** F.p).sum(axis=1) ** (1.0 / F.p)


# --- costs -------------------------------------------------------------------


def _random_table(rng, samples=None) -> AngularTable:
    n = samples or int(rng.integers(3, 40))
    angles = np.sort(rng.uniform(0.0, TWO_PI, n))
    while np.any(np.diff(angles) <= 0.0):
        angles = np.sort(rng.uniform(0.0, TWO_PI, n))
    if rng.random() < 0.3:
        angles[0] = 0.0
    return AngularTable(angles, rng.uniform(0.2, 3.0, n))


def _directions(rng, count: int, extra_angles=()) -> np.ndarray:
    """Random unit directions plus the given angles, 0, and the float just
    below 2*pi, each also as the exact axis vector where there is one."""
    angles = np.concatenate([rng.uniform(0.0, TWO_PI, count), extra_angles, [0.0, BELOW_TWO_PI]])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -0.0]])
    return np.vstack([dirs, axes])


README_COSTS = {
    "pnorm": lambda: PNorm(1.0),
    "constant": lambda: Constant(1.0),
    "crystalline": lambda: Crystalline([((1, 1), 1.41), ((-1, 1), 1.0), ((0, -1), 0.8)]),
    "table": lambda: AngularTable([0.0, 2.0, 4.0], [1.0, 1.4, 1.1]),
    "dip": lambda: Dip(Constant(1.0), [((1, 0), 0.5)]),
}


# --- periodic interpolation --------------------------------------------------


class TestPeriodicInterpolation:
    def test_matches_np_interp_with_period(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            table = _random_table(rng)
            samples = periodic_samples(table.sample_angles, table.sample_values)
            theta = np.concatenate([
                rng.uniform(0.0, TWO_PI, 1000),
                table.sample_angles,
                [0.0, -0.0, BELOW_TWO_PI, TWO_PI, -1e-300, 7.0, -3.0],
            ])
            want = np.interp(theta, table.sample_angles, table.sample_values, period=TWO_PI)
            np.testing.assert_array_equal(interp_periodic(theta, samples), want)
            for t in theta[-12:].tolist():
                assert float(interp_periodic(t, samples)) == float(
                    np.interp(t, table.sample_angles, table.sample_values, period=TWO_PI)
                ), t

    def test_unsorted_samples_are_sorted_once(self):
        # Grid angles wrap: a grid whose last direction rounds to angle 2*pi
        # sorts it first, as np.interp does.
        angles = np.array([0.5, 2.0, TWO_PI, 4.0])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        samples = periodic_samples(angles, values)
        theta = np.linspace(-1.0, 7.0, 101)
        np.testing.assert_array_equal(
            interp_periodic(theta, samples), np.interp(theta, angles, values, period=TWO_PI)
        )


# --- scalar costs against their references -----------------------------------


class TestScalarCosts:
    def test_table_is_bit_identical(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            F = _random_table(rng)
            dirs = _directions(rng, 200, F.sample_angles)
            np.testing.assert_array_equal(F.values_on(dirs), table_values_on_reference(F, dirs))
            for d in dirs:
                x = d * rng.uniform(0.1, 10.0)
                assert F(x) == call_reference(lambda u: table_values_on_reference(F, u), x)

    def test_scalar_agrees_with_values_on(self):
        # F(x) is values_on of x's direction times |x|, and values_on gives a
        # row in a batch what it gives the row alone, so the scalar and
        # batched paths agree bit for bit. Crystalline costs are the one
        # exception to the second half: BLAS picks its dot-product kernel by
        # the batch's shape, so a batch may round a row differently.
        rng = np.random.default_rng(22)
        dips = [(np.array([math.cos(a), math.sin(a)]), 0.4) for a in (0.0, 1.0, 4.5)]
        crystalline = README_COSTS["crystalline"]()
        costs = [Constant(2.5), Dip(Constant(1.0), dips), PNorm(1.5), PNorm(3.0), crystalline]
        for F in costs + [_random_table(rng) for _ in range(50)]:
            extra = F.sample_angles if isinstance(F, AngularTable) else [0.0, 1.0, 4.5]
            dirs = _directions(rng, 500, extra)
            lengths = [math.hypot(*d) for d in dirs.tolist()]
            units = dirs / np.array(lengths)[:, None]
            rows = [F.values_on(u[None, :])[0] for u in units]
            assert [F(d) for d in dirs] == [n * value for n, value in zip(lengths, rows)]
            if F is not crystalline:
                assert F.values_on(units).tolist() == rows

    def test_grid_function_is_bit_identical(self):
        rng = np.random.default_rng(23)
        for count in (8, 60, 720):
            grid = SphereGrid.planar(count)
            G = GridFunction(grid, rng.uniform(0.5, 2.0, count))
            dirs = _directions(rng, 300, grid.angles[:: max(1, count // 30)])
            np.testing.assert_array_equal(G.values_on(dirs), grid_values_on_reference(G, dirs))
            for d in dirs:
                x = d * rng.uniform(0.1, 10.0)
                assert G(x) == call_reference(lambda u: grid_values_on_reference(G, u), x)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.25, math.inf])
    def test_pnorm_within_two_ulp(self, p):
        # Within no ulp: a batch gives each row the bits of the row alone.
        rng = np.random.default_rng(24)
        F = PNorm(p)
        dirs = _directions(rng, 2000)
        assert F.values_on(dirs).tolist() == [pnorm_unit_value_reference(F, d) for d in dirs]

    def test_dip_is_bit_identical(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            table = _random_table(rng, 12)
            dip_angles = rng.uniform(0.0, TWO_PI, 3)
            dips = [((math.cos(a), math.sin(a)), 0.1) for a in dip_angles]
            for base, base_reference in (
                (table, lambda F, u: float(table_values_on_reference(F, u[None, :])[0])),
                (Constant(1.3), lambda F, u: F.value),
            ):
                F = Dip(base, dips)
                dip_dirs = np.array([d for d, _ in F.dips])
                # Directions on a dip, and just off it at the match tolerance.
                near = np.vstack([dip_dirs, dip_dirs + 0.9e-12, dip_dirs + 2e-12])
                dirs = np.vstack([_directions(rng, 100, dip_angles), near])
                want = [dip_unit_value_reference(F, d, base_reference) for d in dirs]
                assert F.values_on(dirs).tolist() == want
                assert F(2.0 * dip_dirs[0]) == 2.0 * F.dips[0][1]

    def test_crystalline_scalar_is_unchanged(self):
        # The largest of the generators' elementwise products with the
        # direction's row, whatever batch the row is in.
        rng = np.random.default_rng(26)
        F = README_COSTS["crystalline"]()
        g = F.generators
        dirs = _directions(rng, 500)
        batch = F.values_on(dirs / np.hypot(dirs[:, 0], dirs[:, 1])[:, None])
        for i, d in enumerate(dirs):
            n = math.hypot(*d)
            u0, u1 = (d / n).tolist()
            row = max(float(g[j, 0] * u0 + g[j, 1] * u1) for j in range(len(g)))
            assert F(d) == n * row and batch[i] == row
            assert F(tuple(d.tolist())) == F(d)


def _costs(rng) -> list:
    """A cost of every family: p-norms, constant, crystalline, a table, grid
    functions, and dips over a constant and over that table."""
    table = _random_table(rng, 12)
    dips = [((math.cos(a), math.sin(a)), 0.1) for a in rng.uniform(0.0, TWO_PI, 3)]
    grids = [GridFunction(SphereGrid.planar(n), rng.uniform(0.5, 2.0, n)) for n in (8, 60, 720)]
    return [PNorm(p) for p in (1.0, 1.5, 3.0, 7.25, math.inf)] + [
        Constant(2.5), README_COSTS["crystalline"](), table, *grids, Dip(Constant(1.3), dips), Dip(table, dips),
    ]


def test_a_cost_is_values_on_of_its_direction_times_its_length():
    # One evaluation path: F(x) == |x| * values_on(x / |x|), bit for bit.
    rng = np.random.default_rng(27)
    for F in _costs(rng):
        xs = _displacements(rng, 500)
        if isinstance(F, Dip):  # exact hits, at mixed scales
            for d, value in F.dips:
                hits = d[None, :] * 10.0 ** rng.uniform(-3, 3, (20, 1))
                assert [F(x) for x in hits] == [math.hypot(*x) * value for x in hits]
                xs = np.vstack([xs, hits])
        for x in xs:
            n = math.hypot(*x)
            assert F(x) == n * F.values_on(x[None, :] / n)[0], (F.kind, x)


# --- scalar forms and contact points, bit for bit ----------------------------


def pnorm_contact_point_reference(F: PNorm, v):
    """``PNorm.contact_point`` before its plain-float form: numpy on a 2-element array."""
    u = unit(v)
    n = F._norm(u[None, :])[0]
    return np.sign(u) * np.abs(u) ** (F.p - 1.0) / n ** (F.p - 1.0)


def table_contact_point_reference(F: AngularTable, v):
    """``AngularTable.contact_point`` before its plain-float form."""
    u = unit(v)
    theta = float(np.mod(np.arctan2(u[1], u[0]), TWO_PI))
    angles, values = F._samples
    i = int(np.searchsorted(angles, theta, side="right"))
    if angles[i - 1] == theta:
        return None
    slope = float((values[i] - values[i - 1]) / (angles[i] - angles[i - 1]))
    f = float(interp_periodic(theta, F._samples))
    a, b = u.tolist()
    return np.array((f * a - slope * b, f * b + slope * a))


def contact_point_reference(F, v):
    """Each family's contact point as the earlier code gave it, or None."""
    if isinstance(F, PNorm):
        return None if F.p == 1.0 or math.isinf(F.p) else pnorm_contact_point_reference(F, v)
    if isinstance(F, Constant):
        return F.value * unit(v)
    if isinstance(F, AngularTable):
        return table_contact_point_reference(F, v)
    if isinstance(F, Dip):
        x = contact_point_reference(F.base, v)
        return None if x is None or (F._dip_dirs @ x > F._dip_values).any() else x
    return None


def _scalar_costs() -> dict:
    """Every family (p = 1, inf and smooth p-norms, constants, crystalline,
    tables, grid functions, dips over a constant, a p-norm and a table) and
    the five README costs."""
    rng = np.random.default_rng(31)
    table = _random_table(rng, 12)
    dips = [((math.cos(a), math.sin(a)), 0.1) for a in (0.0, 1.0, 4.5)]
    hexagon = [((math.cos(a), math.sin(a)), w) for a, w in zip(np.arange(6) * np.pi / 3, rng.uniform(0.5, 2.0, 6))]
    costs = {f"readme-{kind}": make() for kind, make in README_COSTS.items()}
    costs.update({f"pnorm-{p}": PNorm(p) for p in (1.0, 1.25, 2.0, 3.0, 7.25, 40.0, math.inf)})
    costs.update({
        "constant": Constant(0.37), "crystalline": Crystalline(hexagon), "table": table,
        "grid-60": GridFunction(SphereGrid.planar(60), rng.uniform(0.5, 2.0, 60)),
        "dip-constant": Dip(Constant(1.3), dips), "dip-pnorm": Dip(PNorm(3.0), dips), "dip-table": Dip(table, dips),
    })
    return costs


SCALAR_COSTS = _scalar_costs()
_AXES = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, -0.0), (-1.0, -0.0), (-0.0, 1.0), (-0.0, -1.0)]
_MANTISSA = st.floats(min_value=-2.0, max_value=2.0, exclude_min=True, exclude_max=True)
# Exponents across the range, with its two ends drawn as often as the rest.
_EXPONENT = st.one_of(st.integers(-1074, 1023), st.integers(-1074, -1000), st.integers(1000, 1023))


def _near_features(F) -> list[tuple[float, float]]:
    """Each dip direction of F (and of its base), with its neighbours turned by
    up to twice DIRECTION_MATCH_TOL and a few ulps off, and the direction at
    each table sample angle, with its neighbours an ulp of the angle away."""
    near = []
    while isinstance(F, Dip):
        for (a, b), _ in F.dips:
            near += [(a, b), (math.nextafter(a, 2.0), b), (a, math.nextafter(b, -2.0))]
            for turn in (2.5e-13, 5e-13, 9.9e-13, 1e-12, 1.01e-12, 2e-12):
                for t in (turn, -turn):
                    near.append((a * math.cos(t) - b * math.sin(t), a * math.sin(t) + b * math.cos(t)))
        F = F.base
    if isinstance(F, AngularTable):
        for angle in F.sample_angles.tolist():
            for t in (math.nextafter(angle, -1.0), angle, math.nextafter(angle, 7.0)):
                near.append((math.cos(t), math.sin(t)))
    return near


def _draw_vectors(data, F) -> list[tuple[float, float]]:
    """Finite nonzero vectors 2**k * v, with v random, an axis (signed zeros
    too), one of the cost's special directions, or one near a dip or a table
    sample (:func:`_near_features`)."""
    special = [tuple(d) for d in np.asarray(F.special_directions, dtype=float).tolist()] or _AXES
    special += _near_features(F)
    direction = st.one_of(st.tuples(_MANTISSA, _MANTISSA), st.sampled_from(_AXES), st.sampled_from(special))
    vectors = []
    for (a, b), k in data.draw(st.lists(st.tuples(direction, _EXPONENT), min_size=1, max_size=12)):
        w = planar.scaled(a, k), planar.scaled(b, k)
        if math.isfinite(w[0]) and math.isfinite(w[1]) and w != (0.0, 0.0):
            vectors.append(w)
    return vectors


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_a_scalar_cost_is_its_batch_row_across_the_float_range(data):
    # F(2**k * v) is values_on(unit(v)) * |v|, scaled back, with values_on
    # taken on all the example's directions at once: each family's scalar
    # form has the bits of its row in a batch.
    name = data.draw(st.sampled_from(sorted(SCALAR_COSTS)))
    F = SCALAR_COSTS[name]
    vectors = _draw_vectors(data, F)
    scaled = [planar.unit_scaled_pair(*w) for w in vectors]
    lengths = [math.hypot(a, b) for a, b, _ in scaled]
    batch = F.values_on(np.array([(a / n, b / n) for (a, b, _), n in zip(scaled, lengths)]).reshape(-1, 2)).tolist()
    for w, (_, _, e), n, row in zip(vectors, scaled, lengths, batch):
        assert F(w) == planar.scaled_positive(n * row, e), (name, w)


def test_scalar_costs_on_many_directions():
    # The property above, widened to 2,000 random directions per cost at
    # exponents across the range, and to every direction near a dip or a
    # table sample, in one batch.
    rng = np.random.default_rng(33)
    for name, F in SCALAR_COSTS.items():
        extra = F.sample_angles if isinstance(F, AngularTable) else [0.0, 1.0, 4.5]
        near = np.array(_near_features(F)).reshape(-1, 2)
        dirs = np.vstack([_directions(rng, 2000, extra), _displacements(rng, 200), near])
        vectors = np.ldexp(dirs, rng.integers(-1070, 1015, (len(dirs), 1)))  # |dirs| < 2**8
        scaled = [planar.unit_scaled_pair(*w) for w in vectors.tolist()]
        lengths = [math.hypot(a, b) for a, b, _ in scaled]
        batch = F.values_on(np.array([(a / n, b / n) for (a, b, _), n in zip(scaled, lengths)])).tolist()
        want = [planar.scaled_positive(n * row, e) for (_, _, e), n, row in zip(scaled, lengths, batch)]
        assert [F(w) for w in vectors] == want, name


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_contact_points_are_the_earlier_formulas(data):
    # Bit for bit, None where the earlier code gave None: sample angles of
    # tables, polygonal p-norms, crystalline costs and cut dip points.
    name = data.draw(st.sampled_from(sorted(SCALAR_COSTS)))
    F = SCALAR_COSTS[name]
    for w in _draw_vectors(data, F):
        got, want = F.contact_point(w), contact_point_reference(F, np.array(w))
        assert (got is None) == (want is None), (name, w)
        if got is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, w, got, want)


def test_contact_points_on_many_directions():
    # The hypothesis examples above, widened to 2,000 directions per cost.
    rng = np.random.default_rng(32)
    for name, F in SCALAR_COSTS.items():
        extra = F.sample_angles if isinstance(F, AngularTable) else [0.0, 1.0, 4.5]
        for d in np.vstack([_directions(rng, 2000, extra), _displacements(rng, 200)]):
            got, want = F.contact_point(d), contact_point_reference(F, d)
            assert (got is None) == (want is None), (name, d)
            assert got is None or got.tobytes() == want.tobytes(), (name, d)


def _path_fields(make, points) -> tuple:
    """The dtype, shape and bytes of a path's points, speeds and directions, or its refusal."""
    try:
        path = make(points)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (path.points, path.speeds, path.directions))


_SPECIAL_COORDS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
# Coordinates across the range, at unit scale (where the lengths of steps in
# both coordinates round), and special values.
_COORD = st.one_of(st.builds(planar.scaled, _MANTISSA, _EXPONENT), _MANTISSA, st.sampled_from(_SPECIAL_COORDS))


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_a_path_from_floats_is_the_path_of_their_array(data):
    # The constructions' Path._from_floats against Path of the same breakpoints as
    # an array, bit for bit and refusal for refusal: 2 to 4 breakpoints at
    # exponents from -1074 to 1023, far apart, near the float maximum,
    # non-finite, repeated, or a tiny step from the one before.
    points = data.draw(st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=4))
    j = data.draw(st.integers(1, len(points) - 1))
    step = data.draw(st.sampled_from([None, 0.0, 1e-13, 1e-12, 2e-12, 1e-300]))
    if step is not None:  # the breakpoint before, or a step of that size from it
        a, b = points[j - 1]
        points[j] = (a + step, b)
    assert _path_fields(Path._from_floats, points) == _path_fields(lambda p: Path(np.array(p)), points), points


def test_constructed_paths_are_the_paths_of_their_arrays(p3_ctx, dip_ctx):
    # Every construction's path equals Path of its breakpoints as an array, and
    # so do 5,000 random paths at unit scale, whose lengths np.hypot rounds.
    rng = np.random.default_rng(34)
    for count in rng.integers(2, 5, 5000).tolist():
        points = [tuple(p) for p in rng.normal(size=(count, 2)).tolist()]
        assert _path_fields(Path._from_floats, points) == _path_fields(lambda p: Path(np.array(p)), points)
    for ctx in (p3_ctx, dip_ctx):
        for x, y in rng.uniform(-2.0, 2.0, (200, 2, 2)):
            paths = [construct_geodesic(ctx, x, y)]
            if classify(ctx, x, y) is GeodesicClass.INFINITELY_MANY:
                paths += [geodesic_family(ctx, x, y, tau) for tau in (0.0, 0.5, 1.0)]
            for path in paths:
                points = [tuple(p) for p in path.points.tolist()]
                assert _path_fields(lambda _: path, None) == _path_fields(lambda p: Path(np.array(p)), points)


# --- refusals ----------------------------------------------------------------


class TestNonFiniteInput:
    BAD = [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (math.inf, math.nan), (1.0, 2.0, 3.0),
           (1.0,), [[1.0, 2.0]], "12"]

    @pytest.mark.parametrize("x", BAD, ids=repr)
    def test_costs_refuse(self, x):
        for F in (PNorm(3.0), Constant(1.0), README_COSTS["table"](), README_COSTS["dip"]()):
            with pytest.raises(ValueError, match="planar vector|not finite"):
                F(x)

    @pytest.mark.parametrize("x", BAD, ids=repr)
    def test_contexts_refuse(self, x, p3_ctx, dip_ctx):
        table_ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(60))
        for ctx in (p3_ctx, dip_ctx, table_ctx):
            for call in (ctx.norm, ctx.envelope, ctx.wulff, lambda v: ctx.distance((0.0, 0.0), v),
                         lambda v: ctx.distance(v, (1.0, 0.0))):
                with pytest.raises(ValueError, match="planar vector|not finite"):
                    call(x)

    def test_message_names_the_input(self, p3_ctx):
        with pytest.raises(ValueError, match=r"inf.*not finite"):
            p3_ctx.norm([math.inf, 1.0])
        with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
            p3_ctx.envelope((1, 2, 3))

    def test_zero_and_finite_vectors_still_answer(self, p3_ctx, dip_ctx):
        assert PNorm(3.0)((0.0, 0.0)) == 0.0
        assert p3_ctx.norm(np.zeros(2)) == 0.0 == dip_ctx.norm([0, 0])
        assert dip_ctx.norm([2, 0]) == pytest.approx(1.0, abs=dip_ctx.default_tol)
        assert p3_ctx.envelope([1e300, 0.0]) == pytest.approx(1e300, rel=1e-9)


# --- the geodesic checks against their references ----------------------------


def _displacements(rng, count: int) -> np.ndarray:
    """Random displacements of mixed scale, plus axis and diagonal ties."""
    v = rng.normal(size=(count, 2)) * 10.0 ** rng.uniform(-2, 2, (count, 1))
    ties = np.array([[3.0, 0.0], [0.0, 2.0], [-1.5, 0.0], [0.0, -4.0], [1.0, 1.0], [-2.0, 2.0],
                     [2.5, -2.5], [-1.0, -1.0], [1e-3, 0.0], [0.0, 1e3]])
    return np.vstack([v, ties])


@pytest.mark.parametrize("grid_size", [60, 720, 2880])
@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_query_checks_match_the_references(kind, grid_size):
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(grid_size))
    rng = np.random.default_rng([grid_size, len(kind)])
    for i, v in enumerate(_displacements(rng, 2000)):
        assert ctx.is_orthogonal_direction(v) == is_orthogonal_direction_reference(ctx, v), v
        x = rng.uniform(-2.0, 2.0, 2)
        path = construct_geodesic(ctx, x, x + v)
        if i % 3 == 0:  # a detour that is not a geodesic
            bend = 0.3 * np.array([-v[1], v[0]])
            path = Path(np.array([x, x + 0.5 * v + bend, x + v]))
        cert = is_geodesic(ctx, path)
        verdict, flags, point = is_geodesic_reference(ctx, path)
        assert cert.verdict == verdict, v
        assert cert.contact_ok.tolist() == [c_ok for c_ok, _ in flags], v
        assert cert.support_ok.tolist() == [s_ok for _, s_ok in flags], v
        assert cert.certified is all(c_ok and s_ok for c_ok, s_ok in flags), v
        np.testing.assert_array_equal(cert.contact_point, point)


@pytest.mark.parametrize("kind", ["table", "dip"])
def test_dense_sampled_certificates_match_the_reference(kind):
    # Every segment's sampled norm min(F, h) on 2,000 segments: a geodesic
    # cut into collinear pieces, and a bent path that is not a geodesic.
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
    x, v = np.array([0.1, -0.3]), np.array([0.8, 0.5])
    breakpoints = construct_geodesic(ctx, x, x + v).points
    per_leg = 2000 // (len(breakpoints) - 1)
    t = np.linspace(0.0, 1.0, per_leg + 1)[1:, None]
    cut = [breakpoints[:1]] + [p + t * (q - p) for p, q in zip(breakpoints, breakpoints[1:])]
    s = np.linspace(0.0, 1.0, 2001)[:, None]
    bent = x + s * v + s * (1.0 - s) * np.array([-v[1], v[0]])
    for points, geodesic in ((np.vstack(cut), True), (bent, False)):
        path = Path(points)
        assert len(path.directions) == 2000
        cert = is_geodesic(ctx, path)
        verdict, flags, point = is_geodesic_reference(ctx, path)
        assert cert.verdict is verdict is geodesic
        assert cert.contact_ok.tolist() == [c_ok for c_ok, _ in flags]
        assert cert.support_ok.tolist() == [s_ok for _, s_ok in flags]
        np.testing.assert_array_equal(cert.contact_point, point)


# --- cost of a dense certificate ---------------------------------------------


def _count_scalar_calls(monkeypatch, fn) -> int:
    calls = []
    plain = Integrand.__call__

    def counted(self, x):
        calls.append(1)
        return plain(self, x)

    with monkeypatch.context() as patch:
        patch.setattr(Integrand, "__call__", counted)
        fn()
    return len(calls)


def test_dense_certificate_makes_no_per_segment_scalar_calls(monkeypatch):
    def parabola(n):
        t = np.linspace(0.0, 1.0, n)
        return Path(np.column_stack([t, t * t]))

    # The parabolas share one displacement, so each gets a fresh context:
    # a context's record of that displacement would spare the later ones
    # its F call, and each count is the calls of one path of n segments.
    counts = []
    for n in (10, 100, 10_000):
        path = parabola(n)
        ctx = CrystalContext(PNorm(3.0), SphereGrid.planar(720))
        counts.append(_count_scalar_calls(monkeypatch, lambda: is_geodesic(ctx, path)))
    assert counts[0] == counts[1] == counts[2], counts
    assert counts[0] <= 2


def test_a_dense_certificate_is_three_arrays():
    t = np.linspace(0.0, 1.0, 10_001)
    path = Path(np.column_stack([t, t * t]))
    ctx = CrystalContext(PNorm(3.0), SphereGrid.planar(720))
    cert = is_geodesic(ctx, path)
    for flags in (cert.contact_ok, cert.support_ok):
        assert flags.dtype == bool and flags.shape == (10_000,)
    np.testing.assert_array_equal(cert.directions, path.directions)
    rows = []
    for i in range(10_000):
        rows.append({"direction": list(path.directions[i]), "contact_ok": bool(cert.contact_ok[i]),
                     "support_ok": bool(cert.support_ok[i])})
    assert cert.as_dict()["segments"] == rows
    assert cert.certified is bool(cert.contact_ok.all() and cert.support_ok.all())


@pytest.mark.parametrize("kind", ["pnorm", "constant", "crystalline"])
def test_a_convex_query_evaluates_the_cost_once(kind, monkeypatch):
    # Every query on one displacement reads its one record, and a convex
    # norm is read from it too: one scalar F call, where norm's own closed
    # form made it two.
    for v in ((1.1, 1.1), (2.0, -0.5), (0.0, 3.0)):
        ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
        x = np.array([0.3, -0.2])
        y = x + v

        def queries():
            ctx.distance(x, y)
            label = classify(ctx, x, y)
            is_geodesic(ctx, construct_geodesic(ctx, x, y))
            if label is GeodesicClass.INFINITELY_MANY:
                geodesic_family(ctx, x, y, 0.5)

        assert _count_scalar_calls(monkeypatch, queries) == 1, (kind, v)


def test_path_length_sums_in_segment_order(p3_ctx):
    rng = np.random.default_rng(31)
    path = Path(np.cumsum(rng.normal(size=(500, 2)), axis=0))
    F = p3_ctx.integrand
    want = 0.0
    for cost in (F.values_on(path.directions) * path.speeds).tolist():
        want += cost

    assert path_length(F, path) == want
    assert path_length(F, path) == pytest.approx(sum(F(s) for s in np.diff(path.points, axis=0)), rel=1e-14)


# --- one contact record per displacement -----------------------------------


def _bits(answer):
    """An answer as exact bits: arrays by their bytes, refusals by message."""
    if isinstance(answer, Path):
        return ("path", answer.points.tobytes())
    if isinstance(answer, DirectionDecomposition):
        return ("decomposition", answer.weights, answer.directions.tobytes())
    if isinstance(answer, tuple):
        return tuple(_bits(a) for a in answer)
    if isinstance(answer, np.ndarray):
        return answer.tobytes()
    return repr(answer)


def _answer(fn, *args):
    try:
        return _bits(fn(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


def _certificate(ctx, path):
    cert = is_geodesic(ctx, path)
    flags = list(zip(cert.contact_ok.tolist(), cert.support_ok.tolist()))
    return cert.verdict, cert.target_norm, flags, cert.contact_point


def _certificate_reference(ctx, path):
    verdict, flags, point = is_geodesic_reference(ctx, path)
    return verdict, norm_reference(ctx, path.end - path.start), flags, point


# Each query: the code under test and its reference, on endpoints x, y.
QUERIES = {
    "norm": (lambda c, x, y: c.norm(y - x), lambda c, x, y: norm_reference(c, y - x)),
    "distance": (lambda c, x, y: c.distance(x, y), lambda c, x, y: norm_reference(c, y - x)),
    "orthogonal": (lambda c, x, y: c.is_orthogonal_direction(y - x),
                   lambda c, x, y: unique_reference(c, y - x)),
    "classify": (lambda c, x, y: classify(c, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM,
                 lambda c, x, y: unique_reference(c, y - x)),
    "legs": (lambda c, x, y: geodesic_legs(c, y - x), lambda c, x, y: geodesic_legs_reference(c, y - x)),
    "decompose": (lambda c, x, y: decompose_direction(c, y - x),
                  lambda c, x, y: decompose_direction_reference(c, y - x)),
    "construct": (construct_geodesic, construct_geodesic_reference),
    "family": (lambda c, x, y: geodesic_family(c, x, y, 0.5),
               lambda c, x, y: geodesic_family_reference(c, x, y, 0.5)),
    "certificate": (lambda c, x, y: _certificate(c, construct_geodesic(c, x, y)),
                    lambda c, x, y: _certificate_reference(c, construct_geodesic_reference(c, x, y))),
}


def _pair_of_labels(ctx, rng):
    """Two endpoint pairs whose displacements get different labels where
    the context has both, else two random pairs."""
    pairs = [(rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)) for _ in range(200)]
    labels = [unique_reference(ctx, y - x) for x, y in pairs]
    if all(labels) or not any(labels):
        return pairs[:2]
    return pairs[labels.index(True)], pairs[labels.index(False)]


@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_interleaved_queries_match_the_references(kind):
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(60))
    first, second = _pair_of_labels(ctx, np.random.default_rng(len(kind)))
    want = {(name, i): _answer(ref, ctx, *pair)
            for name, (_, ref) in QUERIES.items() for i, pair in enumerate((first, second))}
    # Every ordered pair of queries, on the two displacements in turn, in
    # both orders: each answer reads whatever record the previous call left.
    for (a, b), order in itertools.product(itertools.product(QUERIES, repeat=2), ((0, 1), (1, 0))):
        i, j = order
        for name, which in ((a, i), (b, j), (b, i), (a, j), (a, i), (a, i)):
            pair = (first, second)[which]
            assert _answer(QUERIES[name][0], ctx, *pair) == want[name, which], (name, which, kind)


def test_threads_sharing_a_context_answer_as_serial_calls():
    # More threads than cores, switching as often as the interpreter allows:
    # each thread's queries must read its own displacement's record.
    ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(720))
    rng = np.random.default_rng(41)
    work = [[(rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)) for _ in range(60)] for _ in range(4)]

    def answers(pairs):
        names = ("distance", "classify", "construct", "family", "certificate")
        return [[_answer(QUERIES[name][0], ctx, x, y) for name in names] for x, y in pairs]

    serial = [answers(pairs) for pairs in work]
    got = [None] * len(work)
    start = threading.Barrier(len(work))

    def run(t):
        start.wait()
        got[t] = answers(work[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial


@pytest.mark.parametrize("grid_size", [60, 720])
@pytest.mark.parametrize("make", [lambda: PNorm(1.0), lambda: PNorm(math.inf), README_COSTS["crystalline"],
                                  README_COSTS["table"], README_COSTS["dip"]], ids=["l1", "max", "crystalline", "table", "dip"])
def test_decomposition_reads_the_contact_vertex(make, grid_size):
    # The polar-body face the ray through v crosses is the one dual to v's
    # contact vertex k, from polar vertex k - 1 to polar vertex k: the gauge
    # argmax over every face picks it too.
    ctx = CrystalContext(make(), SphereGrid.planar(grid_size))
    rng = np.random.default_rng(grid_size)
    body = ctx.polar_body
    split = 0
    for v in _displacements(rng, 500):
        assert _answer(decompose_direction, ctx, v) == _answer(decompose_direction_reference, ctx, v), v
        if not unique_reference(ctx, v):
            split += 1
            face = int(np.argmax(body.normals @ (v / norm_reference(ctx, v)) / body.offsets))
            assert face == (ctx._contact(v).k - 1) % len(body.vertices), v
    assert split > 0


def test_record_fields_match_the_references():
    rng = np.random.default_rng(42)
    for kind, make in sorted(README_COSTS.items()):
        ctx = CrystalContext(make(), SphereGrid.planar(60))
        for v in _displacements(rng, 200):
            record = ctx._contact(v)
            assert record.key == struct.pack("2d", *v.tolist())
            assert record.k == int(np.argmax(vertex_scores(ctx.crystal, v)))
            assert record.norm == norm_reference(ctx, v)
            assert record.unique == unique_reference(ctx, v)
            assert _answer(record.staircase) == _answer(geodesic_legs_reference, ctx, v), (kind, v)


def test_signed_zeros_do_not_share_a_record():
    ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(60))
    for v, w in (((0.0, 1.0), (-0.0, 1.0)), ((-2.0, 0.0), (-2.0, -0.0))):
        first = ctx._contact(v)
        second = ctx._contact(w)
        assert second is not first
        assert first.key == struct.pack("2d", *v) and second.key == struct.pack("2d", *w)
        assert ctx._contact(w) is second  # the same bits do share it
        for u in (v, w):
            assert ctx.norm(u) == norm_reference(ctx, u)
            assert ctx.is_orthogonal_direction(u) == unique_reference(ctx, u)


NEAR_FLOAT_MAX = [(1.7e308, 1.7e308), (-1.7e308, 1.0e308), (1.7e308, 0.0), (-0.5e308, -1.7e308),
                  (1.0e308, -1.79e308), (1.7e308, 1e-300)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_displacements_near_the_float_maximum(kind):
    # The record analyses v scaled by a power of two, so no product
    # overflows: a norm is 2**600 times the norm of v / 2**600 (inf past
    # the float range), and a label is the label of v / 2**600.
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
    origin = (0.0, 0.0)
    for v in NEAR_FLOAT_MAX:
        small = np.ldexp(v, -600)
        assert ctx.norm(v) == ctx.norm(small) * 2.0**600, v
        assert classify(ctx, origin, v) == classify(ctx, origin, small), v
    assert [ctx.norm(v) == math.inf for v in NEAR_FLOAT_MAX[:2]] == [True, True]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["pnorm3", "table", "dip"])
def test_in_contact_on_rows_whose_length_overflows(kind):
    # Each row is scaled by its own power of two before its length is taken,
    # so its answer is that of the row scaled down, not that of F on (0, 0).
    F = PNorm(3.0) if kind == "pnorm3" else README_COSTS[kind]()
    ctx = CrystalContext(F, SphereGrid.planar(720))
    rows = np.vstack([NEAR_FLOAT_MAX, _displacements(np.random.default_rng(3), 200)])
    want = [ctx.in_contact(np.ldexp(row, -600)) for row in rows[: len(NEAR_FLOAT_MAX)]]
    assert [ctx.in_contact(row) for row in NEAR_FLOAT_MAX] == want
    got = ctx.in_contact_many(rows)
    assert got[: len(NEAR_FLOAT_MAX)].tolist() == want
    assert got[len(NEAR_FLOAT_MAX) :].tolist() == [ctx.in_contact(row) for row in rows[len(NEAR_FLOAT_MAX) :]]


@pytest.mark.filterwarnings("error")
def test_a_path_segment_whose_length_overflows():
    # Its length is inf, and its direction is that of the scaled breakpoints' difference.
    path = Path(np.array([[0.0, 0.0], [1.7e308, 1.7e308], [-1.7e308, 1.7e308], [-1.7e308, 0.0]]))
    assert path.speeds.tolist() == [math.inf, math.inf, 1.7e308]
    s = math.sqrt(0.5)
    np.testing.assert_allclose(path.directions, [[s, s], [-1.0, 0.0], [0.0, -1.0]], rtol=1e-15, atol=0.0)
    # Points this large whose segments stay in range keep their exact lengths.
    path = Path(np.array([[0.0, 0.0], [1.7e308, 0.0], [1.7e308, 1.0e308]]))
    assert path.speeds.tolist() == [1.7e308, 1.0e308]
    assert path.directions.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.filterwarnings("error")
def test_unit_of_a_vector_whose_length_overflows():
    for v in NEAR_FLOAT_MAX:
        np.testing.assert_allclose(unit(v), unit(np.ldexp(v, -600)), rtol=1e-15, atol=0.0)
    assert unit((3.0, 4.0)).tolist() == [0.6, 0.8]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_a_difference_of_points_that_overflows(kind):
    # y - x overflows here, so it is taken between x and y scaled down
    # together: distance is twice the norm of y/2 - x/2, and the label is
    # that of the difference scaled down.
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
    for x, y in [((-1.7e308, -1.0e308), (1.7e308, 1.2e308)), ((1.0, -1.5e308), (2.0, 1.5e308))]:
        half = np.array(y) / 2 - np.array(x) / 2
        assert ctx.distance(x, y) == 2.0 * ctx.norm(half), (x, y)
        assert classify(ctx, x, y) == classify(ctx, (0.0, 0.0), np.ldexp(half, -600)), (x, y)
    small = CrystalContext(Constant(1e-10), SphereGrid.planar(60))
    assert small.distance((-1.5e308, 0.0), (1.5e308, 0.0)) == pytest.approx(3e298, rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_far_apart_constructions_are_the_scaled_down_ones(kind):
    # A breakpoint is s * (x / s + u): where it lies in the float range it is
    # 2**600 times the breakpoint of the endpoints scaled down by 2**600, and
    # past it Path refuses it by name. Lengths past the float range cannot
    # be compared with the norm, and is_geodesic says so.
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
    ends = [((-1.7e308, 0.0), (1.7e308, 1.0)), ((-1.7e308, -0.3e308), (1.6e308, 1.5e308)),
            ((1.5e308, -1.7e308), (-1.2e308, 1.7e308)), ((-1.7e308, 1.7e308), (0.2e308, -1.6e308))]
    finite = 0
    for x, y in ends:
        small = np.ldexp(x, -600), np.ldexp(y, -600)
        for build in (lambda x, y: construct_geodesic(ctx, x, y), lambda x, y: geodesic_family(ctx, x, y, 0.5)):
            want = _answer(build, *small)
            try:
                path = build(x, y)
            except ValueError as exc:
                assert re.search(r"not finite|attained normal", str(exc)), (x, y, exc)
                assert want[0] == "ValueError" or not np.isfinite(planar.scaled(build(*small).points, 600)).all()
                continue
            finite += 1
            assert path.points.tobytes() == np.ldexp(build(*small).points, 600).tobytes(), (x, y)
            try:
                cert = is_geodesic(ctx, path)
            except ValueError as exc:
                assert "past the float range" in str(exc)
                assert not max(path.speeds.sum(), ctx.distance(x, y)) < math.inf
            else:
                assert cert.verdict == is_geodesic(ctx, build(*small)).verdict
    assert finite > 0


@pytest.mark.filterwarnings("error")
def test_a_staircase_breakpoint_beyond_an_overflowing_leg():
    # y - x overflows, so it is d * 2**e with e past 1023; the leg of d scaled
    # back overflows, so x + u would be inf, while the breakpoint
    # s * (x / s + u) lies in the float range.
    ctx = CrystalContext(README_COSTS["crystalline"](), SphereGrid.planar(720))
    x, y = (-1.26e308, 1.69e308), (1.4e308, 1.15e308)
    d, e, _ = displacement(x, y)
    u, _ = ctx._contact(d).staircase()
    assert e > 1023 and planar.scaled(float(u[0]), e) == math.inf
    path = construct_geodesic(ctx, x, y)
    assert np.isfinite(path.points).all() and len(path.points) == 3
    small = construct_geodesic(ctx, np.ldexp(x, -600), np.ldexp(y, -600))
    assert path.points.tobytes() == np.ldexp(small.points, 600).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_decompositions_near_the_float_maximum(kind):
    # A decomposition is 0-homogeneous: each vector decomposes as the vector scaled down.
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
    for v in NEAR_FLOAT_MAX:
        assert _answer(decompose_direction, ctx, v) == _answer(decompose_direction, ctx, np.ldexp(v, -600)), v


@pytest.mark.filterwarnings("error")
def test_a_ball_past_the_float_range_is_refused_by_name(p3_ctx):
    with pytest.raises(ValueError, match="geodesic ball .* reaches past the float range"):
        geodesic_ball(p3_ctx, (1e308, 0.0), 1e308)
    with pytest.raises(ValueError, match="reaches past the float range"):
        geodesic_ball(p3_ctx, (-1.7e308, 0.0), 1e308)
    ball = geodesic_ball(p3_ctx, (1e308, 0.0), 1e307)
    assert np.isfinite(ball.vertices).all()


@functools.cache
def _readme_contexts() -> dict:
    return {kind: CrystalContext(make(), SphereGrid.planar(720)) for kind, make in README_COSTS.items()}


# The refusals a query may answer with, each by name.
NAMED_REFUSALS = (
    "requires distinct endpoints|path endpoints coincide|is not finite|no family|no staircase"
    "|past the float range|degenerate segment"
)


def _positive_or_inf(value, zero_allowed: bool):
    assert value > 0.0 or (value == 0.0 and zero_allowed), value
    return value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    # Exponents across the range, with its two ends drawn as often as the rest.
    e=st.one_of(st.integers(-1074, 1023), st.integers(-1074, -1000), st.integers(1000, 1023)),
    k=st.integers(min_value=-1100, max_value=1100),
    m=st.lists(st.floats(min_value=-2.0, max_value=2.0, exclude_max=True, exclude_min=True), min_size=4, max_size=4),
)
def test_every_entry_point_holds_across_the_float_range(e, k, m):
    # Endpoints 2**e * mantissa, from the smallest subnormal to the float
    # maximum: each call answers a positive value, inf past the float range,
    # or a named ValueError; F and the norm are 1-homogeneous bit for bit
    # wherever both sides are normal. classify and the constructions refuse
    # only equal endpoints, and a staircase leg that rounds away at its scale.
    x, y = (math.ldexp(m[0], e), math.ldexp(m[1], e)), (math.ldexp(m[2], e), math.ldexp(m[3], e))
    v = (y[0] - x[0], y[1] - x[1])
    normal = lambda t: sys.float_info.min <= abs(t) < math.inf  # noqa: E731
    for kind, ctx in _readme_contexts().items():
        F = ctx.integrand
        for w in (x, y):
            zero = w == (0.0, 0.0)
            f, n = _positive_or_inf(F(w), zero), _positive_or_inf(ctx.norm(w), zero)
            if not w == (0.0, 0.0):
                assert 0.0 < F.values_on(unit(w)[None, :])[0] < math.inf
                split = decompose_direction(ctx, w)
                assert min(split.weights) > 0.0 and np.isfinite(split.directions).all()
            big = (planar.scaled(w[0], k), planar.scaled(w[1], k))
            if (planar.scaled(big[0], -k), planar.scaled(big[1], -k)) == w:  # 2**k w is exact
                for scaled_value, value in ((F(big), f), (ctx.norm(big), n)):
                    if normal(scaled_value) and normal(value):
                        assert scaled_value == math.ldexp(value, k), (kind, w, k)
        assert ctx.in_contact_many(np.array([x, y, v] if all(map(math.isfinite, v)) else [x, y])).dtype == bool
        _positive_or_inf(ctx.distance(x, y), x == y)
        calls = (lambda: classify(ctx, x, y), lambda: construct_geodesic(ctx, x, y),
                 lambda: geodesic_family(ctx, x, y, 0.5), lambda: is_geodesic(ctx, construct_geodesic(ctx, x, y)))
        for call in calls:
            try:
                answer = call()
            except ValueError as exc:
                assert re.search(NAMED_REFUSALS, str(exc)), (kind, x, y, exc)
                continue
            if isinstance(answer, Path):
                assert np.isfinite(answer.points).all() and (answer.speeds > 0.0).all()
            elif not isinstance(answer, GeodesicClass):
                assert 0.0 < answer.target_norm < math.inf and 0.0 < answer.achieved_length < math.inf


def _readme_costs_times(j: int) -> dict:
    """The README costs, each but the p-norm with every value times 2**j (exact)."""
    s = 2.0**j
    return {"pnorm": PNorm(1.0), "constant": Constant(s),
            "crystalline": Crystalline([((1, 1), 1.41 * s), ((-1, 1), 1.0 * s), ((0, -1), 0.8 * s)]),
            "table": AngularTable([0.0, 2.0, 4.0], [1.0 * s, 1.4 * s, 1.1 * s]),
            "dip": Dip(Constant(s), [((1, 0), 0.5 * s)])}


def _decisions(ctx: CrystalContext, x, y, bend, radius) -> list:
    """Every decision a context takes on x and y: default_tol, the label, the certificates
    (verdict, certified, both flag arrays) of the construction, member 0.5 and the path
    x -> bend -> y, contact of x, y and y - x, and whether the ball about x of the radius
    holds y; a refusal by its name."""

    def decide(call):
        try:
            return call()
        except ValueError as exc:
            return re.search(NAMED_REFUSALS, str(exc)).group()

    def certificate(build):
        cert = is_geodesic(ctx, build())
        return cert.verdict, cert.certified, cert.contact_ok.tolist(), cert.support_ok.tolist()

    v = (y[0] - x[0], y[1] - x[1])
    return [
        ctx.default_tol,
        decide(lambda: classify(ctx, x, y)),
        decide(lambda: certificate(lambda: construct_geodesic(ctx, x, y))),
        decide(lambda: certificate(lambda: geodesic_family(ctx, x, y, 0.5))),
        decide(lambda: certificate(lambda: Path(np.array([x, bend, y])))),
        ctx.in_contact_many(np.array([x, y, v])).tolist(),
        [ctx.in_contact(w) for w in (x, y, v)],
        geodesic_ball(ctx, x, radius).contains(y),
    ]


# Mantissas away from the subnormals: every value below stays a normal float at 2**k * 2**j.
_MANTISSA = st.floats(-2.0, 2.0).filter(lambda t: t == 0.0 or abs(t) >= 2.0**-100)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(k=st.integers(-600, 600), j=st.integers(-200, 200), m=st.lists(_MANTISSA, min_size=4, max_size=4))
def test_every_decision_is_the_same_at_every_scale(k, j, m):
    # F is 1-homogeneous, so no decision may depend on the scale of the points (2**k)
    # or of F (2**j): each is taken on values that scale exactly, by relative rules.
    x0, y0 = (m[0], m[1]), (m[2], m[3])
    bend0 = (0.5 * (m[0] + m[2]) - 0.25 * (m[3] - m[1]), 0.5 * (m[1] + m[3]) + 0.25 * (m[2] - m[0]))
    x, y, bend = (tuple(math.ldexp(t, k) for t in p) for p in (x0, y0, bend0))
    for kind, F in _readme_costs_times(j).items():
        scale = 0 if kind == "pnorm" else j
        want = _decisions(_readme_contexts()[kind], x0, y0, bend0, 1.0)
        got = _decisions(CrystalContext(F, SphereGrid.planar(720)), x, y, bend, math.ldexp(1.0, k + scale))
        assert got == want, (kind, k, j)


# The reproductions of decisions that once changed with scale.
BENT = np.array([(0.0, 0.0), (0.2, 0.9), (1.0, 1.0)])


def test_a_bent_path_is_refused_at_every_scale():
    # It costs 1.35 times the distance under PNorm(3) and 1.27 times under the README
    # dip with every value times 10; the absolute floor of tol * max(1, norm) verified
    # it at 1e-8 and under the dip times 10 (whose default tolerance was 5 res max F).
    p3 = CrystalContext(PNorm(3.0), SphereGrid.planar(720))
    dip10 = CrystalContext(Dip(Constant(10.0), [((1, 0), 5.0)]), SphereGrid.planar(720))
    for ctx in (p3, dip10):
        for scale in (1.0, 1e-8, 1e8):
            cert = is_geodesic(ctx, Path(BENT * scale))
            assert cert.achieved_length > 1.2 * cert.target_norm, (ctx.integrand.kind, scale)
            assert not cert.verdict and not cert.certified, (ctx.integrand.kind, scale)


def test_contact_does_not_depend_on_the_scale_of_the_direction():
    # F - norm <= 1e-6 * max(1, F) put (1e-8, 1e-9) in contact and (1, 0.1) not.
    ctx = _readme_contexts()["dip"]
    assert not ctx.in_contact((1.0, 0.1)) and not ctx.in_contact((1e-8, 1e-9))
    for v in [(1.0, 0.1), (1.0, 0.0), (0.3, -1.0), (-1.0, 0.0)]:
        rows = np.array([np.ldexp(v, k) for k in (-900, -27, 0, 27, 900)])
        assert ctx.in_contact_many(rows).tolist() == [ctx.in_contact(v)] * len(rows), v
        assert [ctx.in_contact(row) for row in rows] == [ctx.in_contact(v)] * len(rows), v


@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_points_a_tiny_step_apart_are_distinct(kind):
    # MIN_SEGMENT = 1e-12 refused these in Path, classify and the constructions,
    # while distance answered.
    ctx = _readme_contexts()[kind]
    L = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    assert Path(L * 1e-13).speeds.tolist() == [1e-13, 1e-13]
    y = (1e-13, 1e-13)
    label = classify(ctx, (0.0, 0.0), y)
    assert label == classify(ctx, (0.0, 0.0), (1.0, 1.0))
    path = construct_geodesic(ctx, (0.0, 0.0), y)
    assert len(path.points) == (2 if label is GeodesicClass.UNIQUE_UP_TO_REPARAM else 3)
    cert = is_geodesic(ctx, path)
    assert cert.verdict and cert.certified
    assert cert.target_norm == ctx.distance((0.0, 0.0), y) > 0.0
    for bad in ((0.0, 0.0), (-0.0, 0.0)):  # only equal points are refused
        with pytest.raises(ValueError, match="distinct endpoints"):
            classify(ctx, (0.0, 0.0), bad)


@pytest.mark.parametrize("j", [-200, 200])
def test_a_crystalline_cost_times_a_power_of_two_keeps_its_labels(j):
    # The polar-point rule's floor, resolution * max(|v / n|, 1e-30), went absolute
    # where F passes 1e30: (1, 2) turned unique.
    ctx = CrystalContext(_readme_costs_times(j)["crystalline"], SphereGrid.planar(720))
    for y in [(1.0, 2.0), (1.0, 1.0), (-3.0, 0.5), (0.0, -1.0)]:
        assert classify(ctx, (0.0, 0.0), y) == classify(_readme_contexts()["crystalline"], (0.0, 0.0), y), y
    assert classify(ctx, (0.0, 0.0), (1.0, 2.0)) is GeodesicClass.INFINITELY_MANY


@pytest.mark.filterwarnings("error")
def test_a_far_path_whose_cost_is_in_range_is_checked():
    # Its Euclidean length overflows, and is_geodesic once refused it for that; the
    # path's unit-scaled lengths keep its cost, 1.7e308, in range.
    ctx = _readme_contexts()["dip"]
    x, y = (-1.7e308, 0.0), (1.7e308, 1.0)
    path = construct_geodesic(ctx, x, y)
    assert path.speeds.tolist() == [math.inf]
    assert path_length(ctx.integrand, path) == ctx.distance(x, y) == 1.7e308
    cert = is_geodesic(ctx, path)
    assert cert.achieved_length == cert.target_norm == 1.7e308
    assert cert.verdict and cert.certified


def test_a_step_far_below_its_breakpoints_keeps_its_bits():
    # Steps were once differences of the breakpoints scaled together, here a subnormal.
    for points in ([(1e300, 0.0), (1e300, 1e-20)], [(1.7e308, 0.0), (1.7e308, 1.1)]):
        for path in (Path(np.array(points)), Path._from_floats(points)):
            assert path.speeds.tolist() == [points[1][1]] and path.directions.tolist() == [[0.0, 1.0]]


def test_a_subnormal_step_from_a_unit_point_is_constructed():
    # Its step was once lost next to the breakpoint 1 and refused as degenerate.
    ctx = CrystalContext(PNorm(3.0), SphereGrid.planar(720))
    x, y = (1.0, 0.0), (1.0, 5e-324)
    path = construct_geodesic(ctx, x, y)
    assert path.points.tolist() == [[1.0, 0.0], [1.0, 5e-324]] and path.speeds.tolist() == [5e-324]
    assert ctx.distance(x, y) == path_length(ctx.integrand, path) == 5e-324
    assert classify(ctx, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM
    assert is_geodesic(ctx, path).verdict


_COORDINATES = st.builds(math.ldexp, st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), st.integers(-600, 300))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=2, max_size=6, unique=True))
def test_in_range_steps_are_the_plain_differences(points):
    # np.hypot and the division commute with the steps' power-of-two scaling in range.
    steps = np.diff(np.array(points), axis=0)
    lengths = np.hypot(steps[:, 0], steps[:, 1])
    for path in (Path(np.array(points)), Path._from_floats(points)):
        np.testing.assert_array_equal(path.speeds, lengths)
        np.testing.assert_array_equal(path.directions, steps / lengths[:, None])


@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_the_norm_is_zero_only_at_zero(kind):
    # A positive norm or F that underflows is rounded up to the smallest subnormal.
    tiny = math.ulp(0.0)
    for ctx in (CrystalContext(README_COSTS[kind](), SphereGrid.planar(64)),
                CrystalContext(Constant(0.5), SphereGrid.planar(64))):
        for v in [(tiny, 0.0), (0.0, -tiny), (-tiny, tiny), (3 * tiny, -2 * tiny), (1e-310, 0.0)]:
            n = ctx.norm(v)
            assert n > 0.0 and ctx.distance((0.0, 0.0), v) == n and ctx.integrand(v) > 0.0, v
            assert n == ctx.norm(np.ldexp(v, 600)) * 2.0**-600 or n == tiny, v
        assert ctx.norm((0.0, 0.0)) == 0.0 and ctx.norm((-0.0, 0.0)) == 0.0
    assert CrystalContext(Constant(0.5), SphereGrid.planar(64)).norm((tiny, 0.0)) == tiny


@pytest.mark.parametrize("bad", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)], ids=repr)
def test_non_finite_displacements_are_refused_by_name(bad, p3_ctx):
    table_ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(60))
    for ctx in (p3_ctx, table_ctx):
        ctx.norm((1.0, 2.0))  # a record of a finite displacement stands
        calls = [ctx.norm, ctx.is_orthogonal_direction, lambda v: geodesic_legs(ctx, v),
                 lambda v: decompose_direction(ctx, v), lambda v: ctx.distance((0.0, 0.0), v),
                 lambda v: classify(ctx, (0.0, 0.0), v), lambda v: construct_geodesic(ctx, (0.0, 0.0), v),
                 lambda v: geodesic_family(ctx, (0.0, 0.0), v, 0.5)]
        for call in calls:
            with pytest.raises(ValueError, match=r"(inf|nan).*not finite"):
                call(np.array(bad))


@pytest.mark.parametrize("grid_size", [8, 60, 720, 2880])
def test_contact_face_from_the_contact_vertex_is_contact_face(grid_size):
    rng = np.random.default_rng(grid_size)
    costs = [make() for make in README_COSTS.values()] + [PNorm(math.inf), PNorm(2.5)]
    costs += [_random_table(rng) for _ in range(4)]
    # Random displacements, edge normals (an edge face) and directions a
    # hair off them (a vertex face beside a tie).
    turn = np.array([[1.0, -1e-12], [1e-12, 1.0]])
    for F in costs:
        ctx = CrystalContext(F, SphereGrid.planar(grid_size))
        normals = ctx.crystal.normals
        for v in np.vstack([_displacements(rng, 300), normals, 3.0 * normals, normals @ turn]):
            assert contact_face(ctx.crystal, v).tobytes() == contact_face_reference(ctx.crystal, v)[0].tobytes(), v
        # The edge from vertex V - 1 to vertex 0, where the sectors wrap: the
        # record's vertex is the first maximizing one in vertex order.
        for v in (normals[-1], 3.0 * normals[-1], normals[-1] @ turn, normals[-1] @ turn.T):
            assert contact_face(ctx.crystal, v).tobytes() == contact_face_reference(ctx.crystal, v)[0].tobytes(), v
            assert ctx._contact(v).k == int(np.argmax(vertex_scores(ctx.crystal, v))), v
    # Regions that are not crystals: a geodesic ball and a polar body.
    ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(grid_size))
    for region in (geodesic_ball(ctx, (0.3, -2.0), 1.5), ctx.polar_body):
        for v in np.vstack([_displacements(rng, 300), region.normals, region.normals @ turn]):
            assert region.support(v) == float(vertex_scores(region, v).max()), v
            assert contact_face(region, v).tobytes() == contact_face_reference(region, v)[0].tobytes(), v


def test_a_tiny_crystals_face_is_its_support_vertex():
    # Far below unit size only the vertex attaining the support is tied, not
    # every vertex within a fixed 1e-9.
    ctx = CrystalContext(Constant(1e-10), SphereGrid.planar(720))
    v = (1.0, 0.3)
    face = contact_face(ctx.crystal, v)
    scores = vertex_scores(ctx.crystal, unit(v))
    assert face.tobytes() == ctx.crystal.vertices[[int(np.argmax(scores))]].tobytes()


@pytest.mark.parametrize("k", [-40, -1, 1, 40])
def test_faces_scale_with_their_region(k):
    rng = np.random.default_rng(k + 100)
    for make in README_COSTS.values():
        ctx = CrystalContext(make(), SphereGrid.planar(720))
        for region in (ctx.crystal, ctx.polar_body):
            scaled = ConvexRegion(np.ldexp(region.vertices, k))
            for v in np.vstack([rng.normal(size=(300, 2)), region.normals]):
                face = contact_face(region, v)
                assert contact_face(scaled, v).tobytes() == np.ldexp(face, k).tobytes(), (make, v)


@pytest.mark.parametrize("grid_size", [60, 720])
@pytest.mark.parametrize("kind", sorted(README_COSTS))
def test_contact_faces_are_the_face_records_rows(kind, grid_size):
    # The face's rows are the record's vertices, and the candidate after
    # an edge face's two rows is the record's representative, bit for bit.
    ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(grid_size))
    rng = np.random.default_rng([grid_size, len(kind), 2])
    normals = ctx.crystal.normals
    for v in np.vstack([_displacements(rng, 300), normals, 3.0 * normals]):
        vertices, representative = contact_face_reference(ctx.crystal, v)
        face = contact_face(ctx.crystal, v)
        assert face.shape == vertices.shape and face.tobytes() == vertices.tobytes(), v
        candidates = ctx.contact_point_candidates(v, face)
        assert candidates[: len(face)].tobytes() == face.tobytes(), v
        if len(face) == 2:
            assert candidates[2].tobytes() == representative.tobytes(), v
        exact = ctx.integrand.contact_point(v)
        assert len(candidates) == len(face) + (len(face) == 2) + (exact is not None), v


# --- the fast checks of Path -------------------------------------------------


def test_path_checks_match_the_reference():
    rng = np.random.default_rng(51)
    edges = [np.array([[0.0, 0.0], [step, 0.0]]) for step in (0.0, math.ulp(0.0))]
    for pts in edges + [rng.normal(size=(int(rng.integers(2, 6)), 2)) for _ in range(2000)]:
        if rng.random() < 0.3:  # a repeated breakpoint
            i = int(rng.integers(1, len(pts)))
            pts[i] = pts[i - 1]
        if rng.random() < 0.3:  # a non-finite coordinate
            pts[rng.integers(len(pts)), rng.integers(2)] = rng.choice([math.nan, math.inf, -math.inf])
        try:
            want = path_checks_reference(pts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                Path(pts)
            continue
        path = Path(pts)
        np.testing.assert_array_equal(np.diff(path.points, axis=0), want[0])
        np.testing.assert_array_equal(path.speeds, want[1])


# --- column-wise (n, 2) work -------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.25, math.inf])
def test_pnorm_rows_are_the_axis_reductions(p):
    rng = np.random.default_rng(61)
    x = rng.normal(size=(500, 2)) * 10.0 ** rng.uniform(-5, 5, (500, 1))
    x = np.vstack([x, [[0.0, 0.0], [-0.0, 1.0], [math.inf, 1.0], [math.nan, 0.0], [1e308, 1e308]]])
    F = PNorm(p)
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(F._norm(x), pnorm_rows_reference(F, x))


def _cycles(rng, count):
    """Random convex cycles of mixed scale around the origin: one angle
    from each of 3-11 equal arcs."""
    cycles = []
    for _ in range(count):
        n = int(rng.integers(3, 12))
        angles = (np.arange(n) + rng.uniform(0.3, 0.7, n)) * (TWO_PI / n)
        radii = rng.uniform(0.5, 2.0, len(angles)) * 10.0 ** rng.uniform(-6, 6)
        cycles.append(planar.convex_hull_ccw(np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, None]))
    return cycles


def test_row_max_abs_pins_each_batch_to_the_axis_reduction(monkeypatch):
    rng = np.random.default_rng(62)
    x = rng.normal(size=(300, 2)) * 10.0 ** rng.uniform(-300, 300, (300, 1))
    x = np.vstack([x, [[-0.0, 0.0], [math.inf, -1.0], [math.nan, 2.0], [-3.0, math.nan]]])
    np.testing.assert_array_equal(planar.row_max_abs(x), np.abs(x).max(axis=1))

    def batches():
        cycles = _cycles(rng, 20)
        points, counts, starts, nxt = planar.concatenated_cycles(cycles)
        return (planar.unit_scaled_cycles(points, starts), planar.strictly_convex_cycles(cycles),
                planar.polar_of_cycles(points, counts, starts, nxt))

    state = rng.bit_generator.state
    got = batches()
    rng.bit_generator.state = state
    with monkeypatch.context() as patch:
        patch.setattr(planar, "row_max_abs", lambda points: np.abs(points).max(axis=1))
        want = batches()
    for g, w in zip(itertools.chain.from_iterable(got[:2]), itertools.chain.from_iterable(want[:2])):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(got[2], want[2])


def test_in_contact_many_names_the_first_non_finite_row(dip_ctx):
    rng = np.random.default_rng(63)
    for _ in range(200):
        xs = rng.normal(size=(int(rng.integers(1, 8)), 2))
        for _ in range(int(rng.integers(0, 3))):
            xs[rng.integers(len(xs)), rng.integers(2)] = rng.choice([math.nan, math.inf, -math.inf])
        finite = np.isfinite(xs).all(axis=1)
        if finite.all():
            assert dip_ctx.in_contact_many(xs).shape == (len(xs),)
            continue
        bad = int(np.argmin(finite))
        with pytest.raises(ValueError, match=rf"^row {bad} is not a finite planar vector"):
            dip_ctx.in_contact_many(xs)


# --- guards ------------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_integrand_overrides_call():
    # The benchmark tracer wraps Integrand.__call__ alone; an override in a
    # subclass would take that cost's scalar calls out of the trace.
    subclasses = list(_subclasses(Integrand))
    assert {PNorm, Constant, Crystalline, AngularTable, Dip} <= set(subclasses)
    for sub in subclasses:
        assert "__call__" not in vars(sub), sub.__name__
