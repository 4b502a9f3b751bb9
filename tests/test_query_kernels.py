"""The scalar query path against the array code it replaced.

Each ``*_reference`` below is the earlier implementation of a scalar
kernel, kept here as the specification the float-arithmetic rewrite must
reproduce: bit for bit for the interpolated, constant and dip costs,
within 2 ulp for p-norms (float ``pow`` against numpy's), and with the
same labels, verdicts, certified flags and contact points for the
geodesic checks.
"""

import inspect
import itertools
import math
import re
import struct
import sys
import threading

import numpy as np
import pytest

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
    geodesic_family,
    is_geodesic,
    planar,
)
from anisogeo import integrand as integrand_module
from anisogeo.geodesics import MIN_SEGMENT, DirectionDecomposition, SegmentCheck, geodesic_legs
from anisogeo.integrand import (
    DIRECTION_MATCH_TOL,
    TWO_PI,
    GridFunction,
    angle_of,
    interp_periodic,
    periodic_samples,
    unit,
)

BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)


# --- references: the replaced scalar bodies ----------------------------------


def angle_of_reference(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.mod(math.atan2(x[1], x[0]), TWO_PI))


def table_unit_value_reference(F: AngularTable, u) -> float:
    return float(np.interp(angle_of_reference(u), F.sample_angles, F.sample_values, period=TWO_PI))


def table_values_on_reference(F: AngularTable, dirs) -> np.ndarray:
    dirs = np.asarray(dirs, dtype=float)
    theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI)
    return np.interp(theta, F.sample_angles, F.sample_values, period=TWO_PI)


def grid_unit_value_reference(G: GridFunction, u) -> float:
    return float(np.interp(angle_of_reference(u), G.grid.angles, G.values, period=TWO_PI))


def pnorm_unit_value_reference(F: PNorm, u) -> float:
    return float(F._norm(np.asarray(u, dtype=float)[None, :])[0])


def dip_unit_value_reference(F: Dip, u, base_reference) -> float:
    u = np.asarray(u, dtype=float)
    val = base_reference(F.base, u)
    for d, dip_value in F.dips:
        if np.linalg.norm(u - d) <= DIRECTION_MATCH_TOL:
            val = min(val, dip_value)
    return val


def call_reference(unit_value, x) -> float:
    """The earlier ``Integrand.__call__`` around a given unit-value function."""
    x = np.asarray(x, dtype=float)
    n = math.hypot(*x)
    if n == 0.0:
        return 0.0
    return n * unit_value(x / n)


def is_orthogonal_direction_reference(ctx: CrystalContext, v, tol=None) -> bool:
    if tol is None:
        tol = ctx.resolution
    v = np.asarray(v, dtype=float)
    n = ctx.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    if ctx.integrand(v) - n > tol * n:
        return False
    v_hat = v / n
    normals, offsets = ctx.crystal.halfspaces
    k = int(np.argmax(ctx.crystal.vertices @ v))
    cone = [k - 1, k]
    gaps = np.hypot(*(normals[cone] / offsets[cone, None] - v_hat).T)
    return bool(gaps.min() <= tol * max(math.hypot(*v_hat), 1e-30))


def is_geodesic_reference(ctx: CrystalContext, path: Path, tol=None):
    """The per-segment certificate: three scalar F calls per segment and
    a second contact-face search. Returns (verdict, checks, contact point)."""
    if tol is None:
        tol = ctx.default_tol
    v = path.displacement
    achieved = float(sum(ctx.integrand(seg) for seg in path.segments))
    target = ctx.norm(v)
    verdict = abs(achieved - target) <= tol * max(1.0, target)
    speeds = np.hypot(path.segments[:, 0], path.segments[:, 1])
    unit_tol = tol * max(1.0, target) / float(speeds.sum())
    seg_dirs = [seg / math.hypot(*seg) for seg in path.segments]
    seg_norms = [ctx.norm(d) for d in seg_dirs]
    contact_flags = [ctx.integrand(d) - nd <= unit_tol for d, nd in zip(seg_dirs, seg_norms)]
    best_checks, best_point, best_score = None, None, -1
    for xbar in ctx.contact_point_candidates(v, contact_face(ctx.crystal, unit(v))):
        checks = []
        for d, nd, c_ok in zip(seg_dirs, seg_norms, contact_flags):
            support_gap = abs(float(d @ xbar) - nd)
            checks.append(SegmentCheck(d, c_ok, support_gap <= unit_tol))
        score = sum(check.ok for check in checks)
        if score > best_score:
            best_checks, best_point, best_score = checks, xbar, score
        if score == len(checks):
            break
    return verdict, best_checks, best_point


def norm_reference(ctx: CrystalContext, v) -> float:
    """The norm before contact records: its own F call and support scan."""
    f = ctx.integrand(v)
    if ctx.integrand.is_convex or f == 0.0:
        return f
    return min(f, ctx.crystal.support(v))


def unique_reference(ctx: CrystalContext, v) -> bool:
    """``is_orthogonal_direction`` before contact records: its own F call,
    argmax and polar points n_j / h_j."""
    tol = ctx.resolution
    v = np.asarray(v, dtype=float)
    f = ctx.integrand(v)
    if f == 0.0:
        raise ValueError("zero vector has no direction")
    scores = ctx.crystal.vertices @ v
    k = int(np.argmax(scores))
    n = f
    if not ctx.integrand.is_convex:
        support = float(scores[k])
        if f < support * (1.0 - 1e-12):
            return True
        n = min(f, support)
        if f - n > tol * n:
            return False
    a, b = v.tolist()
    a, b = a / n, b / n
    normals, offsets = ctx.crystal.halfspaces
    gap = math.inf
    for j in (k - 1, k):
        (na, nb), h = normals[j].tolist(), float(offsets[j])
        gap = min(gap, math.hypot(na / h - a, nb / h - b))
    return gap <= tol * max(math.hypot(a, b), 1e-30)


def geodesic_legs_reference(ctx: CrystalContext, v):
    """``geodesic_legs`` with its own argmax over the crystal vertices."""
    v = np.asarray(v, dtype=float)
    normals = ctx.crystal.normals
    k = int(np.argmax(ctx.crystal.vertices @ v))
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
    if math.hypot(*v.tolist()) <= MIN_SEGMENT:
        raise ValueError("geodesic construction requires distinct endpoints")
    if unique_reference(ctx, v):
        return Path(np.array([x, y]))
    return Path(np.array([x, x + geodesic_legs_reference(ctx, v)[0], y]))


def geodesic_family_reference(ctx: CrystalContext, x, y, tau: float) -> Path:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v = y - x
    if math.hypot(*v.tolist()) <= MIN_SEGMENT:
        raise ValueError("family requires distinct endpoints")
    if unique_reference(ctx, v):
        raise ValueError("direction is an attained normal: geodesic is unique, no family")
    u, w = geodesic_legs_reference(ctx, v)
    raw = [x, x + tau * u, x + tau * u + w, y]
    points = [raw[0]]
    for p in raw[1:]:
        if math.hypot(*(p - points[-1])) > MIN_SEGMENT:
            points.append(p)
    return Path(np.array(points))


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
    if np.any(speeds <= MIN_SEGMENT):
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

    def test_angle_of_matches_reference(self):
        rng = np.random.default_rng(12)
        for d in _directions(rng, 2000):
            assert angle_of(d) == angle_of_reference(d)
            assert angle_of(tuple(d.tolist())) == angle_of_reference(d)
        for tiny in (-1e-300, -5e-324, -0.0, 0.0):
            assert angle_of((1.0, tiny)) == angle_of_reference((1.0, tiny))


# --- scalar costs against their references -----------------------------------


class TestScalarCosts:
    def test_table_is_bit_identical(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            F = _random_table(rng)
            dirs = _directions(rng, 200, F.sample_angles)
            for d in dirs:
                assert F.unit_value(d) == table_unit_value_reference(F, d)
                x = d * rng.uniform(0.1, 10.0)
                assert F(x) == call_reference(lambda u: table_unit_value_reference(F, u), x)
            np.testing.assert_array_equal(F.values_on(dirs), table_values_on_reference(F, dirs))

    def test_scalar_agrees_with_values_on(self):
        # Bit for bit where both read the same floats; within 2 ulp where
        # numpy's pow or BLAS's dot product rounds differently. Tables read
        # the angle with math.atan2 one way and numpy's arctan2 the other,
        # which differ by up to an ulp of the angle, times the table's slope.
        rng = np.random.default_rng(22)
        dips = [(np.array([math.cos(a), math.sin(a)]), 0.4) for a in (0.0, 1.0, 4.5)]
        for F in (Constant(2.5), Dip(Constant(1.0), dips)):
            dirs = _directions(rng, 500, [0.0, 1.0, 4.5])
            assert [F.unit_value(d) for d in dirs] == F.values_on(dirs).tolist()
        for F in (PNorm(1.5), PNorm(3.0), README_COSTS["crystalline"]()):
            dirs = _directions(rng, 2000)
            for got, want in zip([F.unit_value(d) for d in dirs], F.values_on(dirs).tolist()):
                assert abs(got - want) <= 2.0 * math.ulp(want)
        for _ in range(50):
            F = _random_table(rng)
            gaps = np.diff(np.append(F.sample_angles, F.sample_angles[0] + TWO_PI))
            rises = np.diff(np.append(F.sample_values, F.sample_values[0]))
            slope = float(np.abs(rises / gaps).max())
            dirs = _directions(rng, 500, F.sample_angles)
            for got, want in zip([F.unit_value(d) for d in dirs], F.values_on(dirs).tolist()):
                assert abs(got - want) <= 2.0 * slope * math.ulp(TWO_PI) + 2.0 * math.ulp(want)

    def test_grid_function_is_bit_identical(self):
        rng = np.random.default_rng(23)
        for count in (8, 60, 720):
            grid = SphereGrid.planar(count)
            G = GridFunction(grid, rng.uniform(0.5, 2.0, count))
            for d in _directions(rng, 300, grid.angles[:: max(1, count // 30)]):
                assert G.unit_value(d) == grid_unit_value_reference(G, d)
                x = d * rng.uniform(0.1, 10.0)
                assert G(x) == call_reference(lambda u: grid_unit_value_reference(G, u), x)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.25, math.inf])
    def test_pnorm_within_two_ulp(self, p):
        rng = np.random.default_rng(24)
        F = PNorm(p)
        dirs = _directions(rng, 2000)
        for d in dirs:
            got, want = F.unit_value(d), pnorm_unit_value_reference(F, d)
            assert abs(got - want) <= 2.0 * math.ulp(want), (d, got, want)
        if p in (1.0, math.inf):
            assert [F.unit_value(d) for d in dirs] == F.values_on(dirs).tolist()

    def test_dip_is_bit_identical(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            table = _random_table(rng, 12)
            dip_angles = rng.uniform(0.0, TWO_PI, 3)
            dips = [((math.cos(a), math.sin(a)), 0.1) for a in dip_angles]
            for base, base_reference in (
                (table, table_unit_value_reference),
                (Constant(1.3), lambda F, u: F.value),
            ):
                F = Dip(base, dips)
                dip_dirs = np.array([d for d, _ in F.dips])
                # Directions on a dip, and just off it at the match tolerance.
                near = np.vstack([dip_dirs, dip_dirs + 0.9e-12, dip_dirs + 2e-12])
                for d in np.vstack([_directions(rng, 100, dip_angles), near]):
                    assert F.unit_value(d) == dip_unit_value_reference(F, d, base_reference)
                assert F(2.0 * dip_dirs[0]) == 2.0 * F.dips[0][1]

    def test_crystalline_scalar_is_unchanged(self):
        rng = np.random.default_rng(26)
        F = README_COSTS["crystalline"]()
        for d in _directions(rng, 500):
            assert F.unit_value(d) == float((F.generators @ d).max())
            assert F.unit_value(tuple(d.tolist())) == F.unit_value(d)


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


@pytest.mark.parametrize("grid_size", [60, 720])
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
        verdict, checks, point = is_geodesic_reference(ctx, path)
        assert cert.verdict == verdict, v
        assert [(c.contact_ok, c.support_ok) for c in cert.segment_checks] == [
            (c.contact_ok, c.support_ok) for c in checks
        ], v
        assert cert.certified == all(c.ok for c in checks), v
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


def test_path_length_sums_in_segment_order(p3_ctx):
    rng = np.random.default_rng(31)
    path = Path(np.cumsum(rng.normal(size=(500, 2)), axis=0))
    F = p3_ctx.integrand
    want = 0.0
    for cost in (F.values_on(path.directions) * path.speeds).tolist():
        want += cost
    from anisogeo import path_length

    assert path_length(F, path) == want
    assert path_length(F, path) == pytest.approx(sum(F(s) for s in path.segments), rel=1e-14)


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
    flags = [(c.contact_ok, c.support_ok) for c in cert.segment_checks]
    return cert.verdict, cert.target_norm, flags, cert.contact_point


def _certificate_reference(ctx, path):
    verdict, checks, point = is_geodesic_reference(ctx, path)
    return verdict, norm_reference(ctx, path.displacement), [(c.contact_ok, c.support_ok) for c in checks], point


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


def test_record_fields_match_the_references():
    rng = np.random.default_rng(42)
    for kind, make in sorted(README_COSTS.items()):
        ctx = CrystalContext(make(), SphereGrid.planar(60))
        for v in _displacements(rng, 200):
            record = ctx._contact(v)
            assert record.key == struct.pack("2d", *v.tolist())
            assert record.f == ctx.integrand(v)
            assert record.k == int(np.argmax(ctx.crystal.vertices @ v))
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


def _faces_match(got, want):
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.representative.tobytes() == want.representative.tobytes()


@pytest.mark.parametrize("grid_size", [8, 60, 720])
def test_contact_face_from_the_contact_vertex_is_contact_face(grid_size):
    rng = np.random.default_rng(grid_size)
    costs = [make() for make in README_COSTS.values()] + [PNorm(math.inf), PNorm(2.5)]
    costs += [_random_table(rng) for _ in range(4)]
    for F in costs:
        ctx = CrystalContext(F, SphereGrid.planar(grid_size))
        normals = ctx.crystal.normals
        # Random displacements, edge normals (an edge face) and directions
        # a hair off them (a vertex face beside a tie).
        turn = np.array([[1.0, -1e-12], [1e-12, 1.0]])
        for v in np.vstack([_displacements(rng, 300), normals, 3.0 * normals, normals @ turn]):
            _faces_match(ctx._contact_face(v, ctx._contact(v)), contact_face(ctx.crystal, v))


# --- the fast checks of Path -------------------------------------------------


def test_path_checks_match_the_reference():
    rng = np.random.default_rng(51)
    edges = [np.array([[0.0, 0.0], [step, 0.0]]) for step in (MIN_SEGMENT, math.nextafter(MIN_SEGMENT, 1.0))]
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
        np.testing.assert_array_equal(path.segments, want[0])
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


def test_tables_and_grid_functions_share_one_interpolation(monkeypatch):
    calls = []
    plain = integrand_module.interp_periodic

    def counted(theta, samples):
        calls.append(np.ndim(theta))
        return plain(theta, samples)

    monkeypatch.setattr(integrand_module, "interp_periodic", counted)
    table = README_COSTS["table"]()
    grid = SphereGrid.planar(60)
    G = GridFunction(grid, np.linspace(1.0, 2.0, 60))
    u = np.array([0.6, 0.8])
    table.unit_value(u)
    table(2.0 * u)
    table.values_on(grid.directions)
    G.unit_value(u)
    G(2.0 * u)
    assert calls == [0, 0, 1, 0, 0]
    source = "\n".join(inspect.getsource(cls) for cls in (AngularTable, GridFunction))
    assert "np.interp" not in source and "period=" not in source
