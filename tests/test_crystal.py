import contextlib
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from anisogeo import (
    AngularTable,
    Constant,
    ConvexRegion,
    CrystalContext,
    Crystalline,
    Dip,
    GeodesicClass,
    Integrand,
    PNorm,
    Polygon,
    SphereGrid,
    build_crystal,
    classify,
    construct_geodesic,
    contact_face,
    decompose_direction,
    double_polar,
    geodesic_ball,
    geodesic_family,
    hausdorff_distance,
    is_geodesic,
    polar,
)
from anisogeo import cli, crystal, fileio, integrand, planar, suite
from anisogeo.crystal import double_polars
from anisogeo.integrand import convex_envelope, polygon_corners, wulff_transform
from anisogeo.planar import convex_hull_ccw

from conftest import sorted_rows
from test_query_kernels import README_COSTS, corner_free

SQ2 = math.sqrt(2.0)

SQUARE = ConvexRegion(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]))


def brute_force_member(F, grid, x, slack=0.0):
    """Independent membership test: check x against every scanned halfplane."""
    x = np.asarray(x, dtype=float)
    for v in grid.directions:
        if float(x @ v) > F(v) + slack:
            return False
    return True


def reference_double_polar(points) -> ConvexRegion:
    """Reference: double_polar one cloud at a time, each step on its own."""
    pts = np.asarray(points, dtype=float)
    scale = float(np.abs(pts).max())
    if not 0.0 < scale < math.inf:
        raise ValueError("double polar needs a finite cloud with a nonzero point")
    q = pts / scale
    r = 1.0 / crystal._BOX_FACTOR
    box_duals = np.array([[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]])
    hull = convex_hull_ccw(np.vstack([q, box_duals]))
    boxed_polar = ConvexRegion(planar.polar_polygon(hull))
    return polar(boxed_polar).scaled(scale)


def reference_double_polar_gaps(rng) -> list:
    """Reference: run_suite's double-polar check one cloud at a time."""
    gaps = []
    for _ in range(10):
        pts = rng.uniform(-1.0, 1.0, size=(12, 2)) + rng.uniform(-0.5, 1.5, size=2)
        expected = convex_hull_ccw(np.vstack([pts, [[0.0, 0.0]]]))
        gaps.append(hausdorff_distance(reference_double_polar(pts).vertices, expected))
    return gaps


class TestBuildCrystal:
    def test_l1_crystal_is_the_unit_square(self, l1_ctx):
        got = sorted_rows(l1_ctx.crystal.vertices)
        want = sorted_rows([[-1, -1], [-1, 1], [1, -1], [1, 1]])
        assert np.allclose(got, want, atol=1e-12)

    def test_l1_crystal_membership_against_all_halfplanes(self, l1_ctx, grid):
        F = l1_ctx.integrand
        for p, inside in [((0.9, 0.9), True), ((1.0, 0.0), True), ((1.05, 0.2), False),
                          ((0.0, -1.2), False), ((-0.999, 0.999), True)]:
            assert brute_force_member(F, grid, p, slack=1e-9) == inside
            assert l1_ctx.crystal.contains(p) == inside

    def test_isotropic_crystal_hugs_the_unit_disk(self, euclid_ctx, grid):
        radii = np.linalg.norm(euclid_ctx.crystal.vertices, axis=1)
        assert radii.min() >= 1.0 - 1e-12  # circumscribed
        assert radii.max() - 1.0 <= grid.resolution**2 / 2.0

    def test_dip_crystal_is_a_truncated_disk(self, dip_ctx):
        verts = dip_ctx.crystal.vertices
        assert verts[:, 0].max() == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(verts, axis=1).max() <= 1.0 + 1e-4
        # Corners of the truncation chord sit on the unit circle at x = 1/2.
        chord = verts[np.abs(verts[:, 0] - 0.5) < 1e-9]
        assert np.abs(chord[:, 1]).max() == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-3)

    def test_unbounded_scan_rejected(self):
        # A lopsided direction set that leaves a halfplane uncovered.
        bad = np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0.1, 2.8, 12)])
        grid = SphereGrid.planar(12)
        grid.__dict__["directions"] = bad
        with pytest.raises(ValueError, match="unbounded|span"):
            build_crystal(Constant(1.0), grid)


class TestBuildScale:
    @pytest.mark.parametrize(
        "F", [PNorm(3.0), Dip(Constant(1.0), [((1.0, 0.0), 0.5)])], ids=["p3", "dip"]
    )
    def test_builds_and_checks_at_the_largest_grid(self, F):
        ctx = CrystalContext(F, SphereGrid.planar(20000))  # raises if a build check fails
        assert ctx.envelope.values.shape == (20000,)
        assert ctx.norm((1.0, 0.0)) == pytest.approx(F((1.0, 0.0)), rel=1e-9)

    def test_build_memory_is_linear_in_the_grid(self):
        # A grid x grid scan at 2880 directions needs about 200 MB.
        tracemalloc.start()
        try:
            CrystalContext(PNorm(3.0), SphereGrid.planar(2880))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_contexts_keep_under_eight_floats_per_grid_direction(self):
        # A context keeps F on the grid and, per crystal vertex, its two
        # coordinates, edge normal, offset and edge angle: seven floats. A
        # grid of its own and the dual hull took four more.
        size, count = 2880, 4
        grid = SphereGrid.planar(size)
        CrystalContext(PNorm(3.0), grid)  # reads the grid's directions
        tracemalloc.start()
        try:
            held = [CrystalContext(PNorm(3.0), SphereGrid.planar(size)) for _ in range(count)]
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(held[0].crystal.vertices) == size
        assert kept < count * size * 8 * 8


class TestPolar:
    def test_square_to_cross_polytope(self):
        got = sorted_rows(polar(SQUARE).vertices)
        want = sorted_rows([[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert np.allclose(got, want, atol=1e-12)

    def test_disk_polygon_nearly_self_polar(self, euclid_ctx):
        d = hausdorff_distance(polar(euclid_ctx.crystal), euclid_ctx.crystal)
        assert d <= 2 * euclid_ctx.resolution**2

    def test_involution_on_random_polygons_containing_origin(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.uniform(-1.0, 1.0, size=(10, 2))
            pts -= pts.mean(axis=0)  # centroid at 0 keeps the origin interior
            region = ConvexRegion.from_points(pts)
            assert hausdorff_distance(polar(polar(region)), region) <= 1e-9

    def test_double_polar_of_cloud_not_containing_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pts = rng.uniform(0.5, 2.0, size=(8, 2))  # strictly positive quadrant
            expected = convex_hull_ccw(np.vstack([pts, [[0.0, 0.0]]]))
            got = double_polar(pts)
            assert hausdorff_distance(got.vertices, expected) <= 1e-3

    def test_double_polar_is_scale_free(self):
        # The box perturbs the result by about scale / box_factor at any scale.
        rng = np.random.default_rng(13)
        for _ in range(5):
            pts = rng.uniform(-1.0, 1.0, size=(12, 2)) + rng.uniform(-0.5, 1.5, size=2)
            for s in (1.0, 2.0**900, 2.0**-900, 1e20, 1e-20, 1e100, 1e-100):
                cloud = s * pts
                expected = convex_hull_ccw(np.vstack([cloud, [[0.0, 0.0]]]))
                got = double_polar(cloud).vertices
                assert hausdorff_distance(got, expected) <= 2e-4 * np.abs(cloud).max(), s

    def test_double_polar_refuses_a_zero_cloud(self):
        with pytest.raises(ValueError, match="nonzero"):
            double_polar(np.zeros((5, 2)))

    def test_polar_requires_origin_interior(self):
        shifted = SQUARE.translated((5.0, 0.0))
        with pytest.raises(ValueError, match="origin"):
            polar(shifted)


def random_clouds(rng, count: int) -> list:
    return [rng.uniform(-1.0, 1.0, size=(12, 2)) + rng.uniform(-0.5, 1.5, size=2) for _ in range(count)]


class TestDoublePolarBatch:
    """double_polars against the one-cloud-at-a-time reference, bit for bit."""

    @staticmethod
    def assert_same(clouds):
        got = double_polars(clouds)
        assert len(got) == len(clouds)
        for vertices, cloud in zip(got, clouds):
            want = reference_double_polar(cloud).vertices
            assert vertices.shape == want.shape
            assert np.array_equal(vertices, want)
            assert np.array_equal(double_polar(cloud).vertices, want)

    def test_random_clouds_at_several_seeds(self):
        for seed in (0, 1, 7, 29, 123):
            self.assert_same(random_clouds(np.random.default_rng(seed), 10))

    def test_extreme_scales(self):
        clouds = random_clouds(np.random.default_rng(13), 3)
        for s in (2.0**900, 2.0**-900, 1e20, 1e-20, 1e100, 1e-100):
            self.assert_same([s * c for c in clouds])
        self.assert_same([s * clouds[0] for s in (1.0, 2.0**900, 1e-100, 1e20)])

    def test_mixed_sizes_and_a_cloud_around_the_origin(self):
        rng = np.random.default_rng(17)
        around = rng.uniform(-1.0, 1.0, size=(40, 2))
        around -= around.mean(axis=0)
        clouds = [around, rng.uniform(0.5, 2.0, size=(3, 2)), rng.uniform(-1.0, 1.0, size=(1, 2)) + 2.0]
        self.assert_same(clouds)
        # Around the origin the box is redundant: the hull itself comes back.
        got = double_polar(around).vertices
        assert hausdorff_distance(got, convex_hull_ccw(around)) <= 1e-12

    def test_a_collinear_cloud_is_pruned_in_the_batch(self, monkeypatch):
        # The middle point of the top edge lies 1e-13 above its chord: the
        # hull keeps it, the pruning drops it, in the batch's one pass.
        collinear = np.array([[1.0, 3.0], [2.0, 3.0 + 1e-13], [3.0, 3.0], [3.0, 1.0]])
        assert len(convex_hull_ccw(collinear)) == len(planar.hull_cycle(collinear)) - 1
        clouds = [*random_clouds(np.random.default_rng(3), 2), collinear]
        pruned = []
        real = planar.strictly_convex
        monkeypatch.setattr(planar, "strictly_convex", lambda c: pruned.append(len(c)) or real(c))
        got = double_polars(clouds)
        assert pruned == []
        monkeypatch.undo()
        for vertices, cloud in zip(got, clouds):
            assert np.array_equal(vertices, reference_double_polar(cloud).vertices)

    def test_refusals_match_the_reference(self):
        good = random_clouds(np.random.default_rng(5), 1)[0]
        for bad in (np.zeros((5, 2)), np.full((4, 2), math.nan), np.array([[1.0, math.inf], [0.0, 1.0]]),
                    np.array([[2.0, 1.0], [-math.inf, 0.0]]), np.zeros((0, 2))):
            with pytest.raises(ValueError) as reference:
                reference_double_polar(bad)
            for clouds in ([bad], [good, bad]):
                with pytest.raises(ValueError) as batch:
                    double_polars(clouds)
                assert str(batch.value) == str(reference.value)
            with pytest.raises(ValueError) as lone:
                double_polar(bad)
            assert str(lone.value) == str(reference.value)

    def test_the_checks_refuse_a_bad_cycle_with_the_region_messages(self):
        square = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        starts, nxt = planar.cycle_links([4, 4])
        with pytest.raises(ValueError, match="strictly convex"):
            crystal.checked_cycles(np.vstack([square, square[::-1]]), starts, nxt)
        with pytest.raises(ValueError, match="finite"):
            crystal.checked_cycles(np.vstack([square, [[math.nan, 0.0], *square[1:]]]), starts, nxt)


class TestSuiteDoublePolarCheck:
    def test_gaps_match_the_reference_and_draw_the_same_numbers(self):
        for seed in range(40):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert suite._double_polar_gaps(rng) == reference_double_polar_gaps(reference_rng), seed
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_twenty_hulls(self, monkeypatch):
        hulls = []
        real = planar.hull_cycle
        monkeypatch.setattr(planar, "hull_cycle", lambda *a: hulls.append(1) or real(*a))
        suite._double_polar_gaps(np.random.default_rng(0))
        assert len(hulls) == 20

    @pytest.mark.parametrize("F", [PNorm(3.0), Crystalline([((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0), ((-1.0, -1.0), 1.5)])],
                             ids=["p3", "crystalline"])
    def test_the_suite_reports_what_the_reference_gives(self, monkeypatch, F):
        ctx = CrystalContext(F, SphereGrid.planar(60))
        for seed in (0, 5):
            batch = suite.run_suite(ctx, seed)
            with monkeypatch.context() as patch:
                patch.setattr(suite, "_double_polar_gaps", reference_double_polar_gaps)
                assert suite.run_suite(ctx, seed) == batch


class TestSuiteDraws:
    """One draw per suite stage gives the numbers, and leaves the generator,
    as drawing them one by one does."""

    def test_geodesic_endpoints_and_the_state_after_them(self, monkeypatch, l1_ctx):
        for seed in (0, 1, 7, 12345):
            pairs, states = [], []
            real = suite.construct_geodesic
            with monkeypatch.context() as patch:
                patch.setattr(suite, "construct_geodesic", lambda c, x, y: pairs.append((x, y)) or real(c, x, y))
                patch.setattr(suite, "_competitor_ratios", lambda F, g, rng, n: states.append(rng.bit_generator.state) or [])
                suite.run_suite(l1_ctx, seed)
            rng = np.random.default_rng(seed)
            reference_double_polar_gaps(rng)
            want = [(rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=2)) for _ in range(10)]
            assert [(x.tolist(), y.tolist()) for x, y in pairs] == [(x.tolist(), y.tolist()) for x, y in want]
            assert states == [rng.bit_generator.state]


class TestSuiteBallCheck:
    @staticmethod
    def reference_ball_gap(ctx) -> float:
        return hausdorff_distance(polar(geodesic_ball(ctx, (0.0, 0.0), 1.0)), ctx.crystal)

    def test_the_unit_ball_is_the_polar_body(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            ball = geodesic_ball(ctx, (0.0, 0.0), 1.0)
            assert np.array_equal(ball.vertices, ctx.polar_body.vertices), name

    @pytest.mark.parametrize("kind", README_COSTS)
    def test_the_reused_gap_is_the_balls_own(self, monkeypatch, kind):
        ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(60))
        polars = []
        real = suite.polar
        monkeypatch.setattr(suite, "polar", lambda r: polars.append(1) or real(r))
        checks = {c.name: c for c in suite.run_suite(ctx, 3)}
        assert len(polars) == 1
        ball = checks["ball-polar-is-crystal"]
        assert ball.measured == checks["polar-involution-crystal"].measured == self.reference_ball_gap(ctx)
        assert ball.bound == 5 * ctx.resolution * ctx.crystal.diameter

    def test_another_ball_takes_its_own_polar(self, monkeypatch, p3_ctx):
        # A ball that is not the polar body vertex for vertex: the same
        # points, rotated in the cycle.
        real = suite.geodesic_ball
        rolled = lambda c, x, r: ConvexRegion(np.roll(real(c, x, r).vertices, 1, axis=0))  # noqa: E731
        monkeypatch.setattr(suite, "geodesic_ball", rolled)
        polars = []
        real_polar = suite.polar
        monkeypatch.setattr(suite, "polar", lambda r: polars.append(1) or real_polar(r))
        checks = {c.name: c for c in suite.run_suite(p3_ctx, 3)}
        assert len(polars) == 2
        want = hausdorff_distance(polar(rolled(p3_ctx, (0.0, 0.0), 1.0)), p3_ctx.crystal)
        assert checks["ball-polar-is-crystal"].measured == want


class TestSuiteAtFineGrids:
    @pytest.mark.parametrize("F", [PNorm(3.0), Constant(1.0)], ids=["pnorm", "constant"])
    def test_passes_at_grid_11520(self, F):
        # Each Hausdorff gap is one sweep over two polygons of about 11520 vertices.
        checks = suite.run_suite(CrystalContext(F, SphereGrid.planar(11520)), seed=0)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]

    @pytest.mark.parametrize("size", [11520, 20000])
    @pytest.mark.parametrize("p", [3.0, 8.0, 60.0])
    def test_the_crystal_keeps_every_grid_constraint(self, p, size):
        # Pruning a real grid constraint from the dual hull lets the crystal
        # poke past it, so the envelope would exceed F there.
        F = PNorm(p)
        ctx = CrystalContext(F, SphereGrid.planar(size))
        assert float((ctx.envelope.values - F.values_on(ctx.grid.directions)).max()) <= 1e-9 * ctx.f_max

    def test_the_pnorm3_suite_passes_at_grid_20000(self, tmp_path, capsys):
        spec = tmp_path / "pnorm3.json"
        spec.write_text('{"kind": "pnorm", "p": 3}\n')
        assert cli.main(["suite", str(spec), "--grid", "20000"]) == 0


class TestSupportQueries:
    def test_square_support_values(self):
        assert SQUARE.support((1.0, 1.0)) == pytest.approx(2.0, abs=1e-15)
        assert SQUARE.support((1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert SQUARE.support((0.0, 0.0)) == 0.0

    def test_supporting_hyperplane_offsets(self, euclid_ctx):
        assert SQUARE.support((1.0, 0.0)) == pytest.approx(1.0)
        assert SQUARE.support(np.array([1.0, 1.0]) / SQ2) == pytest.approx(SQ2)
        offset = euclid_ctx.crystal.support((0.6, -0.8))
        assert offset == pytest.approx(1.0, abs=euclid_ctx.resolution**2)

    def test_offset_is_vertex_maximum(self):
        rng = np.random.default_rng(3)
        region = ConvexRegion.from_points(rng.normal(size=(20, 2)))
        for _ in range(20):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            assert abs(region.support(v) - (region.vertices @ v).max()) <= 1e-9


class TestNormAndDistance:
    def test_l1_norm_values(self, l1_ctx):
        assert l1_ctx.norm((1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)
        assert l1_ctx.norm((1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert l1_ctx.norm((0.0, 0.0)) == 0.0

    def test_support_and_gauge_agree_for_sampled_costs(self, dip_ctx):
        # Dual routes: support of the crystal vs gauge of its polar.
        rng = np.random.default_rng(5)
        bound = 2 * dip_ctx.resolution * dip_ctx.f_max
        for _ in range(50):
            v = rng.normal(size=2)
            s = dip_ctx.crystal.support(v)
            g = dip_ctx.polar_body.gauge(v)
            assert abs(s - g) <= 1e-9 * max(1.0, abs(s))
            # The halfplane crystal agrees at grid accuracy.
            outer = dip_ctx.crystal.support(v)
            assert 0.0 <= outer - s + 1e-12 and outer - s <= bound * np.linalg.norm(v)

    def test_convex_norm_matches_polygon_support_at_grid_accuracy(self, p3_ctx):
        rng = np.random.default_rng(9)
        bound = 2 * p3_ctx.resolution * p3_ctx.f_max
        for _ in range(50):
            v = rng.normal(size=2)
            assert abs(p3_ctx.norm(v) - p3_ctx.crystal.support(v)) <= bound * np.linalg.norm(v)

    def test_norm_is_asymmetric_for_asymmetric_costs(self, dip_ctx):
        assert dip_ctx.norm((1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
        assert dip_ctx.norm((-1.0, 0.0)) == pytest.approx(1.0, abs=1e-4)


def cut_disk_norm(c, u, d, v) -> float:
    """Support of the disk of radius c cut by the chord {<x, u> = d}: c|v|
    outside the normal cones of the chord's ends, <v, end> inside them."""
    r = math.hypot(*v)
    half_width = math.acos(d / c)  # angle from u to either chord end
    off = abs(math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]))
    return r * c * (math.cos(off - half_width) if off < half_width else 1.0)


class TestMinNorm:
    @pytest.mark.parametrize("size", [60, 720, 2880])
    def test_dip_over_a_constant_is_within_res_squared_above_the_cut_disk(self, size):
        # The norm never undercuts the true one and overshoots it by at most
        # resolution**2, relative, inside the cones of the chord's ends.
        rng = np.random.default_rng(size)
        grid = SphereGrid.planar(size)
        for _ in range(20):
            c = float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(0.0, 2.0 * math.pi))
            u = (math.cos(t), math.sin(t))
            d = c * float(rng.uniform(0.2, 1.0))
            ctx = CrystalContext(Dip(Constant(c), [(u, d)]), grid)
            # Half the directions near the dip, where the cones are.
            near = t + rng.uniform(-1.2, 1.2, 100) * math.acos(d / c)
            angles = np.concatenate([near, rng.uniform(0.0, 2.0 * math.pi, 100)])
            scales = 10.0 ** rng.uniform(-3, 3, len(angles))
            for a, s in zip(angles, scales):
                v = (s * math.cos(a), s * math.sin(a))
                exact = cut_disk_norm(c, u, d, v)
                n = ctx.norm(v)
                assert n >= exact * (1.0 - 1e-12), (c, u, d, v)
                assert n <= exact * (1.0 + grid.resolution**2), (c, u, d, v)

    def test_sampled_norm_is_the_smaller_of_cost_and_support(self, dip_ctx):
        rng = np.random.default_rng(19)
        table_ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(60))
        for ctx in (dip_ctx, table_ctx):
            for v in rng.normal(size=(200, 2)):
                assert ctx.norm(v) == min(ctx.integrand(v), ctx.crystal.support(v))


class TestLazyPolarBody:
    @pytest.mark.parametrize("size", [60, 720, 2880])
    @pytest.mark.parametrize("kind", sorted(README_COSTS))
    def test_queries_leave_the_polar_body_unbuilt(self, kind, size):
        ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(size))
        assert "polar_body" not in vars(ctx)
        rng = np.random.default_rng(size)
        # The bisector of the widest normal cone, between the normals on either side of a vertex.
        normals = ctx.crystal.normals
        k = int(np.argmin(np.sum(normals * np.roll(normals, 1, axis=0), axis=1)))
        x, families = (0.25, -0.5), 0
        for v in [*rng.normal(size=(20, 2)).tolist(), [1.0, 0.0], [1.0, 1.0], (normals[k - 1] + normals[k]).tolist()]:
            y = (x[0] + v[0], x[1] + v[1])
            queries = [
                lambda: ctx.norm(v),
                lambda: ctx.distance(x, y),
                lambda: is_geodesic(ctx, construct_geodesic(ctx, x, y)),
                lambda: decompose_direction(ctx, v),
                lambda: ctx.in_contact_many(np.array([v])),
            ]
            if classify(ctx, x, y) is GeodesicClass.INFINITELY_MANY:
                queries.append(lambda: geodesic_family(ctx, x, y, 0.5))
                families += 1
            for query in queries:
                query()
                assert "polar_body" not in vars(ctx), (kind, v)
        assert families > 0 or kind == "constant"
        body, want = ctx.polar_body, polar(ctx.crystal)
        assert body.vertices.tobytes() == want.vertices.tobytes()
        _, _, px, py = ctx._edge_columns
        assert np.column_stack([px, py]).tobytes() == body.vertices.tobytes()
        # The ball is (0, 0) + 1 * the vertices: 0.0 + -0.0 is 0.0.
        assert geodesic_ball(ctx, (0, 0), 1).vertices.tobytes() == (0.0 + body.vertices).tobytes()

    def test_a_crystal_without_the_origin_inside_is_refused_at_first_read(self, monkeypatch):
        # Hulls refuse such costs first; this keeps polar's refusal all the same, on the
        # crystal's first read: a convex cost's, and a sampled one's, which its first query makes.
        monkeypatch.setattr(crystal, "_crystal_from_dual", lambda dual: ConvexRegion([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        ctx = CrystalContext(Constant(1.0), SphereGrid.planar(60))
        assert ctx.distance((0.0, 0.0), (3.0, 4.0)) == 5.0
        for _ in range(2):  # a refused read is not kept
            with pytest.raises(ValueError, match=crystal.UNBOUNDED_POLAR):
                ctx.crystal
        ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(60))
        for read in (lambda: ctx.distance((0.0, 0.0), (3.0, 4.0)), lambda: ctx.crystal):
            with pytest.raises(ValueError, match=crystal.UNBOUNDED_POLAR):
                read()


TABLE_SPEC = ('{"kind": "table", "dimension": 2, "interpolation": "linear", "samples": '
              '[{"angle": 0.0, "value": 1.0}, {"angle": 2.0, "value": 1.4}, {"angle": 4.0, "value": 1.1}]}')

# Each stage of a sampled crystal's build with a refusal it makes: the table's values on
# the scan directions (zero; infinite off the x axis, so the dual points are collinear;
# infinite where x <= 1/2, so they lie in a half-plane with the origin on their hull),
# or the built region handed to the polar with the origin on its boundary.
_REFUSED_BUILDS = {
    "not positive": ("scan and hull", "cost is not positive on the scan directions",
                     lambda d: np.zeros(len(d))),
    "collinear": ("scan and hull", "point cloud is degenerate (collinear)",
                  lambda d: np.where(np.abs(d[:, 1]) < 1e-12, 1.0, math.inf)),
    "unbounded": ("scan and hull", "halfplane intersection is unbounded: scan directions do not positively span",
                  lambda d: np.where(d[:, 0] > 0.5, 1.0, math.inf)),
    "origin on the boundary": ("polar", crystal.UNBOUNDED_POLAR, None),
}


class TestBuildRefusalStages:
    """A refused crystal build names its stage before the refusal it passes on."""

    @staticmethod
    def _refuse(monkeypatch, case: str) -> str:
        stage, message, values = _REFUSED_BUILDS[case]
        if values is None:
            triangle = ConvexRegion([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
            monkeypatch.setattr(crystal, "_crystal_from_dual", lambda dual: triangle)
        else:
            monkeypatch.setattr(AngularTable, "values_on", lambda self, d: values(d))
        return f"crystal build, {stage}: {message}"

    @pytest.mark.parametrize("case", sorted(_REFUSED_BUILDS))
    def test_a_context_names_the_stage(self, monkeypatch, case):
        refusal = self._refuse(monkeypatch, case)
        ctx = CrystalContext(README_COSTS["table"](), SphereGrid.planar(60))
        for read in (lambda: ctx.crystal, lambda: ctx.distance((0.0, 0.0), (1.0, 2.0))):
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}"):
                read()

    @pytest.mark.parametrize("case", sorted(_REFUSED_BUILDS))
    def test_the_cli_names_the_stage_and_exits_1(self, monkeypatch, tmp_path, capsys, case):
        refusal = self._refuse(monkeypatch, case)
        spec = tmp_path / "table.json"
        spec.write_text(TABLE_SPEC)
        assert cli.main(["distance", str(spec), "0,0", "1,2", "--grid", "60"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {refusal}"), captured.err


def _random_crystalline(rng) -> Crystalline:
    while True:
        k = int(rng.integers(3, 9))
        angles, weights = rng.uniform(0.0, 2.0 * math.pi, k), rng.uniform(0.2, 3.0, k)
        with contextlib.suppress(ValueError):  # an angular gap of pi or more
            return Crystalline([((math.cos(a), math.sin(a)), w) for a, w in zip(angles.tolist(), weights.tolist())])


class TestExactCrystals:
    """Polygonal costs read their crystal off their generators; the grid crystal
    (:func:`build_crystal`) stays the reference it is tested against."""

    @pytest.mark.parametrize("size", [60, 720, 2880])
    def test_the_exact_polygon_is_the_grid_crystal(self, size):
        # The same vertex count, order and start vertex; each coordinate within 1e-12 of
        # the largest (measured here: 1.7e-13 over 300 random specs at the three sizes).
        rng = np.random.default_rng(size)
        costs = [README_COSTS["pnorm"](), PNorm(math.inf), README_COSTS["crystalline"]()]
        costs += [_random_crystalline(rng) for _ in range(60)]
        grid = SphereGrid.planar(size)
        for F in costs:
            exact = CrystalContext(F, grid).crystal.vertices
            reference = build_crystal(F, grid).vertices
            assert exact.shape == reference.shape, F.crystal_corners
            assert np.abs(exact - reference).max() <= 1e-12 * np.abs(reference).max(), F.crystal_corners

    def test_a_fixed_point_failure_is_refused_on_the_first_read(self, monkeypatch):
        # A crystal twice the cost's is no envelope fixed point: the check runs on the
        # crystal's first read, which every query of a polygonal cost makes. The refusal
        # names its bound, and the context keeps the gap it refused.
        F = README_COSTS["crystalline"]()
        monkeypatch.setattr(Crystalline, "crystal_corners", property(lambda self: 2.0 * polygon_corners(self.generators)))
        grid = SphereGrid.planar(720)
        ctx = CrystalContext(F, grid)
        bound = 2.0 * grid.resolution * float(F.values_on(grid.directions).max())
        support = planar.support_values(2.0 * polygon_corners(F.generators), grid.directions)
        gap = float(np.abs(support - F.values_on(grid.directions)).max())
        assert gap > bound
        for read in (lambda: ctx.crystal, lambda: ctx.distance((0.0, 0.0), (1.0, 2.0)), lambda: ctx.polar_body):
            with pytest.raises(RuntimeError, match="convex cost is not an envelope fixed point: gap") as refusal:
                read()
            assert f"gap {gap:.3e} above the bound 2 res maxF = {bound:.3e}" in str(refusal.value)
            assert ctx.fixed_point_gap == gap


def _use(ctx: CrystalContext, read_polar_body: bool = True) -> CrystalContext:
    """ctx after the five calls of a query, of two displacements, and a read of its polar body."""
    for x, y in (((0.0, 0.0), (1.0, 2.0)), ((0.5, -1.0), (-2.0, 0.25))):
        ctx.distance(x, y)
        label = classify(ctx, x, y)
        is_geodesic(ctx, construct_geodesic(ctx, x, y))
        if label is GeodesicClass.INFINITELY_MANY:
            geodesic_family(ctx, x, y, 0.5)
    if read_polar_body:
        ctx.polar_body
    return ctx


def _answers(ctx: CrystalContext) -> list:
    """Every answer of :func:`_use`'s queries, and of the context's lazy reads, as plain values."""
    out = []
    for x, y in (((0.0, 0.0), (1.0, 2.0)), ((0.5, -1.0), (-2.0, 0.25)), ((3.0, 1.0), (-1.0, -1.0))):
        path = construct_geodesic(ctx, x, y)
        label = classify(ctx, x, y)
        family = geodesic_family(ctx, x, y, 0.5).points.tolist() if label is GeodesicClass.INFINITELY_MANY else None
        out.append((ctx.distance(x, y), label, path.points.tolist(), is_geodesic(ctx, path).as_dict(), family))
    out.append((ctx.polar_body.vertices.tolist(), ctx.wulff.values.tolist(), ctx.envelope.values.tolist()))
    return out


class TestOneHull:
    @pytest.mark.parametrize("kind", sorted(README_COSTS))
    def test_construction_builds_nothing(self, kind, monkeypatch):
        # Every family makes what it reads on first read: constructing a context
        # evaluates no F, scans nothing, hulls nothing and reads no corners.
        F = README_COSTS[kind]()
        calls = []

        def counted(name, read):
            return lambda *args: calls.append(name) or read(*args)

        for cls in vars(integrand).values():
            if isinstance(cls, type) and issubclass(cls, Integrand):
                if "values_on" in vars(cls):
                    monkeypatch.setattr(cls, "values_on", counted("values_on", vars(cls)["values_on"]))
                if "crystal_corners" in vars(cls):
                    corners = vars(cls)["crystal_corners"]
                    read = counted("crystal_corners", lambda obj, corners=corners: corners.__get__(obj, type(obj)))
                    monkeypatch.setattr(cls, "crystal_corners", property(read))
        for module, name in ((crystal, "scan"), (integrand, "scan"), (planar, "hull_cycle")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        ctx = CrystalContext(F, SphereGrid.planar(720))
        assert calls == []
        assert sorted(vars(ctx)) == ["_last", "default_tol", "grid", "integrand", "resolution"]
        ctx.crystal
        assert "crystal_corners" in calls and "values_on" in calls

    @pytest.mark.parametrize("kind", sorted(README_COSTS))
    def test_a_build_runs_one_hull(self, kind, monkeypatch):
        # A table or dip context scans F and hulls the dual points once, on its first query.
        # A polygonal one reads its exact polygon and never scans; one without corners
        # answers the five query calls with neither a scan nor a hull.
        F = README_COSTS[kind]()
        F.special_directions, F.crystal_corners  # a crystalline cost hulls its facets once, on its own
        hulls, scans = [], []
        hull_cycle, scan = planar.hull_cycle, crystal.scan
        monkeypatch.setattr(planar, "hull_cycle", lambda pts: hulls.append(1) or hull_cycle(pts))
        monkeypatch.setattr(crystal, "scan", lambda *args: scans.append(1) or scan(*args))
        ctx = CrystalContext(F, SphereGrid.planar(720))
        sampled = F.crystal_corners is None
        ctx.distance((0.0, 0.0), (1.0, 2.0))
        assert (len(scans), len(hulls)) == ((1, 1) if sampled else (0, 0))
        _use(ctx, read_polar_body=False)
        if sampled:
            assert (len(scans), len(hulls)) == (1, 1)
        elif corner_free(F):
            assert (len(scans), len(hulls)) == (0, 0) and "crystal" not in vars(ctx)
        else:
            assert len(scans) == 0 and ctx.crystal.vertices.tobytes() == F.crystal_corners.tobytes()

    @pytest.mark.parametrize("kind", sorted(README_COSTS))
    def test_a_context_polarizes_its_crystal_once(self, kind, monkeypatch):
        # The analysis and the polar body read one array of polar points.
        ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
        ctx.crystal
        calls, polar_of_halfspaces = [], planar.polar_of_halfspaces
        monkeypatch.setattr(planar, "polar_of_halfspaces", lambda *args: calls.append(1) or polar_of_halfspaces(*args))
        _use(ctx)
        ctx._edge_columns
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", sorted(README_COSTS))
    def test_queries_answer_the_same_with_the_grid_products_read_first(self, kind):
        grid = SphereGrid.planar(720)
        plain, primed = CrystalContext(README_COSTS[kind](), grid), CrystalContext(README_COSTS[kind](), grid)
        primed.crystal, primed.polar_body, primed._f_grid
        assert _answers(primed) == _answers(plain)

    @pytest.mark.parametrize("size", [60, 720, 2880])
    def test_lazy_transforms_equal_the_free_functions(self, size):
        grid = SphereGrid.planar(size)
        for kind, cost in README_COSTS.items():
            F = cost()
            ctx = CrystalContext(F, grid)
            assert np.array_equal(ctx.wulff.values, wulff_transform(F, grid).values), kind
            support = planar.support_values(ctx.crystal.vertices, grid.directions)
            assert np.array_equal(ctx.envelope.values, support), kind

    def test_contexts_of_one_size_share_their_grid_and_keep_no_dual_hull(self):
        contexts = [CrystalContext(cost(), SphereGrid.planar(60)) for cost in README_COSTS.values()]
        assert all(ctx.grid is contexts[0].grid for ctx in contexts)
        assert all(ctx.grid.directions is contexts[0].grid.directions for ctx in contexts)
        assert CrystalContext(Constant(1.0)).grid is SphereGrid.planar(720)
        for ctx in contexts:
            _use(ctx)
            ctx.wulff, ctx.envelope
            assert not hasattr(ctx, "_dual")

    @pytest.mark.parametrize("kind", sorted(README_COSTS))
    def test_a_used_context_pickles_and_answers_the_same(self, kind):
        ctx = CrystalContext(README_COSTS[kind](), SphereGrid.planar(720))
        before = _use(ctx)
        loaded = pickle.loads(pickle.dumps(ctx))
        assert loaded.grid is ctx.grid
        assert np.array_equal(loaded.polar_body.vertices, ctx.polar_body.vertices)
        assert _answers(_use(loaded)) == _answers(before)
        assert _answers(_use(CrystalContext(README_COSTS[kind](), SphereGrid(720)))) == _answers(before)

    @pytest.mark.parametrize("size", [60, 720])
    def test_envelope_is_the_table_of_its_samples(self, size):
        # The transforms are table costs: the envelope evaluates exactly as
        # the AngularTable of its grid samples does.
        grid = SphereGrid.planar(size)
        rng = np.random.default_rng(size)
        dirs = rng.normal(size=(300, 2))
        dirs = np.vstack([dirs / np.hypot(dirs[:, 0], dirs[:, 1])[:, None], grid.directions])
        xs = dirs * rng.uniform(1e-3, 1e3, size=(len(dirs), 1))
        for kind, cost in README_COSTS.items():
            ctx = CrystalContext(cost(), grid)
            assert isinstance(ctx.envelope, Integrand) and isinstance(ctx.wulff, Integrand), kind
            table = AngularTable(grid.angles, ctx.envelope.values)
            assert np.array_equal(ctx.envelope.values_on(dirs), table.values_on(dirs)), kind
            assert [ctx.envelope(x) for x in xs] == [table(x) for x in xs], kind


class TestEnvelopeChecks:
    """What run_suite's envelope checks compare, now that the envelope is the
    crystal's support."""

    @staticmethod
    def checks(ctx):
        return {c.name: c for c in suite.run_suite(ctx, seed=0)}

    def test_envelope_is_support_measures_the_sampled_envelope(self):
        grid = SphereGrid.planar(60)
        for kind, cost in README_COSTS.items():
            F = cost()
            ctx = CrystalContext(F, grid)
            want = float(np.abs(convex_envelope(F, grid).values - ctx.envelope.values).max())
            assert self.checks(ctx)["envelope-is-support"].measured == want, kind

    @pytest.mark.parametrize("size", [60, 720])
    def test_convex_fixed_point_is_the_builds_gap(self, size):
        grid = SphereGrid.planar(size)
        for kind, cost in README_COSTS.items():
            F = cost()
            if not F.is_convex:
                continue
            ctx = CrystalContext(F, grid)
            support = planar.support_values(ctx.crystal.vertices, grid.directions)
            want = float(np.abs(support - F.values_on(grid.directions)).max())
            measured = self.checks(ctx)["convex-fixed-point"].measured
            assert measured == want, kind
            assert type(ctx.fixed_point_gap) is float and ctx.fixed_point_gap.hex() == measured.hex(), kind

    def test_a_sharp_crystal_is_its_own_fixed_point(self):
        # A crystalline cost whose crystal has a corner that no direction of
        # the 2880-grid hits: the sampled A(W(F)) cuts it off by more than
        # 2 res maxF, while the crystal's support reproduces F.
        F = fileio.integrand_from_dict({"kind": "crystalline", "facets": [
            {"direction": [0.7714685415849483, 0.6362674668288432], "weight": 1.3729117140630378},
            {"direction": [-0.9630377508460292, -0.26936646124828056], "weight": 0.6074728157774643},
            {"direction": [-0.7089556300289168, -0.7052530855305077], "weight": 1.4325056704975863},
        ]})
        checks = self.checks(CrystalContext(F, SphereGrid.planar(2880)))
        assert checks["convex-fixed-point"].passed
        assert checks["convex-fixed-point"].measured <= 1e-14
        sampled = checks["envelope-is-support"]
        assert not sampled.passed
        assert sampled.measured == 0.007964513278950092


class TestContactFace:
    def test_square_diagonal_hits_the_corner(self):
        face = contact_face(SQUARE, np.array([1.0, 1.0]) / SQ2)
        assert face.shape == (1, 2)
        assert np.allclose(face, [[1.0, 1.0]], atol=1e-12)

    def test_square_axis_hits_an_edge(self):
        face = contact_face(SQUARE, (1.0, 0.0))
        assert face.shape == (2, 2)
        assert np.allclose(face, [[1.0, -1.0], [1.0, 1.0]], atol=1e-12)

    def test_disk_face_sits_near_the_direction(self, euclid_ctx):
        # The halfplane-built disk polygon is circumscribed: grid directions
        # hit tangent edges (midpoint on the circle), directions between grid
        # angles hit single vertices.
        face = contact_face(euclid_ctx.crystal, (1.0, 0.0))
        assert np.linalg.norm(face.mean(axis=0) - [1.0, 0.0]) <= 2 * euclid_ctx.resolution
        half_step = euclid_ctx.resolution / 2.0
        v = np.array([math.cos(half_step), math.sin(half_step)])
        face = contact_face(euclid_ctx.crystal, v)
        assert face.shape == (1, 2)
        assert np.linalg.norm(face[0] - v) <= 2 * euclid_ctx.resolution

    def test_face_attains_the_support_value(self, dip_ctx):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            face = contact_face(dip_ctx.crystal, v)
            s = dip_ctx.crystal.support(v)
            for y in face:
                assert abs(float(y @ v) - s) <= 1e-9


CONTACT_KINDS = [
    PNorm(1.0),
    PNorm(3.0),
    PNorm(math.inf),
    Constant(1.0),
    Crystalline([((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0), ((-1.0, -1.0), 1.5)]),
    AngularTable([0.0, 2.0, 4.0], [1.0, 1.4, 1.1]),
    Dip(Constant(1.0), [((1.0, 0.0), 0.5)]),
]


def loop_in_contact(ctx: CrystalContext, x, tol: float = 1e-6) -> bool:
    """Reference: the cost against the scalar norm, one direction at a time."""
    x = np.asarray(x, dtype=float)
    if math.hypot(*x) == 0.0:
        return True
    fx = ctx.integrand(x)
    return fx - ctx.norm(x) <= tol * fx


class TestContactMany:
    @pytest.mark.parametrize("size", [60, 720])
    def test_matches_the_scalar_queries(self, size):
        rng = np.random.default_rng(size)
        grid = SphereGrid.planar(size)
        for F in CONTACT_KINDS:
            ctx = CrystalContext(F, grid)
            xs = np.vstack(
                [
                    grid.directions,
                    ctx.crystal.normals,
                    rng.normal(size=(50, 2)) * 10.0 ** rng.uniform(-3, 3, size=(50, 1)),
                    np.zeros((1, 2)),
                ]
            )
            got = ctx.in_contact_many(xs)
            assert got.shape == (len(xs),)
            assert got.tolist() == [ctx.in_contact(x) for x in xs], F.kind
            assert got.tolist() == [loop_in_contact(ctx, x) for x in xs], F.kind
            if not F.is_convex:
                x = xs[:-1]
                fx = np.array([F(v) for v in x])
                norms = ctx._norms(x, fx)
                assert np.array_equal(norms, [ctx.norm(v) for v in x]), F.kind
                # Each row alone has its value in the batch.
                alone = [ctx._norms(x[i : i + 1], fx[i : i + 1])[0] for i in range(len(x))]
                assert np.array_equal(norms, alone), F.kind

    def test_sampled_costs_have_directions_out_of_contact(self, dip_ctx):
        got = dip_ctx.in_contact_many(dip_ctx.grid.directions)
        assert got.any() and not got.all()

    def test_rejects_bad_input(self, dip_ctx):
        with pytest.raises(ValueError, match="planar"):
            dip_ctx.in_contact_many(np.ones((3, 3)))

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_rows(self, l1_ctx, dip_ctx):
        # A NaN row was in contact, and an inf one raised only a divide warning.
        for ctx in (l1_ctx, dip_ctx):
            for bad in (math.nan, math.inf, -math.inf):
                xs = np.array([[1.0, 0.0], [0.0, 0.0], [bad, 0.0], [0.0, bad]])
                with pytest.raises(ValueError, match=r"row 2 is not a finite planar vector: \[-?(nan|inf), 0\.0\]"):
                    ctx.in_contact_many(xs)
                with pytest.raises(ValueError, match=r"row 0 is not a finite planar vector"):
                    ctx.in_contact([0.0, bad])

    @pytest.mark.parametrize("x", [1.0, (1.0,), (1.0, 2.0, 3.0)], ids=["scalar", "1-vector", "3-vector"])
    def test_refuses_a_vector_that_is_not_planar_by_name(self, dip_ctx, x):
        # A scalar raised IndexError.
        with pytest.raises(ValueError, match=rf"expected a planar vector, got {re.escape(repr(x))}"):
            dip_ctx.in_contact(x)


class TestOrthogonalDirections:
    def test_l1_axis_is_attained(self, l1_ctx):
        assert l1_ctx.is_orthogonal_direction((1.0, 0.0))

    def test_a_vector_that_is_not_planar_is_refused_by_its_name(self, l1_ctx):
        # The refusal named array([1., 2., 3.]), not the argument.
        with pytest.raises(ValueError, match=r"expected a planar vector, got \(1, 2, 3\)$"):
            l1_ctx.is_orthogonal_direction((1, 2, 3))

    def test_l1_diagonal_is_not(self, l1_ctx):
        assert not l1_ctx.is_orthogonal_direction((1.0, 1.0))

    def test_isotropic_cost_attains_everything(self, euclid_ctx):
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.normal(size=2)
            assert euclid_ctx.is_orthogonal_direction(v)

    def test_direction_beside_an_isolated_dip_is_not(self, grid):
        # The dip's normal is an attained crystal normal, and 0.001 rad off
        # it the polar point is within the resolution; but there the cost
        # is the base's 1, about twice the norm, so no contact.
        ctx = CrystalContext(Dip(Constant(1.0), [((math.cos(0.3), math.sin(0.3)), 0.5)]), grid)
        assert ctx.is_orthogonal_direction((math.cos(0.3), math.sin(0.3)))
        assert not ctx.is_orthogonal_direction((math.cos(0.301), math.sin(0.301)))

    def test_zero_vector_rejected(self, l1_ctx):
        with pytest.raises(ValueError):
            l1_ctx.is_orthogonal_direction((0.0, 0.0))


class TestDualityInvariants:
    def test_polar_body_and_crystal_are_mutual_polars(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            bound = 5 * ctx.resolution * ctx.crystal.diameter
            assert hausdorff_distance(polar(ctx.polar_body), ctx.crystal) <= bound, name
            assert hausdorff_distance(polar(ctx.crystal), ctx.polar_body) <= bound, name

    def test_crystal_is_wulff_hypograph(self, all_ctxs, grid):
        # Membership through the halfplane polygon vs through the radial
        # description must agree away from a boundary collar.
        rng = np.random.default_rng(29)
        for name, ctx in all_ctxs.items():
            W = ctx.wulff
            collar = 5 * ctx.resolution * ctx.crystal.diameter
            pts = rng.uniform(-1.5, 1.5, size=(10_000, 2))
            gauges = np.array([ctx.polar_body.gauge(p) if np.any(p) else 0.0 for p in pts])
            clear = np.abs(gauges - 1.0) > collar  # outside the boundary collar
            agree = 0
            total = 0
            for p, g in zip(pts[clear], gauges[clear]):
                total += 1
                r = np.linalg.norm(p)
                agree += ctx.crystal.contains(p) == (r <= W(p / r))
            assert total > 5000, name
            assert agree == total, name

    def test_envelope_matches_crystal_support_on_grid(self, all_ctxs, grid):
        for name, ctx in all_ctxs.items():
            support = (grid.directions @ ctx.crystal.vertices.T).max(axis=1)
            bound = 2 * ctx.resolution * ctx.f_max
            assert np.abs(ctx.envelope.values - support).max() <= bound, name

    def test_contact_face_equivalences(self, all_ctxs, grid):
        # For every grid direction: the face's midpoint attains the
        # envelope value, and the hyperplane through it with that normal is
        # supporting (max over vertices equals the offset).
        for name, ctx in all_ctxs.items():
            tol = 2 * ctx.resolution * ctx.f_max
            for v in grid.directions[::37]:
                face = contact_face(ctx.crystal, v)
                x_bar = face.mean(axis=0)
                d_v = ctx.norm(v)
                assert abs(float(v @ x_bar) - d_v) <= tol, name
                offset = float((ctx.crystal.vertices @ v).max())
                assert abs(float(v @ x_bar) - offset) <= 1e-9 * max(1.0, offset), name

    def test_attained_normals_are_contact_directions(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            for v in ctx.crystal.normals:
                assert ctx.in_contact(v), f"{name}: normal {v} not in contact"


class TestRegionValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vertices(self, bad):
        for row in range(3):
            for col in range(2):
                vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
                vertices[row, col] = bad
                for cls in (Polygon, ConvexRegion):
                    with pytest.raises(ValueError, match="vertices must be finite"):
                        cls(vertices)

    def test_rejects_clockwise_vertices(self):
        with pytest.raises(ValueError):
            ConvexRegion(np.array([[1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_collinear_triples(self):
        with pytest.raises(ValueError):
            ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))

    def test_a_tiny_region_does_not_contain_a_point_diameters_away(self):
        # The slack is FACE_TOL times the region's magnitude, as contact faces
        # tie; an absolute 1e-9 took in points five diameters outside.
        tiny = ConvexRegion([[0, 0], [1e-10, 0], [0, 1e-10]])
        assert not tiny.contains((5e-10, 5e-10))
        assert tiny.contains((2e-11, 3e-11)) and tiny.contains((0.0, 0.0))

    @pytest.mark.parametrize("k", [-600, -40, -1, 0, 1, 40, 600])
    def test_containment_is_the_same_at_every_scale(self, k):
        triangle = ConvexRegion([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # Inside, on the hypotenuse, within the slack of 1e-9 (0.7e-9 out),
        # past it (1.4e-9 out), and far out.
        points = {(0.2, 0.3): True, (0.5, 0.5): True, (0.5 + 1e-9, 0.5): True, (0.5 + 2e-9, 0.5): False,
                  (-2e-9, 0.5): False, (5.0, 5.0): False}
        region = triangle.scaled(2.0**k)
        for p, inside in points.items():
            assert region.contains(np.ldexp(p, k)) is inside, p

    @pytest.mark.parametrize("order", [[0, 2, 4, 1, 3], [0, 2, 4, 6, 1, 3, 5]])
    def test_rejects_stars_that_wind_twice(self, order):
        # Every turn is left, but the cycle goes round twice; the same
        # points in circle order make a region.
        angles = 2.0 * np.pi * np.array(order) / len(order)
        star = np.column_stack([np.cos(angles), np.sin(angles)])
        e = np.roll(star, -1, axis=0) - star
        f = np.roll(e, -1, axis=0)
        assert np.all(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0] > 0.0)
        with pytest.raises(ValueError, match="strictly convex"):
            ConvexRegion(star)
        assert ConvexRegion(star[np.argsort(order)]).contains((0.9, 0.0))

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_origin_within_rounding_of_an_edge_is_not_interior(self, scale):
        # The bottom edge passes 1e-31 (relative) below the origin, far
        # inside the rounding polar refuses at, so gauge refuses with it.
        region = ConvexRegion(scale * np.array([[-1.0, -1e-31], [1.0, -1e-31], [0.0, 2.0]]))
        assert not region.origin_interior
        with pytest.raises(ValueError, match="origin strictly interior"):
            region.gauge((0.0, -scale))
        with pytest.raises(ValueError, match="origin"):
            polar(region)
        lifted = region.translated((0.0, -0.5 * scale))
        assert lifted.origin_interior and type(lifted) is ConvexRegion
        assert lifted.gauge((0.0, -scale)) == pytest.approx(2.0, rel=1e-12)
        assert polar(lifted).gauge((0.0, 1.0 / scale)) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize(
        "v, message",
        [
            ((math.nan, 0.0), r"vector \(nan, 0.0\) is not finite"),  # once a nan gauge and "outside"
            ((math.inf, 0.0), r"vector \(inf, 0.0\) is not finite"),  # once 0 * inf, numpy's invalid value in matmul
            ((1.0, 2.0, 3.0), "expected a planar vector"),  # once numpy's matmul shape message
        ],
        ids=["nan", "inf", "3-vector"],
    )
    def test_gauge_and_contains_read_their_argument_as_support_does(self, v, message):
        for query in (SQUARE.gauge, SQUARE.contains, SQUARE.support):
            with pytest.raises(ValueError, match=message):
                query(v)

    @pytest.mark.parametrize(
        "shift, message",
        [
            ((1.0,), r"expected a planar vector, got \(1.0,\)"),  # once the square moved by (1, 1)
            ((1.0, 2.0, 3.0), r"expected a planar vector, got \(1.0, 2.0, 3.0\)"),  # once numpy's broadcast message
        ],
        ids=["1-vector", "3-vector"],
    )
    def test_a_shift_is_read_as_a_planar_vector(self, shift, message):
        with pytest.raises(ValueError, match=message):
            SQUARE.translated(shift)
        assert SQUARE.translated((1.0, 2.0)).vertices.tolist() == (SQUARE.vertices + [1.0, 2.0]).tolist()

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
    def test_a_scale_factor_that_is_not_positive_and_finite_is_refused_by_name(self, factor):
        # nan and inf were refused only as "polygon vertices must be finite".
        with pytest.raises(ValueError, match=rf"scale factor must be positive and finite, got {factor!r}"):
            SQUARE.scaled(factor)

    def test_from_points_cleans_input(self):
        region = ConvexRegion.from_points(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 1.0]])
        )
        assert len(region.vertices) == 4

    def test_vertices_satisfy_own_halfspaces_with_two_ties(self):
        region = SQUARE
        normals, offsets = region.halfspaces
        for v in region.vertices:
            vals = normals @ v
            assert np.all(vals <= offsets + 1e-12)
            assert np.sum(np.abs(vals - offsets) <= 1e-9) >= 2
