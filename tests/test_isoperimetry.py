import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from anisogeo import (
    AngularTable,
    Constant,
    ConvexRegion,
    Crystalline,
    CrystalContext,
    Dip,
    PNorm,
    Polygon,
    SphereGrid,
    anisotropic_perimeter,
    isoperimetric_ratio,
    random_wulff_competitor,
    wulff_identity_check,
)
from anisogeo import crystal, planar, suite
from anisogeo.crystal import _crystal_from_dual, _edges_cross, _self_intersects
from anisogeo.isoperimetry import _competitor_ratios, _crystal_ratios, _random_table, _random_tables
from anisogeo.suite import run_suite
from anisogeo.planar import convex_hull_ccw

from test_query_kernels import README_COSTS

SQUARE = Polygon(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]))
TRIANGLE = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            Polygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))

    def test_self_intersection_rejected(self):
        # Positive signed area, but edge 0 crosses edge 2.
        crossed = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 2.0], [2.0, -1.0]])
        with pytest.raises(ValueError, match="intersect"):
            Polygon(crossed)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_checks_are_scale_free(self):
        crossed = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 2.0], [2.0, -1.0]])
        repeated = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for scale in (1e-100, 1e-14, 1e14, 1e100):
            assert Polygon(SQUARE.vertices * scale).area == pytest.approx(4.0 * scale**2, abs=0.0)
            with pytest.raises(ValueError, match="intersect"):
                Polygon(crossed * scale)
            with pytest.raises(ValueError, match="degenerate"):
                Polygon(repeated * scale)

    def test_nonconvex_simple_polygon_accepted(self):
        arrow = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5]]))
        assert arrow.area > 0.0


def _star(rng, k: int, radii: tuple[float, float]) -> np.ndarray:
    """k vertices at sorted random angles and random radii: star-shaped."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    r = rng.uniform(*radii, size=k)
    return np.column_stack([r * np.cos(angles), r * np.sin(angles)])


def _lobed_star(k: int) -> np.ndarray:
    """k vertices of the simple, non-convex 7-lobed star r = 1 + cos(7t) / 2."""
    t = 2.0 * np.pi * np.arange(k) / k
    r = 1.0 + 0.5 * np.cos(7.0 * t)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


# Five points of a circle joined every second one: all left turns, two turns round.
PENTAGRAM = np.array(
    [[math.cos(a), math.sin(a)] for a in 2.0 * np.pi * np.array([0, 2, 4, 1, 3]) / 5]
)


class TestSimplicity:
    def test_matches_the_pair_test(self):
        rng = np.random.default_rng(53)
        polygons = []
        for k in (3, 5, 12, 30, 60):
            for _ in range(10):
                polygons.append(convex_hull_ccw(rng.normal(size=(k, 2))))
                polygons.append(_star(rng, k, (0.2, 1.0)))
                polygons.append(rng.normal(size=(k, 2)))  # mostly self-crossing
        polygons.append(PENTAGRAM)
        outcomes = set()
        for v in polygons:
            want = _edges_cross(v)
            assert _self_intersects(v) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_convex_polygons_skip_the_pair_test(self, monkeypatch):
        def refuse(v):
            raise AssertionError("pair test reached")

        monkeypatch.setattr(crystal, "_edges_cross", refuse)
        rng = np.random.default_rng(59)
        for k in (3, 8, 40):
            assert not _self_intersects(convex_hull_ccw(rng.normal(size=(k, 2))))

    def test_row_blocks_give_the_one_block_verdict(self, monkeypatch):
        rng = np.random.default_rng(61)
        polygons = [_star(rng, k, (0.2, 1.0)) for k in (7, 30, 90)]
        polygons += [rng.normal(size=(k, 2)) for k in (7, 30, 90)]
        star = _lobed_star(200)
        bowtie = star.copy()
        bowtie[[120, 121]] = star[[121, 120]]  # one crossing, far from the first rows
        polygons += [star, bowtie]
        want = [_edges_cross(v) for v in polygons]
        assert want[-2:] == [False, True]
        assert set(want) == {True, False}
        for pairs in (1, 7, 500):
            monkeypatch.setattr(crystal, "_BLOCK_PAIRS", pairs)
            assert [_edges_cross(v) for v in polygons] == want, pairs

    def test_blocks_bound_the_memory(self):
        # A simple non-convex polygon takes the pair test on all its edges;
        # one k-by-k pass would need over 200 MB at 2000 vertices.
        star = _lobed_star(2000)
        tracemalloc.start()
        try:
            Polygon(star)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_pentagram_reaches_the_pair_test(self):
        # Every turn is left, but the turns add up to 4 pi.
        e = np.roll(PENTAGRAM, -1, axis=0) - PENTAGRAM
        f = np.roll(e, -1, axis=0)
        assert np.all(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0] > 0.0)
        assert _self_intersects(PENTAGRAM)
        with pytest.raises(ValueError, match="intersect"):
            Polygon(PENTAGRAM)


class TestArea:
    def test_square(self):
        assert SQUARE.area == pytest.approx(4.0, abs=1e-15)

    def test_triangle(self):
        assert TRIANGLE.area == pytest.approx(0.5, abs=1e-15)

    def test_disk_polygon(self, euclid_ctx):
        # Circumscribed m-gon: area = m*tan(pi/m), relative error pi^2/(3m^2).
        m = len(euclid_ctx.crystal.vertices)
        poly = euclid_ctx.crystal
        assert poly.area == pytest.approx(math.pi, rel=4.0 / m**2)


class TestPerimeter:
    def test_isotropic_cost_on_the_square(self, euclid_ctx):
        assert anisotropic_perimeter(euclid_ctx.integrand, SQUARE) == pytest.approx(8.0, abs=1e-12)

    def test_l1_cost_on_the_square(self, l1_ctx):
        # Normals are the four axes, each of unit cost; edge lengths sum to 8.
        assert anisotropic_perimeter(l1_ctx.integrand, SQUARE) == pytest.approx(8.0, abs=1e-12)

    def test_l1_cost_on_the_disk(self, l1_ctx, euclid_ctx):
        # Quadrature of |cos| + |sin| over the circle is 8.
        disk = euclid_ctx.crystal
        assert anisotropic_perimeter(l1_ctx.integrand, disk) == pytest.approx(8.0, rel=1e-4)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestRatio:
    def test_l1_crystal_ratio_is_four(self, l1_ctx):
        poly = l1_ctx.crystal
        assert isoperimetric_ratio(l1_ctx.integrand, poly) == pytest.approx(4.0, abs=1e-12)

    def test_isotropic_disk_ratio(self, euclid_ctx):
        poly = euclid_ctx.crystal
        want = 2.0 * math.sqrt(math.pi)
        assert isoperimetric_ratio(euclid_ctx.integrand, poly) == pytest.approx(want, rel=1e-4)

    def test_l1_on_the_disk_is_suboptimal(self, l1_ctx, euclid_ctx):
        disk = euclid_ctx.crystal
        ratio = isoperimetric_ratio(l1_ctx.integrand, disk)
        assert ratio == pytest.approx(8.0 / math.sqrt(math.pi), rel=1e-3)
        assert ratio > 4.0  # the square is the minimizer for the L1 cost

    def test_homothety_invariance(self, l1_ctx, dip_ctx):
        rng = np.random.default_rng(61)
        poly = Polygon(rng.uniform(0.0, 1.0, size=2) + np.array(
            [[1.5, 0.0], [0.0, 1.2], [-1.1, 0.1], [-0.2, -1.3]]
        ))
        for ctx in (l1_ctx, dip_ctx):
            base = isoperimetric_ratio(ctx.integrand, poly)
            for lam in (0.5, 3.0):
                scaled = isoperimetric_ratio(ctx.integrand, poly.scaled(lam))
                assert scaled == pytest.approx(base, rel=1e-9)
            shifted = isoperimetric_ratio(ctx.integrand, poly.translated((2.0, -7.0)))
            assert shifted == pytest.approx(base, rel=1e-9)


class TestWulffIdentity:
    def test_perimeter_equals_twice_area_on_the_crystal(self, all_ctxs):
        # Every crystal edge lies at support distance equal to its normal's
        # cost, so the cone formula is exact up to roundoff.
        for name, ctx in all_ctxs.items():
            report = wulff_identity_check(ctx)
            assert report.relative_difference <= 1e-12, name
            assert report.perimeter == pytest.approx(2.0 * report.area, rel=1e-12), name

    def test_l1_report_values(self, l1_ctx):
        report = wulff_identity_check(l1_ctx)
        assert report.perimeter == pytest.approx(8.0, abs=1e-12)
        assert report.area == pytest.approx(4.0, abs=1e-12)
        assert report.ratio == pytest.approx(4.0, abs=1e-12)
        assert report.reference_ratio == pytest.approx(4.0, abs=1e-12)
        assert report.isotropic_constant == pytest.approx(2.0 * math.sqrt(math.pi), abs=1e-12)

    def test_isotropic_report_matches_both_constants(self, euclid_ctx):
        report = wulff_identity_check(euclid_ctx)
        assert report.perimeter == pytest.approx(2.0 * math.pi, rel=1e-4)
        assert report.ratio == pytest.approx(report.isotropic_constant, rel=1e-4)

    def test_anisotropic_cost_disagrees_with_isotropic_constant(self, l1_ctx):
        report = wulff_identity_check(l1_ctx)
        assert abs(report.ratio - report.isotropic_constant) > 0.4

    def test_matches_the_unscaled_formulas(self, all_ctxs):
        # Scaling by a power of two is exact, so in the float range the
        # report equals the direct computation on the crystal bit for bit.
        rng = np.random.default_rng(5)
        for name, ctx in all_ctxs.items():
            for poly in (ctx.crystal, random_wulff_competitor(ctx.grid, rng)):
                perimeter = anisotropic_perimeter(ctx.integrand, poly)
                assert isoperimetric_ratio(ctx.integrand, poly) == perimeter / float(np.sqrt(poly.area))
            report = wulff_identity_check(ctx)
            poly = ctx.crystal
            perimeter, area = anisotropic_perimeter(ctx.integrand, poly), poly.area
            assert report.perimeter == perimeter and report.area == area, name
            assert report.ratio == perimeter / float(np.sqrt(area)), name
            assert report.reference_ratio == 2.0 * float(np.sqrt(area)), name
            assert report.relative_difference == abs(perimeter - 2.0 * area) / perimeter, name

    @pytest.mark.filterwarnings("error")
    def test_ratios_hold_past_the_float_range_of_the_area(self, l1_ctx):
        # For c times the max-norm the crystal is c times the unit diamond:
        # ratio and reference are 2*sqrt(2)*c, while the perimeter and the
        # area (4c**2 and 2c**2) leave the float range past about c = 1e+-154.
        for c in (1e-300, 1e-200, 1e200, 1e300):
            ctx = CrystalContext(Crystalline([((1, 0), c), ((0, 1), c), ((-1, 0), c), ((0, -1), c)]),
                                 l1_ctx.grid)
            want = 2.0 * math.sqrt(2.0) * c
            report = wulff_identity_check(ctx)
            assert report.relative_difference <= 1e-12, c
            assert report.ratio == pytest.approx(want, rel=1e-12, abs=0.0), c
            assert report.reference_ratio == pytest.approx(want, rel=1e-12, abs=0.0), c
            assert report.area == (0.0 if c < 1.0 else math.inf), c
            poly = ctx.crystal
            for shape in (poly, poly.scaled(3.0)):
                assert isoperimetric_ratio(ctx.integrand, shape) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestMinimality:
    def test_crystal_beats_random_competitors(self, all_ctxs, grid):
        rng = np.random.default_rng(67)
        for name, ctx in all_ctxs.items():
            own = isoperimetric_ratio(ctx.integrand, ctx.crystal)
            for _ in range(30):
                competitor = random_wulff_competitor(grid, rng)
                other = isoperimetric_ratio(ctx.integrand, competitor)
                assert other >= own - 1e-6, name

    def test_homothets_achieve_equality(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            own = isoperimetric_ratio(ctx.integrand, ctx.crystal)
            for lam, shift in ((0.5, (0, 0)), (3.0, (2, -1)), (1.25, (-4, 4))):
                moved = ctx.crystal.scaled(lam).translated(shift)
                assert isoperimetric_ratio(ctx.integrand, moved) == pytest.approx(
                    own, rel=1e-9
                ), name

    def test_competitors_are_convex_with_grid_normals(self, grid):
        rng = np.random.default_rng(71)
        poly = random_wulff_competitor(grid, rng)
        # Convexity: positive cross product at every vertex.
        v = poly.vertices
        e = np.roll(v, -1, axis=0) - v
        turns = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        assert np.all(turns > 0.0)


def wulff_identity_reference(ctx) -> tuple:
    """The identity's fields as computed on the crystal's vertices
    re-validated as a plain Polygon, with the normals taken afresh."""
    poly = Polygon(ctx.crystal.vertices)
    u, e = planar.unit_scaled(poly.vertices)
    normals, _ = planar.edge_normals_and_offsets(poly.vertices)
    edges = np.concatenate((u[1:], u[:1])) - u
    perimeter = float(ctx.integrand.values_on(normals) @ np.hypot(edges[:, 0], edges[:, 1]))
    area = planar.polygon_area(u)
    with np.errstate(over="ignore"):
        full_perimeter, full_area = float(np.ldexp(perimeter, e)), float(np.ldexp(area, 2 * e))
    return (
        full_perimeter,
        full_area,
        perimeter / math.sqrt(area),
        math.ldexp(2.0 * math.sqrt(area), e),
        2.0 * float(np.sqrt(np.pi)),
        abs(perimeter - 2.0 * math.ldexp(area, e)) / perimeter,
    )


class TestRegionsArePolygons:
    @pytest.mark.parametrize("size", [60, 720])
    def test_measures_take_the_region_itself(self, size):
        # A crystal is a Polygon: measured as it is, it gives what the same
        # vertices give as a plain Polygon, bit for bit.
        grid = SphereGrid.planar(size)
        rng = np.random.default_rng(size)
        for kind, cost in README_COSTS.items():
            ctx = CrystalContext(cost(), grid)
            F, region = ctx.integrand, ctx.crystal
            plain = Polygon(region.vertices)
            assert isoperimetric_ratio(F, region) == isoperimetric_ratio(F, plain), kind
            assert anisotropic_perimeter(F, region) == anisotropic_perimeter(F, plain), kind
            assert dataclasses.astuple(wulff_identity_check(ctx)) == wulff_identity_reference(ctx)
            competitor = random_wulff_competitor(grid, rng)
            ratio = isoperimetric_ratio(F, competitor)
            assert ratio == isoperimetric_ratio(F, Polygon(competitor.vertices)), kind


def area_reference(poly: Polygon) -> float:
    """The shoelace area on the raw vertices."""
    return planar.polygon_area(poly.vertices)


def diameter_reference(region) -> float:
    """The bounding box's diagonal on the raw vertices."""
    spread = region.vertices.max(axis=0) - region.vertices.min(axis=0)
    return float(np.hypot(*spread))


def perimeter_reference(F, poly: Polygon) -> float:
    """The edge sum of F(normal) times edge length on the raw vertices."""
    v = poly.vertices
    e = np.concatenate((v[1:], v[:1])) - v
    return float(F.values_on(poly.normals) @ np.hypot(e[:, 0], e[:, 1]))


class TestUnitScaledMeasures:
    """Area, diameter and anisotropic perimeter are taken on the vertices scaled by a
    power of two and scaled back: the raw formulas' bits where those are finite, and
    inf or 0 without a warning past the float range."""

    @pytest.mark.parametrize("size", [60, 720, 2880])
    def test_in_the_float_range_each_measure_is_the_raw_formula(self, size):
        grid = SphereGrid.planar(size)
        for kind, cost in README_COSTS.items():
            ctx = CrystalContext(cost(), grid)
            F = ctx.integrand
            for region in (ctx.crystal, ctx.polar_body):
                for factor in (2.0**-300, 2.0**-1, 1.0, 2.0**7, 2.0**300, 3.7e-7, 2.9e5):
                    shape = region.scaled(factor)
                    got = (shape.area, shape.diameter, anisotropic_perimeter(F, shape))
                    want = (area_reference(shape), diameter_reference(shape), perimeter_reference(F, shape))
                    assert [x.hex() for x in got] == [x.hex() for x in want], (kind, factor)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-200, 1e160, 1e308])
    def test_a_diamond_past_the_float_range_reads_inf_or_0_without_a_warning(self, c):
        # Area 2 c**2, box diagonal 2 sqrt(2) c, Euclidean perimeter 4 sqrt(2) c: at
        # 1e-200 the area underflows, at 1e160 it overflows, at 1e308 all three do.
        diamond = ConvexRegion([[c, 0.0], [0.0, c], [-c, 0.0], [0.0, -c]])
        assert diamond.area == 2.0 * c * c
        assert diamond.diameter == pytest.approx(2.0 * math.sqrt(2.0) * c, rel=1e-15, abs=0.0)
        assert anisotropic_perimeter(Constant(1.0), diamond) == pytest.approx(4.0 * math.sqrt(2.0) * c, rel=1e-15, abs=0.0)


def competitor_ratios_reference(F, grid, rng, count) -> list:
    """The competitors one at a time, each crystal built and measured on its own."""
    return [isoperimetric_ratio(F, random_wulff_competitor(grid, rng)) for _ in range(count)]


def seven_kinds(rng) -> list:
    """One cost of each kind the benchmark draws: three p-norms, a
    constant, and random crystalline, table and dip costs."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 9))
    weights = rng.uniform(0.5, 2.0, 5)
    facets = [((math.cos(a), math.sin(a)), float(w)) for a, w in zip(np.arange(5) * 1.25, weights)]
    base = PNorm(float(rng.uniform(1.2, 6.0)))
    return [
        PNorm(1.0), PNorm(math.inf), PNorm(float(rng.uniform(1.2, 6.0))),
        Constant(float(rng.uniform(0.5, 2.0))),
        Crystalline(facets), AngularTable(angles, rng.uniform(0.5, 2.0, 9)),
        Dip(base, [((0.6, 0.8), 0.5 * base((0.6, 0.8))), ((-1.0, 0.0), 0.7)]),
    ]


class TestCompetitorBatch:
    @pytest.mark.parametrize("size", [60, 720])
    def test_matches_the_reference_loop(self, size):
        grid = SphereGrid.planar(size)
        for seed in (0, 1, 7, 29):
            for F in seven_kinds(np.random.default_rng(seed)):
                rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _competitor_ratios(F, grid, rng, 20)
                assert got == competitor_ratios_reference(F, grid, reference_rng, 20), (F.kind, seed)
                assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_one_hull_per_competitor(self, monkeypatch):
        hulls = []
        real = planar.hull_cycle
        monkeypatch.setattr(planar, "hull_cycle", lambda *a: hulls.append(1) or real(*a))
        for count in (1, 20):
            hulls.clear()
            _competitor_ratios(PNorm(1.0), SphereGrid.planar(60), np.random.default_rng(count), count)
            assert len(hulls) == count

    def test_collinear_vertices_are_pruned_as_the_reference_prunes_them(self, monkeypatch):
        # Hull cycles as hull_cycle may return them, with vertices collinear
        # up to strictly_convex's tolerance: edge midpoints.
        rng = np.random.default_rng(11)
        cycles = []
        for k in (3, 5, 12):
            t = np.arange(k) * 2.0 * np.pi / k + rng.uniform(-0.2, 0.2, k)
            ring = np.column_stack([np.cos(t), np.sin(t)]) * rng.uniform(0.5, 2.0, (k, 1))
            ring = planar.convex_hull_ccw(ring)
            mid = 0.5 * (ring + np.roll(ring, -1, axis=0))
            cycles += [ring, np.stack((ring, mid), axis=1).reshape(-1, 2)]
        for F in seven_kinds(rng):
            want = [isoperimetric_ratio(F, _crystal_from_dual(c)) for c in cycles]
            assert _crystal_ratios(F, cycles) == want, F.kind
        # Only the cycles with midpoints are flagged and pruned one by one.
        pruned = []
        real = planar.strictly_convex
        monkeypatch.setattr(planar, "strictly_convex", lambda c: pruned.append(len(c)) or real(c))
        _crystal_ratios(PNorm(1.0), cycles)
        assert pruned == [len(c) for c in cycles[1::2]]

    def test_an_unbounded_crystal_is_refused_with_the_reference_message(self):
        square = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        cycles = [square, square + (1.0, 0.0)]  # the second has the origin on an edge
        with pytest.raises(ValueError) as reference:
            _crystal_from_dual(cycles[1])
        with pytest.raises(ValueError) as batch:
            _crystal_ratios(PNorm(1.0), cycles)
        assert str(batch.value) == str(reference.value)
        assert "unbounded" in str(batch.value)

    @pytest.mark.parametrize("size", [60, 720])
    def test_the_suite_reports_what_the_reference_loop_gives(self, monkeypatch, size):
        grid = SphereGrid.planar(size)
        for F in seven_kinds(np.random.default_rng(size))[:: 1 if size == 60 else 3]:
            ctx = CrystalContext(F, grid)
            batch = run_suite(ctx, seed=5)
            with monkeypatch.context() as patch:
                patch.setattr(suite, "_competitor_ratios", competitor_ratios_reference)
                assert run_suite(ctx, seed=5) == batch, F.kind


class RepeatedAngle:
    """``default_rng(seed)``, except that its first draw of table angles
    repeats one angle, so the first table needs a redraw."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.calls: list[str] = []

    def random(self, size):
        self.calls.append("random")
        out = self.rng.random(size)
        out[0, 1] = out[0, 0]
        return out

    def uniform(self, low, high, size):
        self.calls.append("uniform")
        out = self.rng.uniform(low, high, size)
        if self.calls.count("uniform") == 1:
            out[1] = out[0]
        return out


class TestRandomTables:
    @staticmethod
    def loop(rng, count):
        angles, values = zip(*[_random_table(rng) for _ in range(count)])
        return np.array(angles), np.array(values)

    def test_one_draw_gives_the_loops_tables_and_state(self):
        for seed in range(40):
            for count in (1, 20):
                rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = _random_tables(rng, count), self.loop(reference_rng, count)
                for a, b in zip(got, want):
                    assert a.shape == b.shape == (count, 24)
                    assert a.tobytes() == b.tobytes(), seed
                assert rng.bit_generator.state == reference_rng.bit_generator.state, seed

    def test_a_redraw_takes_the_reference_loop(self):
        rng, reference_rng = RepeatedAngle(3), RepeatedAngle(3)
        got, want = _random_tables(rng, 20), self.loop(reference_rng, 20)
        # The batch drew once, was set back, then drew as the loop does:
        # the first table's angles twice, then each table's values and angles.
        assert rng.calls == ["random"] + reference_rng.calls
        assert reference_rng.calls == ["uniform"] * 41
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_the_ratios_after_a_redraw_are_the_reference_loops(self):
        grid = SphereGrid.planar(60)
        rng, reference_rng = RepeatedAngle(5), RepeatedAngle(5)
        got = _competitor_ratios(PNorm(3.0), grid, rng, 20)
        assert got == competitor_ratios_reference(PNorm(3.0), grid, reference_rng, 20)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestPNormFamilies:
    def test_square_is_not_optimal_for_euclidean_cost(self, euclid_ctx):
        ratio_square = isoperimetric_ratio(euclid_ctx.integrand, SQUARE)
        disk = euclid_ctx.crystal
        ratio_disk = isoperimetric_ratio(euclid_ctx.integrand, disk)
        assert ratio_square > ratio_disk

    def test_p3_crystal_minimizes_its_own_ratio(self, p3_ctx, euclid_ctx):
        own = isoperimetric_ratio(p3_ctx.integrand, p3_ctx.crystal)
        disk = isoperimetric_ratio(p3_ctx.integrand, euclid_ctx.crystal)
        square = isoperimetric_ratio(p3_ctx.integrand, SQUARE)
        assert own <= disk + 1e-9
        assert own <= square + 1e-9


def test_perimeter_accepts_pnorm_vectorized():
    F = PNorm(1.5)
    assert anisotropic_perimeter(F, TRIANGLE) > 0.0
