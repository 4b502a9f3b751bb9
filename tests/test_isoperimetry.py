import math

import numpy as np
import pytest

from anisogeo import (
    PNorm,
    Polygon,
    anisotropic_perimeter,
    isoperimetric_ratio,
    random_wulff_competitor,
    wulff_identity_check,
)

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

    def test_nonconvex_simple_polygon_accepted(self):
        arrow = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5]]))
        assert arrow.area > 0.0


class TestArea:
    def test_square(self):
        assert SQUARE.area == pytest.approx(4.0, abs=1e-15)

    def test_triangle(self):
        assert TRIANGLE.area == pytest.approx(0.5, abs=1e-15)

    def test_disk_polygon(self, euclid_ctx):
        # Circumscribed m-gon: area = m*tan(pi/m), relative error pi^2/(3m^2).
        m = len(euclid_ctx.crystal.vertices)
        poly = Polygon.from_region(euclid_ctx.crystal)
        assert poly.area == pytest.approx(math.pi, rel=4.0 / m**2)


class TestPerimeter:
    def test_isotropic_cost_on_the_square(self, euclid_ctx):
        assert anisotropic_perimeter(euclid_ctx.integrand, SQUARE) == pytest.approx(8.0, abs=1e-12)

    def test_l1_cost_on_the_square(self, l1_ctx):
        # Normals are the four axes, each of unit cost; edge lengths sum to 8.
        assert anisotropic_perimeter(l1_ctx.integrand, SQUARE) == pytest.approx(8.0, abs=1e-12)

    def test_l1_cost_on_the_disk(self, l1_ctx, euclid_ctx):
        # Quadrature of |cos| + |sin| over the circle is 8.
        disk = Polygon.from_region(euclid_ctx.crystal)
        assert anisotropic_perimeter(l1_ctx.integrand, disk) == pytest.approx(8.0, rel=1e-4)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestRatio:
    def test_l1_crystal_ratio_is_four(self, l1_ctx):
        poly = Polygon.from_region(l1_ctx.crystal)
        assert isoperimetric_ratio(l1_ctx.integrand, poly) == pytest.approx(4.0, abs=1e-12)

    def test_isotropic_disk_ratio(self, euclid_ctx):
        poly = Polygon.from_region(euclid_ctx.crystal)
        want = 2.0 * math.sqrt(math.pi)
        assert isoperimetric_ratio(euclid_ctx.integrand, poly) == pytest.approx(want, rel=1e-4)

    def test_l1_on_the_disk_is_suboptimal(self, l1_ctx, euclid_ctx):
        disk = Polygon.from_region(euclid_ctx.crystal)
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


class TestMinimality:
    def test_crystal_beats_random_competitors(self, all_ctxs, grid):
        rng = np.random.default_rng(67)
        for name, ctx in all_ctxs.items():
            own = isoperimetric_ratio(ctx.integrand, Polygon.from_region(ctx.crystal))
            for _ in range(30):
                competitor = random_wulff_competitor(grid, rng)
                other = isoperimetric_ratio(ctx.integrand, competitor)
                assert other >= own - 1e-6, name

    def test_homothets_achieve_equality(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            own = isoperimetric_ratio(ctx.integrand, Polygon.from_region(ctx.crystal))
            for lam, shift in ((0.5, (0, 0)), (3.0, (2, -1)), (1.25, (-4, 4))):
                moved = Polygon.from_region(ctx.crystal).scaled(lam).translated(shift)
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


class TestPNormFamilies:
    def test_square_is_not_optimal_for_euclidean_cost(self, euclid_ctx):
        ratio_square = isoperimetric_ratio(euclid_ctx.integrand, SQUARE)
        disk = Polygon.from_region(euclid_ctx.crystal)
        ratio_disk = isoperimetric_ratio(euclid_ctx.integrand, disk)
        assert ratio_square > ratio_disk

    def test_p3_crystal_minimizes_its_own_ratio(self, p3_ctx, euclid_ctx):
        own = isoperimetric_ratio(p3_ctx.integrand, Polygon.from_region(p3_ctx.crystal))
        disk = isoperimetric_ratio(p3_ctx.integrand, Polygon.from_region(euclid_ctx.crystal))
        square = isoperimetric_ratio(p3_ctx.integrand, SQUARE)
        assert own <= disk + 1e-9
        assert own <= square + 1e-9


def test_perimeter_accepts_pnorm_vectorized():
    F = PNorm(1.5)
    assert anisotropic_perimeter(F, TRIANGLE) > 0.0
