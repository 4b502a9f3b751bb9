import math

import numpy as np
import pytest

from anisogeo import (
    AngularTable,
    Constant,
    Crystalline,
    Dip,
    GridFunction,
    PNorm,
    SphereGrid,
    convex_envelope,
    support_transform,
    wulff_transform,
)
from anisogeo.integrand import unit

SQ2 = math.sqrt(2.0)


def brute_wulff(values_on, grid, v):
    """Independent scan: min of F(w)/<v,w> over grid directions with <v,w> > 0."""
    best = math.inf
    fw = values_on(grid.directions)
    for w, f in zip(grid.directions, fw):
        d = float(np.dot(v, w))
        if d > 1e-12:
            best = min(best, f / d)
    return best


def brute_support(values, grid, v):
    """Independent scan: max of G(w) * <v,w> over grid directions."""
    return max(float(g * np.dot(v, w)) for g, w in zip(values, grid.directions))


class TestEvaluation:
    def test_l1_unit_square_corner(self):
        assert PNorm(1.0)((1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_constant_on_unit_vectors(self):
        F = Constant(1.0)
        for theta in np.linspace(0, 2 * np.pi, 17):
            assert F((math.cos(theta), math.sin(theta))) == pytest.approx(1.0, abs=1e-12)

    def test_dip_attains_reduced_value(self):
        F = Dip(Constant(1.0), [((1.0, 0.0), 0.5)])
        assert F((1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)
        assert F((2.0, 0.0)) == pytest.approx(1.0, abs=1e-15)  # scales with length
        assert F((0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)  # off-dip uses the base

    def test_zero_vector_maps_to_zero(self):
        for F in (PNorm(2.0), Constant(3.0), Dip(Constant(1.0), [((0.0, 1.0), 0.25)])):
            assert F((0.0, 0.0)) == 0.0

    def test_homogeneity_exact_for_binary_scales(self):
        F = PNorm(1.5)
        x = np.array([0.3, -1.7])
        for lam in (0.5, 2.0):
            assert F(lam * x) == pytest.approx(lam * F(x), abs=0.0)  # power-of-two scaling
        assert F(10.0 * x) == pytest.approx(10.0 * F(x), rel=1e-12)

    def test_strict_positivity_on_directions(self, grid):
        for F in (PNorm(1.0), PNorm(3.0), Constant(0.2),
                  Crystalline([((1, 1), 1.0), ((-1, 1), 1.0), ((0, -1), 1.0)])):
            assert F.values_on(grid.directions).min() > 0.0

    def test_pnorm_infinity(self):
        F = PNorm(math.inf)
        assert F((3.0, -4.0)) == pytest.approx(4.0, abs=1e-12)


class TestConstructionRejection:
    def test_pnorm_below_one_rejected(self):
        for p in (0.5, math.nan):
            with pytest.raises(ValueError):
                PNorm(p)

    def test_nonpositive_constant_rejected(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Constant(c)

    def test_table_rejects_nonpositive_values(self):
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                AngularTable([0.0, 1.0, 2.0], [1.0, bad, 1.0])

    def test_table_rejects_unsorted_angles(self):
        for angles in ([0.0, 2.0, 1.0], [0.0, math.nan, 2.0]):
            with pytest.raises(ValueError):
                AngularTable(angles, [1.0, 1.0, 1.0])

    def test_dip_above_base_rejected(self):
        with pytest.raises(ValueError):
            Dip(Constant(1.0), [((1.0, 0.0), 1.5)])

    def test_non_finite_facets_and_dips_rejected(self):
        for facet in (((1, 1), math.nan), ((1, 1), math.inf), ((math.nan, 1), 1.0)):
            with pytest.raises(ValueError):
                Crystalline([facet, ((-1, 1), 1.0), ((0, -1), 1.0)])
        for dip in (((math.nan, 0.0), 0.5), ((1.0, 0.0), math.nan)):
            with pytest.raises(ValueError):
                Dip(Constant(1.0), [dip])
        for x in ((0.0, 0.0), (math.nan, 1.0), (-math.inf, 0.0)):
            with pytest.raises(ValueError):
                unit(x)

    def test_nonplanar_grid_rejected(self):
        with pytest.raises(ValueError, match="planar"):
            SphereGrid(np.vstack([np.eye(3), -np.eye(3)]), 1.0)

    def test_crystalline_halfplane_gap_rejected(self):
        # All facet directions in the right halfplane: cost vanishes on the left.
        with pytest.raises(ValueError):
            Crystalline([((1, 0), 1.0), ((1, 1), 1.0), ((1, -1), 1.0)])


class TestWulffTransform:
    def test_constant_is_fixed(self, grid):
        W = wulff_transform(Constant(1.0), grid)
        assert np.allclose(W.values, 1.0, atol=1e-12)

    def test_l1_matches_brute_force(self, grid):
        # Brute-force oracle on the same grid; analytically W(v) = 1/max|v_i|.
        F = PNorm(1.0)
        W = wulff_transform(F, grid)
        e1 = np.array([1.0, 0.0])
        diag = np.array([1.0, 1.0]) / SQ2
        assert W(e1) == pytest.approx(brute_wulff(F.values_on, grid, e1), abs=1e-12)
        assert W(e1) == pytest.approx(1.0, abs=1e-12)
        assert W(diag) == pytest.approx(brute_wulff(F.values_on, grid, diag), abs=1e-9)
        assert W(diag) == pytest.approx(SQ2, abs=1e-9)

    def test_never_exceeds_cost(self, grid):
        for F in (PNorm(1.0), PNorm(3.0), Dip(Constant(1.0), [((1, 0), 0.5)])):
            W = wulff_transform(F, grid)
            assert np.all(W.values <= F.values_on(grid.directions) + 1e-12)


class TestSupportTransform:
    def test_constant_is_fixed(self, grid):
        G = GridFunction(grid, np.ones(grid.size))
        A = support_transform(G)
        assert np.allclose(A.values, 1.0, atol=1e-12)

    def test_on_wulff_of_l1(self, grid):
        W = wulff_transform(PNorm(1.0), grid)
        A = support_transform(W)
        diag = np.array([1.0, 1.0]) / SQ2
        assert A(diag) == pytest.approx(brute_support(W.values, grid, diag), abs=1e-12)
        assert A(diag) == pytest.approx(SQ2, abs=1e-9)

    def test_on_wulff_of_euclidean(self, grid):
        A = support_transform(wulff_transform(Constant(1.0), grid))
        assert A((1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_never_below_input(self, grid):
        vals = 1.0 + 0.5 * np.sin(3 * grid.angles) ** 2
        G = GridFunction(grid, vals)
        A = support_transform(G)
        assert np.all(A.values >= vals - 1e-12)


class TestConvexEnvelope:
    def test_convex_cost_is_fixed_point(self, grid):
        # L1 is convex so the envelope reproduces it.
        D = convex_envelope(PNorm(1.0), grid)
        assert D((1.0, 1.0)) == pytest.approx(2.0, abs=1e-9)

    def test_constant_envelope_is_euclidean_norm(self, grid):
        D = convex_envelope(Constant(1.0), grid)
        assert D((3.0, 4.0)) == pytest.approx(5.0, abs=1e-9)

    def test_dip_envelope_drops_at_dip(self, grid):
        D = convex_envelope(Dip(Constant(1.0), [((1.0, 0.0), 0.5)]), grid)
        assert D((1.0, 0.0)) == pytest.approx(0.5, abs=1e-9)

    def test_below_cost_on_grid(self, grid):
        for F in (PNorm(1.5), Dip(Constant(1.0), [((0.0, 1.0), 0.7)])):
            D = convex_envelope(F, grid)
            assert np.all(D.values <= F.values_on(grid.directions) + 1e-12)

    def test_convex_fixed_point_bound(self, grid):
        for F in (PNorm(1.0), PNorm(2.0), PNorm(3.0), Constant(2.0)):
            D = convex_envelope(F, grid)
            f_vals = F.values_on(grid.directions)
            bound = 2.0 * grid.resolution * f_vals.max()
            assert np.abs(D.values - f_vals).max() <= bound

    def test_supinf_formula_agrees_with_composition(self):
        # The nested sup/inf scan, written out directly, against the
        # two-transform composition; both on the same coarse grid.
        grid = SphereGrid.planar(180)
        F = Dip(Constant(1.0), [((1.0, 0.0), 0.5)])
        D = convex_envelope(F, grid)
        fw = F.values_on(grid.directions)
        bound = 2.0 * grid.resolution * fw.max()
        dots = grid.directions @ grid.directions.T
        with np.errstate(divide="ignore"):
            ratios = np.where(dots > 1e-12, fw[None, :] / dots, np.inf)
        w_vals = ratios.min(axis=1)
        for idx in range(0, grid.size, 7):
            v = grid.directions[idx]
            supinf = max(
                float(w_vals[j] * np.dot(v, grid.directions[j]))
                for j in range(grid.size)
            )
            assert abs(supinf - D.values[idx]) <= bound

    def test_idempotent_at_grid_accuracy(self, grid):
        F = Dip(Constant(1.0), [((1.0, 0.0), 0.5)])
        D1 = convex_envelope(F, grid)
        again = AngularTable(grid.angles, D1.values)
        D2 = convex_envelope(again, grid)
        bound = 2.0 * grid.resolution * F.values_on(grid.directions).max()
        assert np.abs(D2.values - D1.values).max() <= bound

    def test_transforms_scale_homogeneously(self, grid):
        D = convex_envelope(PNorm(3.0), grid)
        x = np.array([0.7, -0.2])
        for lam in (0.5, 2.0, 10.0):
            assert D(lam * x) == pytest.approx(lam * D(x), rel=1e-12)


class TestContactAndHypograph:
    def test_convex_cost_touches_everywhere(self, l1_ctx):
        for x in [(1.0, 0.0), (1.0, 1.0), (0.0, -2.0), (-0.3, 0.8), (2.0, -5.0), (0.123, 0.456)]:
            assert l1_ctx.in_contact(x)

    def test_origin_always_in_contact(self, dip_ctx):
        assert dip_ctx.in_contact((0.0, 0.0))

    def test_dip_neighbourhood_not_in_contact(self, dip_ctx):
        # 10 degrees off the dip the base cost sits strictly above the envelope.
        ten_deg = (math.cos(math.radians(10)), math.sin(math.radians(10)))
        assert not dip_ctx.in_contact(ten_deg)

    def test_unit_disk_hypograph(self, euclid_ctx):
        assert euclid_ctx.crystal.contains((0.5, 0.0))
        assert not euclid_ctx.crystal.contains((1.5, 0.0))
        assert euclid_ctx.crystal.contains((0.0, 0.0))

    def test_wulff_hypograph_is_the_crystal(self, l1_ctx):
        # Inside the unit square, then outside it: radial and halfplane
        # membership agree.
        for p, inside in (((1.0, 0.99), True), ((1.05, 0.0), False)):
            p = np.array(p)
            assert l1_ctx.crystal.contains(p) is inside
            r = float(np.linalg.norm(p))
            assert (r <= l1_ctx.wulff.unit_value(p / r)) is inside


class TestTableCost:
    def test_interpolates_linearly_between_samples(self):
        T = AngularTable([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], [1.0, 2.0, 1.0, 2.0])
        quarter = np.pi / 4
        assert T((math.cos(quarter), math.sin(quarter))) == pytest.approx(1.5, rel=1e-12)

    def test_wraps_around(self):
        T = AngularTable([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], [1.0, 2.0, 1.0, 2.0])
        theta = 7 * np.pi / 4  # halfway between the last sample and angle 0
        assert T((math.cos(theta), math.sin(theta))) == pytest.approx(1.5, rel=1e-12)

    def test_planar_only(self):
        with pytest.raises(ValueError, match="planar"):
            AngularTable([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])((1.0, 0.0, 0.0))
