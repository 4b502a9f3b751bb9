import math
import pickle

import numpy as np
import pytest

from anisogeo import (
    AngularTable,
    Constant,
    CrystalContext,
    Crystalline,
    Dip,
    GridFunction,
    PNorm,
    SphereGrid,
    convex_envelope,
    support_transform,
    wulff_transform,
)
from anisogeo.integrand import TWO_PI, scan_directions, unit

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


def _row_blocks(rows: int, cols: int):
    step = max(1, 2**21 // cols)  # about 16 MB per block temporary
    return (slice(i, i + step) for i in range(0, rows, step))


def dense_wulff(F, grid) -> np.ndarray:
    """Reference W(F): the grid x scan matrix of F(w) / <v, w>, row block by row block."""
    dirs = scan_directions(F, grid)
    vals = F.values_on(dirs)
    out = np.empty(grid.size)
    for rows in _row_blocks(grid.size, len(dirs)):
        dots = grid.directions[rows] @ dirs.T
        with np.errstate(divide="ignore", invalid="ignore"):
            out[rows] = np.where(dots > 1e-12, vals[None, :] / dots, np.inf).min(axis=1)
    return out


def dense_support(G) -> np.ndarray:
    """Reference A(G): the grid x grid matrix of G(w) * <v, w>, row block by row block."""
    grid = G.grid
    out = np.empty(grid.size)
    for rows in _row_blocks(grid.size, grid.size):
        dots = grid.directions[rows] @ grid.directions.T
        out[rows] = (dots * G.values[None, :]).max(axis=1)
    return out


REFERENCE_COSTS = {
    "l1": PNorm(1.0),
    "linf": PNorm(math.inf),
    "p1.7": PNorm(1.7),
    "constant": Constant(1.3),
    "crystalline": Crystalline([((1, 0.2), 1.0), ((-1, 1), 2.0), ((0, -1), 0.7), ((1, -1), 1.3)]),
    "table": AngularTable([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 1.5, 0.7, 1.1, 3.0]),
    "dip": Dip(PNorm(2.0), [((1.0, 0.0), 0.6), ((0.0, 1.0), 0.9)]),
}


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

    @pytest.mark.filterwarnings("error")
    def test_finite_vectors_whose_length_overflows(self, grid):
        # F of v is twice F of v / 2, which hypot measures without overflow.
        big = (1.7e308, 1.7e308)
        assert PNorm(math.inf)(big) == 1.7e308
        assert CrystalContext(PNorm(math.inf), grid).norm(big) == 1.7e308
        assert Constant(0.5)(big) == pytest.approx(0.5 * SQ2 * 1.7e308, rel=1e-15)
        assert PNorm(1.0)((1e308, -5e307)) == pytest.approx(1.5e308, rel=1e-15)
        table = AngularTable([0.0, 1.0, 3.0], [1.0, 0.5, 2.0])
        assert table((-1.6e308, 1e308)) == 2.0 * table((-0.8e308, 0.5e308))
        assert PNorm(3.0)(big) == math.inf  # 2**(1/3) * 1.7e308 is beyond the float range


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

    @pytest.mark.parametrize("scale", [2.0**-200, 1e-13, 1.0, 2.0**200])
    def test_dip_above_base_rejected_at_every_scale(self, scale):
        # An absolute 1e-12 of slack let an upward spike through below unit scale.
        with pytest.raises(ValueError, match="exceeds the base"):
            Dip(Constant(scale), [((1, 0), 2.0 * scale)])
        Dip(Constant(scale), [((1, 0), scale)])  # equal to the base: no spike

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

    def test_grid_size_must_be_an_integer_in_range(self):
        for size in (7, 20001, -720, 720.0, 720.5, math.nan, "720"):
            with pytest.raises(ValueError, match="integer from 8 to 20000"):
                SphereGrid(size)
        for size in (8, np.int64(720), 20000):
            grid = SphereGrid.planar(size)
            assert grid == SphereGrid(int(size)) and grid.resolution == TWO_PI / size
            assert grid.directions.shape == (size, 2)

    def test_planar_grids_are_shared_and_read_only(self):
        grid = SphereGrid.planar(60)
        assert SphereGrid.planar(60) is grid and SphereGrid.planar(np.int64(60)) is grid
        assert SphereGrid.planar() is SphereGrid.planar(720)
        for size in (7, 720.0, True):  # 720.0 and True hash as cached sizes
            with pytest.raises(ValueError, match="integer from 8 to 20000"):
                SphereGrid.planar(size)
        fresh = SphereGrid(60)
        assert fresh is not grid and fresh == grid
        assert np.array_equal(fresh.directions, grid.directions) and np.array_equal(fresh.angles, grid.angles)
        for g in (grid, fresh):
            for values in (g.directions, g.angles):
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 0.5
        assert SphereGrid._shared.cache_info().maxsize == 16

    def test_a_grid_pickles_as_the_shared_one(self):
        for grid in (SphereGrid.planar(60), SphereGrid(60)):
            grid.directions, grid.angles
            loaded = pickle.loads(pickle.dumps(grid))
            assert loaded is SphereGrid.planar(60) and not loaded.directions.flags.writeable

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


class TestTransformsAgainstDenseReference:
    @staticmethod
    def assert_agree(F, grid):
        tol = 1e-12 * max(1.0, F.values_on(grid.directions).max())
        W = wulff_transform(F, grid)
        W_ref = dense_wulff(F, grid)
        assert np.abs(W.values - W_ref).max() <= tol
        G = GridFunction(grid, W_ref)
        assert np.abs(support_transform(G).values - dense_support(G)).max() <= tol

    @pytest.mark.parametrize("count", [60, 720, 2880])
    @pytest.mark.parametrize("name", sorted(REFERENCE_COSTS))
    def test_every_kind(self, name, count):
        self.assert_agree(REFERENCE_COSTS[name], SphereGrid.planar(count))

    def test_fine_grid(self):
        grid = SphereGrid.planar(11520)
        for F in (PNorm(3.0), Dip(Constant(1.0), [((1.0, 1.0), 0.5)])):
            self.assert_agree(F, grid)


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
            assert (r <= l1_ctx.wulff(p / r)) is inside


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


def table_crystal_excess(F: AngularTable, x) -> float:
    """max over unit u of <u, x> - F(u), exactly: on each arc F = f + s*(t - a)
    in the angle t, and the maximum over an arc sits at one of its ends or
    where |x| sin(phi - t) = s, phi the angle of x."""
    r, phi = math.hypot(*x), math.atan2(x[1], x[0])
    angles = np.append(F.sample_angles, F.sample_angles[0] + TWO_PI)
    values = np.append(F.sample_values, F.sample_values[0])
    worst = -math.inf
    for a, b, fa, fb in zip(angles[:-1], angles[1:], values[:-1], values[1:]):
        s = (fb - fa) / (b - a)
        ts = [a, b]
        if abs(s) <= r:
            w = math.asin(s / r)
            ts += [a + (t - a) % TWO_PI for t in (phi - w, phi - math.pi + w)]
        worst = max(worst, *(r * math.cos(t - phi) - fa - s * (t - a) for t in ts if t <= b))
    return worst


def _direction(rng) -> np.ndarray:
    t = rng.uniform(0.0, TWO_PI)
    return 10.0 ** rng.uniform(-3, 3) * np.array([math.cos(t), math.sin(t)])


class TestContactPoints:
    @pytest.mark.parametrize("size", [60, 720])
    def test_table_gradient_lies_on_the_crystal_at_contact_directions(self, size):
        rng = np.random.default_rng(size + 1)
        tested = 0
        for _ in range(10):
            count = int(rng.integers(8, 17))
            F = AngularTable(np.sort(rng.uniform(0.0, TWO_PI, count)), rng.uniform(0.5, 2.0, count))
            ctx = CrystalContext(F, SphereGrid.planar(size))
            for _ in range(100):
                v = _direction(rng)
                u = v / math.hypot(*v)
                x = F.contact_point(v)
                assert abs(float(u @ x) - F(u)) <= 1e-12
                # Contact exactly where x is a point of the true crystal.
                if table_crystal_excess(F, x) <= 1e-12 * math.hypot(*x):
                    tested += 1
                    assert ctx.crystal.contains(x), (vars(F), v)
        assert tested > 200

    def test_table_has_no_gradient_at_its_sample_angles(self):
        rng = np.random.default_rng(3)
        vs = [_direction(rng) for _ in range(12)]
        # Sample angles as contact_point reads them, from v / |v|.
        angles = [float(np.mod(np.arctan2(u[1], u[0]), TWO_PI)) for u in map(unit, vs)]
        F = AngularTable(np.sort(angles), rng.uniform(0.5, 2.0, len(vs)))
        for v in vs:
            assert F.contact_point(v) is None
        assert AngularTable([0.0, 2.0, 4.0], [1.0, 1.4, 1.1]).contact_point((2.0, 0.0)) is None

    @pytest.mark.parametrize("size", [60, 720])
    def test_dip_takes_the_base_point_unless_a_dip_cuts_it(self, size):
        rng = np.random.default_rng(size + 2)
        kept = cut = 0
        for i in range(10):
            base = Constant(rng.uniform(0.5, 2.0)) if i % 2 else PNorm(rng.uniform(1.2, 6.0))
            dirs = [_direction(rng) for _ in range(int(rng.integers(1, 4)))]
            F = Dip(base, [(d, rng.uniform(0.3, 0.95) * base(unit(d))) for d in dirs])
            ctx = CrystalContext(F, SphereGrid.planar(size))
            for d, _ in F.dips:
                assert F.contact_point(d) is None  # its own halfplane cuts the base point
            for _ in range(100):
                v = _direction(rng)
                u = v / math.hypot(*v)
                x, xb = F.contact_point(v), base.contact_point(v)
                if any(float(d @ xb) > value for d, value in F.dips):
                    assert x is None
                    cut += 1
                    continue
                kept += 1
                assert np.array_equal(x, xb)
                assert abs(float(u @ x) - F(u)) <= 1e-12
                assert ctx.crystal.contains(x), (vars(F), v)
        assert kept > 200 and cut > 100

    @pytest.mark.parametrize("p", [1.5, 3.0, 40.0])
    def test_pnorm_gradient_at_every_scale(self, p):
        # The gradient is 0-homogeneous; raising |v| to p - 1 overflowed
        # past |v| = 1e103 for p = 3. RuntimeWarnings fail the test.
        F = PNorm(p)
        rng = np.random.default_rng(int(p))
        for t in rng.uniform(0.0, TWO_PI, 50):
            u = np.array([math.cos(t), math.sin(t)])
            want = F.contact_point(u)
            for e in range(-300, 301, 25):
                v = 10.0**e * u
                x = F.contact_point(v)
                assert np.all(np.isfinite(x)), (p, v)
                w = v / math.hypot(*v)
                assert abs(float(w @ x) - F(w)) <= 1e-12, (p, v)
                assert np.abs(x - want).max() <= 1e-12, (p, v)
