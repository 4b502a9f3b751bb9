import math
import warnings

import numpy as np
import pytest

from anisogeo import (
    AngularTable,
    Constant,
    CrystalContext,
    Dip,
    GeodesicClass,
    Path,
    PNorm,
    SphereGrid,
    classify,
    concatenate,
    construct_geodesic,
    decompose_direction,
    geodesic_ball,
    geodesic_family,
    hausdorff_distance,
    is_geodesic,
    path_length,
    polar,
    resample_polyline,
)

from test_query_kernels import README_COSTS

SQ2 = math.sqrt(2.0)

STAIRCASE = Path(np.array([[0.0, 0.0], [0.3, 0.0], [0.3, 0.7], [1.0, 0.7], [1.0, 1.0]]))


def random_sampled_cost(rng, table: bool):
    """A table with 8-16 samples in [0.5, 2], or 1-3 dips to 0.3-0.95 of a
    constant or p-norm base."""
    if table:
        count = int(rng.integers(8, 17))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, count))
        return AngularTable(angles, rng.uniform(0.5, 2.0, count))
    base = (Constant(rng.uniform(0.5, 2.0)), PNorm(1.0), PNorm(math.inf),
            PNorm(rng.uniform(1.2, 6.0)))[int(rng.integers(4))]
    dips = []
    for a in rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(1, 4))):
        d = np.array([math.cos(a), math.sin(a)])
        dips.append((d, rng.uniform(0.3, 0.95) * base(d)))
    return Dip(base, dips)


class TestPathBasics:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Path(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_needs_two_breakpoints(self):
        with pytest.raises(ValueError):
            Path(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_breakpoints_rejected(self, bad):
        for row in range(3):
            for col in range(2):
                points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
                points[row, col] = bad
                with pytest.raises(ValueError, match=f"breakpoint {row + 1} is not finite"):
                    Path(points)

    def test_finite_points_whose_difference_overflows_are_accepted(self):
        path = Path(np.array([[-1e308, 0.0], [1e308, 0.0]]))
        assert path.speeds.tolist() == [math.inf]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_consecutive_infinite_breakpoints_raise_without_a_warning(self, bad):
        # The finite check runs before any difference: inf - inf would warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="path breakpoint 2 is not finite"):
                Path(np.array([[0.0, 0.0], [bad, 0.0], [bad, 0.0], [1.0, 1.0]]))

    def test_staircase_length_under_l1(self, l1_ctx):
        # Monotone staircase: coordinate increments sum to the endpoint gap.
        assert path_length(l1_ctx.integrand, STAIRCASE) == pytest.approx(2.0, abs=1e-12)

    def test_single_segment_length_is_the_cost(self, p3_ctx):
        v = np.array([0.4, -1.1])
        assert path_length(p3_ctx.integrand, Path.segment((0, 0), v)) == pytest.approx(
            p3_ctx.integrand(v), abs=1e-15
        )

    def test_euclidean_bent_path(self, euclid_ctx):
        p = Path(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        assert path_length(euclid_ctx.integrand, p) == pytest.approx(2.0, abs=1e-15)


class TestConcatenate:
    def test_rightmost_piece_first(self):
        gamma_u = Path.segment((0, 0), (1, 0))
        gamma_w = Path.segment((0, 0), (0, 1))
        out = concatenate([gamma_u, gamma_w])
        assert np.allclose(out.points, [[0, 0], [0, 1], [1, 1]])

    def test_single_path_unchanged(self):
        out = concatenate([STAIRCASE])
        assert np.allclose(out.points, STAIRCASE.points)

    def test_lengths_add(self, l1_ctx):
        u = np.array([0.7, 0.1])
        w = np.array([-0.2, 0.9])
        out = concatenate([Path.segment((0, 0), u), Path.segment((0, 0), w)])
        total = l1_ctx.integrand(u) + l1_ctx.integrand(w)
        assert path_length(l1_ctx.integrand, out) == pytest.approx(total, abs=1e-12)

    def test_chained_endpoints_accepted(self):
        a = Path.segment((0, 0), (1, 0))
        b = Path.segment((5, 5), (5, 6))  # translated into the chain
        out = concatenate([b, a])
        assert np.allclose(out.points, [[0, 0], [1, 0], [1, 1]])


class TestDistance:
    def test_l1_distances(self, l1_ctx):
        assert l1_ctx.distance((0, 0), (1, 1)) == pytest.approx(2.0, abs=1e-12)
        assert l1_ctx.distance((0, 0), (1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_dip_shortcut(self, dip_ctx):
        assert dip_ctx.distance((0, 0), (1, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_iff_equal(self, euclid_ctx):
        assert euclid_ctx.distance((1, 2), (1, 2)) == 0.0
        assert euclid_ctx.distance((1, 2), (1, 2.1)) > 0.0

    def test_triangle_inequality(self, all_ctxs):
        rng = np.random.default_rng(31)
        for name, ctx in all_ctxs.items():
            for _ in range(100):
                x, y, z = rng.uniform(-3, 3, size=(3, 2))
                lhs = ctx.distance(x, z)
                rhs = ctx.distance(x, y) + ctx.distance(y, z)
                assert lhs <= rhs + 1e-9, name


class TestIsGeodesic:
    def test_staircase_verifies(self, l1_ctx):
        cert = is_geodesic(l1_ctx, STAIRCASE)
        assert cert.verdict and cert.certified
        assert cert.achieved_length == pytest.approx(2.0, abs=1e-12)
        assert cert.target_norm == pytest.approx(2.0, abs=1e-12)

    def test_backtracking_path_fails(self, l1_ctx):
        p = Path(np.array([[0.0, 0.0], [0.5, -0.2], [1.0, 1.0]]))
        cert = is_geodesic(l1_ctx, p)
        assert not cert.verdict
        assert cert.achieved_length == pytest.approx(2.4, abs=1e-12)

    def test_euclidean_bent_path_fails(self, euclid_ctx):
        p = Path(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        assert not is_geodesic(euclid_ctx, p).verdict

    def test_common_contact_point_for_staircase(self, l1_ctx):
        cert = is_geodesic(l1_ctx, STAIRCASE)
        assert np.allclose(cert.contact_point, [1.0, 1.0], atol=1e-12)
        assert cert.contact_ok.all() and cert.support_ok.all()

    def test_coincident_endpoints_rejected(self, l1_ctx):
        loop = Path(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="coincide"):
            is_geodesic(l1_ctx, loop)

    def test_tolerance_must_be_positive_and_finite(self, l1_ctx):
        # A NaN tolerance would fail every path and an infinite one pass a detour.
        detour = Path(np.array([[0.0, 0.0], [0.5, -0.2], [1.0, 1.0]]))
        for tol in (math.nan, math.inf, -math.inf, np.float64("nan"), 0.0, -1e-9):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                is_geodesic(l1_ctx, detour, tol)
        # A finite tolerance is the caller's to choose: 0.4 over a norm of 2 passes.
        assert is_geodesic(l1_ctx, detour, 0.5).verdict

    def test_certificate_bool_is_the_verdict(self, l1_ctx):
        assert bool(is_geodesic(l1_ctx, STAIRCASE))

    def test_segments_are_geodesics_for_pnorms(self, grid):
        # Convex costs make every straight segment optimal.
        rng = np.random.default_rng(37)
        for p in (1.0, 1.5, 2.0, 3.0, 40.0):
            ctx = CrystalContext(PNorm(p), grid)
            for _ in range(20):
                x, y = rng.uniform(-4, 4, size=(2, 2))
                if np.linalg.norm(y - x) < 1e-6:
                    continue
                cert = is_geodesic(ctx, Path.segment(x, y), tol=1e-9)
                assert cert.verdict, (p, x, y)
                assert cert.certified, (p, x, y)


class TestClassify:
    def test_l1_axis_unique(self, l1_ctx):
        assert classify(l1_ctx, (0, 0), (1, 0)) is GeodesicClass.UNIQUE_UP_TO_REPARAM

    def test_l1_diagonal_infinitely_many(self, l1_ctx):
        assert classify(l1_ctx, (0, 0), (1, 1)) is GeodesicClass.INFINITELY_MANY

    def test_isotropic_always_unique(self, euclid_ctx):
        rng = np.random.default_rng(41)
        for _ in range(25):
            x, y = rng.uniform(-2, 2, size=(2, 2))
            if np.linalg.norm(y - x) < 1e-6:
                continue
            assert classify(euclid_ctx, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM

    def test_equal_points_rejected(self, l1_ctx):
        with pytest.raises(ValueError):
            classify(l1_ctx, (1, 1), (1, 1))

    def test_smooth_pnorms_are_unique_in_every_direction(self):
        # A strictly convex norm has the segment as its one geodesic. On p = 6 the grid
        # rule at 2880 once took the axis for a corner, with a staircase through
        # (0.3529, -0.0085); the segment now certifies with the closed-form contact point.
        ctx = CrystalContext(PNorm(6.0), SphereGrid.planar(2880))
        x, y = (0.0, 0.0), (1.0, 0.0)
        assert classify(ctx, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM
        path = construct_geodesic(ctx, x, y)
        assert path.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        cert = is_geodesic(ctx, path)
        assert cert.verdict and cert.certified and cert.contact_point.tolist() == [1.0, 0.0]
        rng = np.random.default_rng(6)
        for p in (1.3, 6.0, 40.0):
            ctx = CrystalContext(PNorm(p), SphereGrid.planar(2880))
            for v in [*rng.normal(size=(200, 2)), (1.0, 0.0), (0.0, -1.0), (1.0, 1.0)]:
                assert classify(ctx, (0.0, 0.0), v) is GeodesicClass.UNIQUE_UP_TO_REPARAM, (p, v)

    def test_max_norm_is_dual_to_l1(self, grid):
        # Sup-norm crystal is the cross-polytope: axes become the flat
        # (non-unique) directions and diagonals the attained normals.
        ctx = CrystalContext(PNorm(math.inf), grid)
        assert ctx.distance((0, 0), (3, -4)) == pytest.approx(4.0, abs=1e-12)
        assert classify(ctx, (0, 0), (1, 0)) is GeodesicClass.INFINITELY_MANY
        assert classify(ctx, (0, 0), (1, 1)) is GeodesicClass.UNIQUE_UP_TO_REPARAM
        vee = construct_geodesic(ctx, (0, 0), (1, 0))
        assert len(vee.points) == 3
        assert is_geodesic(ctx, vee, tol=1e-9).verdict

    @pytest.mark.parametrize("size", [60, 720])
    def test_straight_where_the_cost_is_below_the_crystal_support(self, size):
        # Just inside a wide corner cone of a table's grid crystal the cost
        # can sit below the corner's support (the grid corner overshoots the
        # true one); there the straight segment is the geodesic, and it costs
        # the distance.
        rng = np.random.default_rng(size)
        grid = SphereGrid.planar(size)
        steps = np.linspace(0.01, 3.0, 60) * grid.resolution
        below = 0
        for _ in range(20):
            cost = random_sampled_cost(rng, table=True)
            ctx = CrystalContext(cost, grid)
            normals = ctx.crystal.normals
            angles = np.arctan2(normals[:, 1], normals[:, 0])
            for a, b in zip(np.roll(angles, 1), angles):
                if (b - a) % (2.0 * math.pi) <= 1.5 * grid.resolution:
                    continue
                for t in np.concatenate([a + steps, b - steps]):
                    v = np.array([math.cos(t), math.sin(t)])
                    if not cost(v) < ctx.crystal.support(v) * (1.0 - 1e-12):
                        continue
                    below += 1
                    assert classify(ctx, (0, 0), v) is GeodesicClass.UNIQUE_UP_TO_REPARAM, v
                    path = construct_geodesic(ctx, (0, 0), v)
                    assert len(path.points) == 2
                    assert path_length(cost, path) == pytest.approx(ctx.norm(v), rel=1e-12)
        assert below > 300

    @pytest.mark.parametrize("base", [PNorm(1.0), PNorm(math.inf)], ids=["l1", "max"])
    @pytest.mark.parametrize("size", [60, 720])
    def test_a_dip_leaves_its_base_labels_away_from_the_dip(self, base, size):
        # Away from the dip the cost is its base; inside a corner's normal
        # cone that is linear, F = h, and the staircase costs the distance
        # too, so the geodesics are as many as the base's.
        grid = SphereGrid.planar(size)
        d = (math.cos(2.0), math.sin(2.0))
        dipped = CrystalContext(Dip(base, [(d, 0.5 * base(d))]), grid)
        plain = CrystalContext(base, grid)
        for y in [(1.0, 2.0), (2.0, 1.0), (1.0, 0.0), (1.0, 1.0), (3.0, -1.0), (0.0, -1.0)]:
            want = classify(plain, (0, 0), y)
            assert classify(dipped, (0, 0), y) is want, (vars(base), y)
            if want is GeodesicClass.INFINITELY_MANY:
                path = geodesic_family(dipped, (0, 0), y, 0.5)
                assert path_length(dipped.integrand, path) == pytest.approx(dipped.distance((0, 0), y), rel=1e-12)


class TestDecompose:
    def test_l1_diagonal_splits_on_axes(self, l1_ctx):
        dec = decompose_direction(l1_ctx, (1.0, 1.0))
        assert np.allclose(dec.weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(dec.directions, [[1, 0], [0, 1]], atol=1e-12)

    def test_l1_axis_is_a_single_term(self, l1_ctx):
        dec = decompose_direction(l1_ctx, (1.0, 0.0))
        assert dec.weights == (1.0,)
        assert np.allclose(dec.directions, [[1.0, 0.0]], atol=1e-12)

    def test_l1_two_one_barycentrics(self, l1_ctx):
        # (2,1)/3 on the first-quadrant edge: weights 2/3 and 1/3.
        dec = decompose_direction(l1_ctx, (2.0, 1.0))
        assert np.allclose(dec.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert np.allclose(dec.directions, [[1, 0], [0, 1]], atol=1e-12)

    def test_invariants(self, all_ctxs):
        rng = np.random.default_rng(43)
        for name, ctx in all_ctxs.items():
            for _ in range(50):
                v = rng.normal(size=2)
                if np.linalg.norm(v) < 1e-6:
                    continue
                dec = decompose_direction(ctx, v)
                assert abs(sum(dec.weights) - 1.0) <= 1e-9, name
                assert np.allclose(dec.reconstructed, v / ctx.norm(v), atol=1e-9), name
                for d in dec.directions:
                    assert ctx.norm(d) == pytest.approx(1.0, abs=1e-9), name
                    assert ctx.is_orthogonal_direction(d), name

    def test_zero_vector_rejected(self, l1_ctx):
        with pytest.raises(ValueError):
            decompose_direction(l1_ctx, (0.0, 0.0))


def decompose_by_edge_scan(ctx, v):
    """Reference for decompose_direction: scan every polar-body edge for the
    one the ray through v crosses."""
    v_hat = np.asarray(v, dtype=float) / ctx.norm(v)
    verts = ctx.polar_body.vertices
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ca = float(a[0] * v_hat[1] - a[1] * v_hat[0])
        cb = float(b[0] * v_hat[1] - b[1] * v_hat[0])
        if ca < 0.0 or cb > 0.0 or ca - cb <= 0.0:
            continue
        s = ca / (ca - cb)
        if s <= 1e-12:
            return (1.0,), a[None, :] / ctx.norm(a)
        if s >= 1.0 - 1e-12:
            return (1.0,), b[None, :] / ctx.norm(b)
        return (1.0 - s, s), np.vstack([a, b])
    raise AssertionError("no polar-body edge crosses the ray")


class TestDecomposeAgainstEdgeScan:
    def test_face_lookup_matches_the_edge_scan(self, all_ctxs):
        rng = np.random.default_rng(67)
        ctxs = dict(all_ctxs)
        for i in range(6):
            ctxs[f"random{i}"] = CrystalContext(random_sampled_cost(rng, table=i % 2 == 0))
        for name, ctx in ctxs.items():
            for v in rng.normal(size=(200, 2)):
                if ctx.is_orthogonal_direction(v):
                    continue
                dec = decompose_direction(ctx, v)
                weights, directions = decompose_by_edge_scan(ctx, v)
                assert dec.weights == weights, name
                assert np.array_equal(dec.directions, directions), name


class TestConstruct:
    def test_l1_axis_gives_the_segment(self, l1_ctx):
        path = construct_geodesic(l1_ctx, (0, 0), (1, 0))
        assert np.allclose(path.points, [[0, 0], [1, 0]])

    def test_l1_diagonal_gives_the_two_leg_staircase(self, l1_ctx):
        path = construct_geodesic(l1_ctx, (0, 0), (1, 1))
        assert np.allclose(path.points, [[0, 0], [1, 0], [1, 1]], atol=1e-12)
        assert path_length(l1_ctx.integrand, path) == pytest.approx(2.0, abs=1e-12)

    def test_isotropic_gives_segments(self, euclid_ctx):
        path = construct_geodesic(euclid_ctx, (-1, 2), (3, -1))
        assert len(path.points) == 2
        assert path_length(euclid_ctx.integrand, path) == pytest.approx(5.0, abs=1e-12)

    def test_always_verifies(self, all_ctxs):
        rng = np.random.default_rng(47)
        for name, ctx in all_ctxs.items():
            for _ in range(50):
                x, y = rng.uniform(-3, 3, size=(2, 2))
                if np.linalg.norm(y - x) < 1e-6:
                    continue
                path = construct_geodesic(ctx, x, y)
                assert is_geodesic(ctx, path).verdict, (name, x, y)

    def test_direction_beside_an_isolated_dip_gets_a_staircase(self, grid):
        # The straight segment costs 2.0 against a distance of about 1.0017.
        ctx = CrystalContext(Dip(Constant(1.0), [((math.cos(0.3), math.sin(0.3)), 0.5)]), grid)
        y = (2.0 * math.cos(0.301), 2.0 * math.sin(0.301))
        assert classify(ctx, (0, 0), y) is GeodesicClass.INFINITELY_MANY
        path = construct_geodesic(ctx, (0, 0), y)
        cert = is_geodesic(ctx, path)
        assert len(path.points) == 3
        assert cert.verdict and cert.certified
        d = ctx.distance((0, 0), y)
        assert abs(path_length(ctx.integrand, path) - d) <= ctx.default_tol * d

    def test_staircases_verify_on_random_sampled_costs(self):
        # 25 table and 25 dip costs, 10 endpoint pairs per cost and grid.
        rng = np.random.default_rng(61)
        for i in range(50):
            cost = random_sampled_cost(rng, table=i % 2 == 0)
            for size in (60, 720, 2880):
                ctx = CrystalContext(cost, SphereGrid.planar(size))
                for _ in range(10):
                    x, y = rng.uniform(-2, 2, size=(2, 2))
                    d = ctx.distance(x, y)
                    paths = [construct_geodesic(ctx, x, y)]
                    if classify(ctx, x, y) is GeodesicClass.INFINITELY_MANY:
                        paths.append(geodesic_family(ctx, x, y, 0.5))
                    for path in paths:
                        cert = is_geodesic(ctx, path)
                        assert cert.verdict and cert.certified, (i, size, x, y)
                        gap = abs(path_length(cost, path) - d)
                        assert gap <= ctx.default_tol * d, (i, size, x, y)

    def test_staircases_cost_the_distance_on_random_sampled_costs(self):
        # Each leg runs along a crystal edge normal at the contact vertex and
        # costs that edge's offset, so a staircase costs the crystal's
        # support of the displacement: the distance wherever classify finds
        # infinitely many geodesics. 15 table and 15 dip costs.
        rng = np.random.default_rng(71)
        staircases = 0
        for i in range(30):
            cost = random_sampled_cost(rng, table=i % 2 == 0)
            for size in (60, 720, 2880):
                ctx = CrystalContext(cost, SphereGrid.planar(size))
                for _ in range(20):
                    x, y = rng.uniform(-2, 2, size=(2, 2))
                    if classify(ctx, x, y) is not GeodesicClass.INFINITELY_MANY:
                        continue
                    d = ctx.distance(x, y)
                    for path in (construct_geodesic(ctx, x, y), geodesic_family(ctx, x, y, 0.5)):
                        staircases += 1
                        gap = abs(path_length(cost, path) - d)
                        assert gap <= 1e-9 * d, (vars(cost), size, x, y, gap / d)
        assert staircases > 500

    @pytest.mark.parametrize("size", [60, 720])
    def test_paths_on_random_sampled_costs_cost_at_most_the_distance(self, size):
        # A straight segment is taken only where F is at most the crystal's
        # support, so it never costs more than the staircase. 10 table and
        # 10 dip costs, 100 endpoint pairs each.
        rng = np.random.default_rng([size, 1])
        for i in range(20):
            cost = random_sampled_cost(rng, table=i % 2 == 0)
            ctx = CrystalContext(cost, SphereGrid.planar(size))
            for x, y in rng.uniform(-2, 2, size=(100, 2, 2)):
                length = path_length(cost, construct_geodesic(ctx, x, y))
                assert length <= ctx.distance(x, y) * (1.0 + 1e-12), (vars(cost), x, y)

    def test_equal_endpoints_rejected(self, l1_ctx):
        with pytest.raises(ValueError):
            construct_geodesic(l1_ctx, (1, 1), (1, 1))


class TestFamily:
    def test_endpoint_members(self, l1_ctx):
        p0 = geodesic_family(l1_ctx, (0, 0), (1, 1), 0.0)
        p1 = geodesic_family(l1_ctx, (0, 0), (1, 1), 1.0)
        assert np.allclose(p0.points, [[0, 0], [0, 1], [1, 1]], atol=1e-12)
        assert np.allclose(p1.points, [[0, 0], [1, 0], [1, 1]], atol=1e-12)

    def test_interior_member(self, l1_ctx):
        p = geodesic_family(l1_ctx, (0, 0), (1, 1), 0.5)
        assert np.allclose(p.points, [[0, 0], [0.5, 0], [0.5, 1], [1, 1]], atol=1e-12)
        assert path_length(l1_ctx.integrand, p) == pytest.approx(2.0, abs=1e-12)

    def test_all_members_have_equal_length(self, l1_ctx, dip_ctx):
        gap_dir = (math.cos(math.radians(25)), math.sin(math.radians(25)))
        for ctx, target in ((l1_ctx, (1.0, 1.0)), (dip_ctx, gap_dir)):
            d = ctx.distance((0, 0), target)
            for tau in np.linspace(0.0, 1.0, 7):
                p = geodesic_family(ctx, (0, 0), target, tau)
                assert path_length(ctx.integrand, p) == pytest.approx(d, rel=1e-12)

    def test_members_are_pairwise_distinct(self, l1_ctx):
        taus = np.linspace(0.0, 1.0, 10)
        paths = [geodesic_family(l1_ctx, (0, 0), (1, 1), t) for t in taus]
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                a, b = paths[i].points, paths[j].points
                assert a.shape != b.shape or not np.allclose(a, b, atol=1e-12)

    def test_extreme_direction_rejected(self, l1_ctx, euclid_ctx):
        with pytest.raises(ValueError, match="unique"):
            geodesic_family(l1_ctx, (0, 0), (1, 0), 0.5)
        with pytest.raises(ValueError, match="unique"):
            geodesic_family(euclid_ctx, (0, 0), (1, 1), 0.5)

    def test_tau_out_of_range_rejected(self, l1_ctx):
        with pytest.raises(ValueError):
            geodesic_family(l1_ctx, (0, 0), (1, 1), 1.5)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e8])
    @pytest.mark.parametrize("kind", [*README_COSTS, "max"])
    def test_every_member_runs_from_x_to_y_and_certifies(self, kind, scale):
        # Member 1 once ran to x + u + w, a rounding away from y, and dropped y
        # as within MIN_SEGMENT of it; at large scales it kept an ulp-long last
        # segment instead, which did not certify.
        ctx = CrystalContext(README_COSTS.get(kind, lambda: PNorm(math.inf))(), SphereGrid.planar(720))
        rng = np.random.default_rng(int(scale) % 1009)
        staircases = 0
        for _ in range(200):
            x, y = tuple(rng.uniform(-scale, scale, 2).tolist()), tuple(rng.uniform(-scale, scale, 2).tolist())
            if classify(ctx, x, y) is GeodesicClass.UNIQUE_UP_TO_REPARAM:
                with pytest.raises(ValueError, match="unique"):
                    geodesic_family(ctx, x, y, 0.5)
                continue
            staircases += 1
            for tau in (0.0, 0.5, 1.0):
                path = geodesic_family(ctx, x, y, tau)
                assert path.points[0].tobytes() == np.array(x).tobytes(), (x, y, tau)
                assert path.points[-1].tobytes() == np.array(y).tobytes(), (x, y, tau)
                assert is_geodesic(ctx, path).certified, (x, y, tau)
            assert path.points.tobytes() == construct_geodesic(ctx, x, y).points.tobytes(), (x, y)
        assert staircases > 0 or kind == "constant"

    def test_a_staircase_with_a_short_leg_costs_the_distance(self):
        # The dip's staircase to y has a leg of about 5e-13 beside one of 0.01. An
        # absolute floor on segment lengths refused it in the construction and member 1,
        # and below 1 dropped its breakpoint, leaving the straight segment, which costs
        # F(v) = 2 * norm and was still verified by an absolute default tolerance.
        ctx = CrystalContext(Dip(Constant(1.0), [((1, 0), 0.5)]), SphereGrid.planar(720))
        for y in [(0.01, 5e-13), (0.01, -5e-13)]:
            assert classify(ctx, (0, 0), y) is GeodesicClass.INFINITELY_MANY
            d = ctx.distance((0, 0), y)
            for tau in (0.0, 0.5, 1.0):
                path = geodesic_family(ctx, (0, 0), y, tau)
                assert len(path.points) > 2, (y, tau)
                assert path_length(ctx.integrand, path) == pytest.approx(d, rel=1e-12), (y, tau)
                cert = is_geodesic(ctx, path)
                assert cert.verdict and cert.certified, (y, tau)
            assert construct_geodesic(ctx, (0, 0), y).points.tobytes() == path.points.tobytes()
            straight = is_geodesic(ctx, Path.segment((0, 0), y))
            assert not straight.verdict and not straight.certified


class TestGeodesicBall:
    def test_isotropic_unit_ball_is_the_disk(self, euclid_ctx):
        ball = geodesic_ball(euclid_ctx, (0, 0), 1.0)
        radii = np.linalg.norm(ball.vertices, axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-9

    def test_l1_ball_reaches_the_corner(self, l1_ctx):
        ball = geodesic_ball(l1_ctx, (0, 0), 2.0)
        assert ball.contains((1.0, 1.0))
        assert not ball.contains((1.01, 1.01))
        assert ball.gauge((1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_polar_of_unit_ball_is_the_crystal(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            ball = geodesic_ball(ctx, (0, 0), 1.0)
            bound = 5 * ctx.resolution * ctx.crystal.diameter
            assert hausdorff_distance(polar(ball), ctx.crystal) <= bound, name

    def test_translation_and_scaling(self, l1_ctx):
        ball = geodesic_ball(l1_ctx, (3, -2), 0.5)
        assert ball.contains((3.0, -2.0))
        assert ball.contains((3.25, -1.75))
        assert not ball.contains((3.3, -1.7))

    def test_nonpositive_radius_rejected(self, l1_ctx):
        with pytest.raises(ValueError):
            geodesic_ball(l1_ctx, (0, 0), 0.0)

    def test_non_finite_radius_and_center_rejected(self, l1_ctx):
        for radius in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                geodesic_ball(l1_ctx, (0, 0), radius)
        for center in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="not finite"):
                geodesic_ball(l1_ctx, center, 1.0)


class TestChainInequalities:
    def test_length_chain_on_random_polylines(self, all_ctxs):
        # Raw cost length >= envelope-cost length >= endpoint distance, with
        # slack for the sampled envelope's interpolation error. 2500 paths
        # per cost, 10^4 total.
        rng = np.random.default_rng(53)
        for name, ctx in all_ctxs.items():
            envelope_cost = ctx.envelope
            slack = 5 * ctx.resolution * ctx.f_max
            for _ in range(2500):
                k = rng.integers(2, 7)
                path = None
                while path is None:
                    pts = rng.uniform(-2, 2, size=(k, 2))
                    try:
                        path = Path(pts)
                    except ValueError:
                        continue
                lf = path_length(ctx.integrand, path)
                ld = path_length(envelope_cost, path)
                dist = ctx.distance(path.start, path.end)
                scale = max(1.0, lf)
                assert lf >= ld - slack * scale, name
                assert ld >= dist - slack * scale, name

    def test_concatenation_inequality(self, all_ctxs):
        # Envelope length of the summed segment never beats the chain.
        rng = np.random.default_rng(59)
        for name, ctx in all_ctxs.items():
            for _ in range(100):
                n = rng.integers(2, 6)
                vecs = rng.uniform(-1.5, 1.5, size=(n, 2))
                vecs = vecs[np.linalg.norm(vecs, axis=1) > 1e-6]
                if len(vecs) < 2:
                    continue
                total = vecs.sum(axis=0)
                lhs = ctx.norm(total)
                rhs = sum(ctx.norm(u) for u in vecs)
                assert lhs <= rhs + 1e-9, name


class TestResample:
    def test_points_stay_on_the_polyline(self):
        out = resample_polyline(STAIRCASE, 37)
        assert len(out.points) == 37
        for p in out.points:
            d = min(
                _seg_dist(p, a, b)
                for a, b in zip(STAIRCASE.points[:-1], STAIRCASE.points[1:])
            )
            assert d <= 1e-12

    def test_straight_segment_keeps_length(self, euclid_ctx):
        seg = Path.segment((0, 0), (3, 4))
        out = resample_polyline(seg, 11)
        assert path_length(euclid_ctx.integrand, out) == pytest.approx(5.0, abs=1e-12)


def _seg_dist(p, a, b):
    ab = b - a
    t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
    return float(np.linalg.norm(a + t * ab - p))
