import math
import tracemalloc

import numpy as np
import pytest

from anisogeo import (
    Constant,
    ConvexRegion,
    CrystalContext,
    Dip,
    PNorm,
    SphereGrid,
    build_crystal,
    contact_face,
    double_polar,
    extremal_points,
    hausdorff_distance,
    normal_cone,
    polar,
)
from anisogeo.crystal import NormalCone
from anisogeo.planar import convex_hull_ccw

from conftest import sorted_rows
from test_planar import point_segment_distance

SQ2 = math.sqrt(2.0)

SQUARE = ConvexRegion(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]))


def brute_force_member(F, grid, x, slack=0.0):
    """Independent membership test: check x against every scanned halfplane."""
    x = np.asarray(x, dtype=float)
    for v in grid.directions:
        if float(x @ v) > F(v) + slack:
            return False
    return True


def loop_normal_cone(region: ConvexRegion, y, tol: float = 1e-9) -> NormalCone:
    """Reference: normal_cone with one point-segment distance per edge."""
    y = np.asarray(y, dtype=float)
    verts = region.vertices
    nxt = np.roll(verts, -1, axis=0)
    k = len(verts)
    slack = tol * max(1.0, region.diameter)
    dists = np.array([point_segment_distance(y, verts[j], nxt[j]) for j in range(k)])
    if dists.min() > slack:
        raise ValueError("point is not on the region boundary")
    vertex_gap = np.linalg.norm(verts - y, axis=1)
    j = int(np.argmin(vertex_gap))
    if vertex_gap[j] <= slack:
        gens = np.vstack([region.normals[(j - 1) % k], region.normals[j]])
        return NormalCone(at=verts[j], generators=gens)
    e = int(np.argmin(dists))
    return NormalCone(at=y, generators=region.normals[e][None, :])


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
        grid = SphereGrid.__new__(SphereGrid)
        object.__setattr__(grid, "directions", bad)
        object.__setattr__(grid, "resolution", 0.25)
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

    def test_polar_requires_origin_interior(self):
        shifted = SQUARE.translated((5.0, 0.0))
        with pytest.raises(ValueError, match="origin"):
            polar(shifted)


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
        # Dual routes: support of the norm region vs gauge of its polar.
        rng = np.random.default_rng(5)
        bound = 2 * dip_ctx.resolution * dip_ctx.f_max
        for _ in range(50):
            v = rng.normal(size=2)
            s = dip_ctx.norm_region.support(v)
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


class TestContactFace:
    def test_square_diagonal_hits_the_corner(self):
        face = contact_face(SQUARE, np.array([1.0, 1.0]) / SQ2)
        assert not face.is_edge
        assert np.allclose(face.representative, [1.0, 1.0], atol=1e-12)

    def test_square_axis_hits_an_edge(self):
        face = contact_face(SQUARE, (1.0, 0.0))
        assert face.is_edge
        assert np.allclose(face.representative, [1.0, 0.0], atol=1e-12)
        assert np.allclose(sorted_rows(face.vertices), [[1.0, -1.0], [1.0, 1.0]], atol=1e-12)

    def test_disk_face_sits_near_the_direction(self, euclid_ctx):
        # The halfplane-built disk polygon is circumscribed: grid directions
        # hit tangent edges (midpoint on the circle), directions between grid
        # angles hit single vertices.
        face = contact_face(euclid_ctx.crystal, (1.0, 0.0))
        assert np.linalg.norm(face.representative - [1.0, 0.0]) <= 2 * euclid_ctx.resolution
        half_step = euclid_ctx.resolution / 2.0
        v = np.array([math.cos(half_step), math.sin(half_step)])
        face = contact_face(euclid_ctx.crystal, v)
        assert not face.is_edge
        assert np.linalg.norm(face.representative - v) <= 2 * euclid_ctx.resolution

    def test_face_attains_the_support_value(self, dip_ctx):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            face = contact_face(dip_ctx.crystal, v)
            s = dip_ctx.crystal.support(v)
            for y in face.vertices:
                assert abs(float(y @ v) - s) <= 1e-9


class TestNormalCone:
    def test_edge_interior_single_generator(self):
        cone = normal_cone(SQUARE, (1.0, 0.0))
        assert cone.generators.shape == (1, 2)
        assert np.allclose(cone.generators[0], [1.0, 0.0], atol=1e-12)

    def test_vertex_two_generators(self):
        cone = normal_cone(SQUARE, (1.0, 1.0))
        assert cone.generators.shape == (2, 2)
        assert np.allclose(sorted_rows(cone.generators), [[0, 1], [1, 0]], atol=1e-12)

    def test_disk_vertex_generators_near_radial_direction(self, euclid_ctx):
        y = euclid_ctx.crystal.vertices[10]
        cone = normal_cone(euclid_ctx.crystal, y)
        assert cone.generators.shape == (2, 2)
        radial = y / np.linalg.norm(y)
        for g in cone.generators:
            assert float(g @ radial) >= math.cos(euclid_ctx.resolution)

    def test_generators_point_outward(self):
        rng = np.random.default_rng(17)
        region = ConvexRegion.from_points(rng.normal(size=(15, 2)))
        for y in region.vertices[:5]:
            cone = normal_cone(region, y)
            for g in cone.generators:
                assert np.max((region.vertices - cone.at) @ g) <= 1e-9

    def test_interior_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            normal_cone(SQUARE, (0.0, 0.0))

    def test_matches_the_loop_at_edges_and_vertices(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(30):
            region = ConvexRegion.from_points(rng.normal(size=(int(rng.integers(3, 40)), 2)))
            v = region.vertices
            w = np.concatenate((v[1:], v[:1]))
            slack = 1e-9 * max(1.0, region.diameter)
            s = rng.uniform(0.05, 0.95, len(v))[:, None]
            near = v + rng.uniform(-0.4, 0.4, v.shape) * slack
            for y in np.vstack([v, v + s * (w - v), near]):
                expected = loop_normal_cone(region, y)
                got = normal_cone(region, y)
                assert np.array_equal(got.at, expected.at)
                assert np.array_equal(got.generators, expected.generators)
                checked += 1
            centre = v.mean(axis=0)
            for y in (centre, centre + 1.5 * (v[0] - centre), v[0] + 10.0 * slack * region.normals[0]):
                for cone in (normal_cone, loop_normal_cone):
                    with pytest.raises(ValueError, match="boundary"):
                        cone(region, y)
        assert checked > 500


class TestExtremalPoints:
    def test_square_has_four(self):
        assert len(extremal_points(SQUARE)) == 4

    def test_collinear_cloud_prunes_to_cross_polytope(self):
        # Points on the cross-polytope boundary, including edge midpoints.
        corners = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        mids = 0.5 * (corners + np.roll(corners, -1, axis=0))
        region = ConvexRegion.from_points(np.vstack([corners, mids]))
        assert len(extremal_points(region)) == 4

    def test_disk_polygon_keeps_every_vertex(self, euclid_ctx):
        assert len(extremal_points(euclid_ctx.crystal)) == len(euclid_ctx.crystal.vertices)


class TestOrthogonalDirections:
    def test_l1_axis_is_attained(self, l1_ctx):
        assert l1_ctx.is_orthogonal_direction((1.0, 0.0))

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
            bound = 5 * ctx.resolution * max(1.0, ctx.crystal.diameter)
            assert hausdorff_distance(polar(ctx.polar_body), ctx.crystal) <= bound, name
            assert hausdorff_distance(polar(ctx.crystal), ctx.polar_body) <= bound, name

    def test_crystal_is_wulff_hypograph(self, all_ctxs, grid):
        # Membership through the halfplane polygon vs through the radial
        # description must agree away from a boundary collar.
        rng = np.random.default_rng(29)
        for name, ctx in all_ctxs.items():
            W = ctx.wulff
            collar = 5 * ctx.resolution * max(1.0, ctx.crystal.diameter)
            pts = rng.uniform(-1.5, 1.5, size=(10_000, 2))
            gauges = np.array([ctx.polar_body.gauge(p) if np.any(p) else 0.0 for p in pts])
            clear = np.abs(gauges - 1.0) > collar  # outside the boundary collar
            agree = 0
            total = 0
            for p, g in zip(pts[clear], gauges[clear]):
                total += 1
                r = np.linalg.norm(p)
                agree += ctx.crystal.contains(p) == (r <= W.unit_value(p / r))
            assert total > 5000, name
            assert agree == total, name

    def test_envelope_matches_crystal_support_on_grid(self, all_ctxs, grid):
        for name, ctx in all_ctxs.items():
            support = (grid.directions @ ctx.crystal.vertices.T).max(axis=1)
            bound = 2 * ctx.resolution * ctx.f_max
            assert np.abs(ctx.envelope.values - support).max() <= bound, name

    def test_contact_face_equivalences(self, all_ctxs, grid):
        # For every grid direction: the face representative attains the
        # envelope value, and the hyperplane through it with that normal is
        # supporting (max over vertices equals the offset).
        for name, ctx in all_ctxs.items():
            tol = 2 * ctx.resolution * ctx.f_max
            for v in grid.directions[::37]:
                face = contact_face(ctx.crystal, v)
                x_bar = face.representative
                d_v = ctx.norm(v)
                assert abs(float(v @ x_bar) - d_v) <= tol, name
                offset = float((ctx.crystal.vertices @ v).max())
                assert abs(float(v @ x_bar) - offset) <= 1e-9 * max(1.0, offset), name

    def test_attained_normals_are_contact_directions(self, all_ctxs):
        for name, ctx in all_ctxs.items():
            for v in ctx.crystal.normals:
                assert ctx.in_contact(v), f"{name}: normal {v} not in contact"


class TestRegionValidation:
    def test_rejects_clockwise_vertices(self):
        with pytest.raises(ValueError):
            ConvexRegion(np.array([[1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_collinear_triples(self):
        with pytest.raises(ValueError):
            ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))

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
