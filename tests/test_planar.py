import math
import tracemalloc

import numpy as np
import pytest

from anisogeo import CrystalContext, PNorm, SphereGrid, polar
from anisogeo.planar import (
    _directed_hausdorff,
    _prune_collinear_cycle,
    hausdorff_distance,
    hull_cycle,
    polar_polygon,
    segment_distances,
    strictly_convex,
    support_values,
)

SQUARE = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
SQ2 = math.sqrt(2.0)


def _turn(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def loop_prune(cycle: np.ndarray, eps: float) -> np.ndarray:
    """Reference: the vertex-by-vertex pruning sweep."""
    while len(cycle) > 3:
        k = len(cycle)
        keep = [i for i in range(k) if _turn(cycle[i - 1], cycle[i], cycle[(i + 1) % k]) > eps]
        if len(keep) == k:
            return cycle
        if len(keep) < 3:
            raise ValueError("point cloud is degenerate (collinear)")
        cycle = cycle[keep]
    return cycle


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Reference: distance from a point to one segment."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(a + t * ab - p)))


def point_polygon_distance(p: np.ndarray, vertices: np.ndarray) -> float:
    """Reference: distance from a point to a convex polygon as a set (0 inside)."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    p = np.asarray(p, dtype=float)
    inside = True
    for a, b in zip(v, w):
        ab, ap = b - a, p - a
        if float(ab[0] * ap[1] - ab[1] * ap[0]) < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(point_segment_distance(p, a, b) for a, b in zip(v, w))


def loop_directed(a_vertices: np.ndarray, b_vertices: np.ndarray) -> float:
    """Reference: the vertex-by-vertex directed Hausdorff distance."""
    return max(point_polygon_distance(p, b_vertices) for p in np.asarray(a_vertices, float))


def loop_hausdorff(a_vertices: np.ndarray, b_vertices: np.ndarray) -> float:
    return max(loop_directed(a_vertices, b_vertices), loop_directed(b_vertices, a_vertices))


def vertex_scan(cycle: np.ndarray, directions: np.ndarray) -> np.ndarray:
    return (np.asarray(directions) @ np.asarray(cycle).T).max(axis=1)


def unit_directions(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


class TestPruneCollinearCycle:
    def test_bit_identical_to_the_loop(self):
        rng = np.random.default_rng(11)
        checked = 0
        for trial in range(60):
            n = int(rng.integers(8, 300))
            # Points on a square's sides with jitter from 1e-16 to 1e-9:
            # qhull keeps many near-collinear vertices, and pruning needs
            # several passes. Every third cloud lies on the unit circle.
            t = rng.uniform(-1.0, 1.0, n)
            side = rng.integers(0, 4, n)
            pts = np.where(side[:, None] < 2, np.column_stack([np.where(side == 0, 1.0, -1.0), t]),
                           np.column_stack([t, np.where(side == 2, 1.0, -1.0)]))
            pts = pts + rng.normal(scale=10.0 ** rng.uniform(-16, -9), size=pts.shape)
            if trial % 3 == 0:
                pts = unit_directions(np.sort(rng.uniform(0, 2 * math.pi, n)))
            cycle = hull_cycle(pts)
            for eps in (0.0, 1e-14, 1e-12, 1e-10, 1e-3):
                try:
                    expected = loop_prune(cycle, eps)
                except ValueError:
                    with pytest.raises(ValueError, match="collinear"):
                        _prune_collinear_cycle(cycle, eps)
                    continue
                got = _prune_collinear_cycle(cycle, eps)
                assert got.shape == expected.shape and np.array_equal(got, expected)
                checked += 1
        assert checked > 200

    def test_collinear_cycle_raises_like_the_loop(self):
        line = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6)])
        with pytest.raises(ValueError, match="collinear"):
            loop_prune(line, 1e-12)
        with pytest.raises(ValueError, match="collinear"):
            _prune_collinear_cycle(line, 1e-12)


class TestSupportValues:
    def test_matches_dense_scan_on_random_hulls(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            pts = rng.normal(size=(int(rng.integers(3, 200)), 2)) * rng.uniform(0.1, 10.0, 2)
            cycle = hull_cycle(pts)
            dirs = unit_directions(rng.uniform(0, 2 * math.pi, 500))
            got = support_values(cycle, dirs)
            assert np.abs(got - vertex_scan(pts, dirs)).max() <= 1e-15 * np.abs(pts).max() * 4

    def test_direction_exactly_on_an_edge_normal(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(support_values(SQUARE, dirs), np.ones(4))
        diamond = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        diag = unit_directions(np.arange(4) * math.pi / 2 + math.pi / 4)
        assert np.array_equal(support_values(diamond, diag), vertex_scan(diamond, diag))

    def test_triangle(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.5], [-0.5, 1.5]])
        dirs = unit_directions(np.linspace(0, 2 * math.pi, 101))
        assert np.abs(support_values(tri, dirs) - vertex_scan(tri, dirs)).max() <= 1e-15

    def test_cycle_rotated_away_from_its_smallest_normal_angle(self):
        dirs = unit_directions(np.linspace(0, 2 * math.pi, 360, endpoint=False))
        polygon = hull_cycle(unit_directions(np.linspace(0.3, 2 * math.pi + 0.3, 17)[:-1]) * [2.0, 1.0])
        expected = vertex_scan(polygon, dirs)
        for start in range(len(polygon)):
            cycle = np.concatenate((polygon[start:], polygon[:start]))
            assert np.abs(support_values(cycle, dirs) - expected).max() <= 1e-15


def random_convex(rng, n: int) -> np.ndarray:
    pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2) + rng.normal(scale=3.0, size=2)
    return hull_cycle(pts)


def assert_close_to_loop(a: np.ndarray, b: np.ndarray) -> float:
    for p, q in ((a, b), (b, a)):
        expected = loop_directed(p, q)
        assert abs(_directed_hausdorff(p, q) - expected) <= 1e-12 * max(1.0, expected)
    expected = loop_hausdorff(a, b)
    got = hausdorff_distance(a, b)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)
    return got


class TestHausdorffDistance:
    def test_matches_the_loop_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            a = random_convex(rng, int(rng.integers(3, 60)))
            b = random_convex(rng, int(rng.integers(3, 60)))
            assert_close_to_loop(a, b)

    def test_matches_the_loop_on_nearly_equal_polygons(self):
        # The polar-duality checks compare a polygon with a copy rebuilt to
        # rounding: about half the vertices of each lie outside the other.
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = random_convex(rng, 200)
            b = a * (1.0 + rng.normal(scale=1e-13, size=a.shape))
            assert assert_close_to_loop(a, b) <= 1e-11 * np.abs(a).max()

    def test_nested_polygons_are_zero_one_way(self):
        outer = 2.0 * SQUARE
        inner = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
        assert _directed_hausdorff(inner, outer) == 0.0
        assert _directed_hausdorff(outer, inner) == pytest.approx(2.0 * SQ2 - 0.5 / SQ2, abs=1e-15)
        assert assert_close_to_loop(inner, outer) == pytest.approx(2.0 * SQ2 - 0.5 / SQ2)

    def test_disjoint_touching_and_edge_sharing_squares(self):
        for shift, expected in (
            ((5.0, 0.0), 5.0),  # disjoint: the far side is 5 away from the near one
            ((2.0, 2.0), 2.0 * SQ2),  # touching at the vertex (1, 1)
            ((2.0, 0.0), 2.0),  # sharing the edge x = 1
        ):
            moved = SQUARE + np.array(shift)
            assert assert_close_to_loop(SQUARE, moved) == pytest.approx(expected, rel=1e-15)

    def test_triangles(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.5], [-0.5, 1.5]])
        other = np.array([[0.5, 0.2], [3.0, 1.0], [0.0, 2.0]])
        assert_close_to_loop(tri, other)
        assert hausdorff_distance(tri, tri) == 0.0

    def test_zero_length_edge(self):
        # A repeated vertex gives one zero-length edge, where t is 0.
        square = np.concatenate((SQUARE[:2], SQUARE[1:]))
        tri = np.array([[3.0, 0.0], [4.0, 1.0], [3.0, 2.0]])
        assert_close_to_loop(square, tri)
        d = segment_distances(np.array([[4.0, 5.0]]), SQUARE[1:2], SQUARE[1:2])
        assert d[0, 0] == 5.0

    @pytest.mark.filterwarnings("error")
    def test_scales_with_the_polygons(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.5], [-0.5, 1.5]])
        other = np.array([[0.5, 0.2], [3.0, 1.0], [0.0, 2.0]])
        base = hausdorff_distance(tri, other)
        for scale in (2.0**-1000, 1e-200, 1e-100, 1e100, 1e200, 2.0**1000):
            got = hausdorff_distance(tri * scale, other * scale)
            assert got == pytest.approx(base * scale, rel=1e-15, abs=0.0), scale

    def test_blocks_bound_the_memory(self):
        grid = SphereGrid.planar(2880)
        ctx = CrystalContext(PNorm(3.0), grid)
        a, b = ctx.crystal.vertices, polar(ctx.polar_body).vertices
        assert len(a) > 2000 and len(b) > 2000
        tracemalloc.start()
        try:
            d = hausdorff_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d <= 1e-9
        # One unblocked pass would need about 500 MB.
        assert peak < 64 * 2**20


class TestScaleFreeThresholds:
    def test_pruning_and_polarity_at_extreme_scales(self):
        # A 12-gon with two extra vertices on its edges: pruning keeps the
        # twelve corners, and the polar of a scaled polygon is the polar
        # scaled by the inverse, at any magnitude.
        corners = unit_directions(np.arange(12) * math.pi / 6 + 0.1)
        mids = 0.5 * (corners[:2] + corners[1:3])
        cycle = hull_cycle(np.vstack([corners, mids]))
        pruned = strictly_convex(cycle)
        base_polar = polar_polygon(pruned)
        assert len(pruned) == 12
        for scale in (2.0**-900, 1e-200, 1e-100, 1e-14, 1e14, 1e100, 1e200, 2.0**900):
            got = strictly_convex(hull_cycle(cycle * scale))
            assert len(got) == 12
            assert np.allclose(got, pruned * scale, rtol=1e-15, atol=0.0)
            assert np.allclose(polar_polygon(got), base_polar / scale, rtol=1e-14, atol=0.0)

    def test_power_of_two_scaling_keeps_every_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            cycle = hull_cycle(rng.normal(size=(60, 2)))
            pruned = strictly_convex(cycle)
            for k in (-600, -3, 5, 600):
                assert np.array_equal(hull_cycle(cycle * 2.0**k), cycle * 2.0**k)
                assert np.array_equal(strictly_convex(cycle * 2.0**k), pruned * 2.0**k)

    def test_zero_scale_still_raises(self):
        with pytest.raises(ValueError, match="collinear"):
            strictly_convex(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            polar_polygon(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="degenerate"):
            hull_cycle(np.zeros((4, 2)))

    def test_origin_on_the_boundary_is_refused_at_any_scale(self):
        for scale in (1e-200, 1.0, 1e200):
            with pytest.raises(ValueError, match="strictly interior"):
                polar_polygon((SQUARE + [1.0, 0.0]) * scale)
