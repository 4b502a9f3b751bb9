import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from anisogeo import (
    AngularTable,
    Constant,
    CrystalContext,
    Crystalline,
    Dip,
    PNorm,
    SphereGrid,
    polar,
)
from anisogeo.integrand import scan_directions, wulff_transform
from anisogeo.isoperimetry import _competitor_ratios
from anisogeo import planar
from anisogeo.planar import (
    convex_hull_ccw,
    hausdorff_distance,
    hausdorff_distances,
    hull_cycle,
    polar_polygon,
    polygon_area,
    strictly_convex,
    support_values,
    unit_scaled,
)

SQUARE = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
SQ2 = math.sqrt(2.0)


def _turn(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def loop_prune(cycle: np.ndarray, eps: float) -> np.ndarray:
    """Reference: the vertex-by-vertex pruning sweep. A pass flags every
    vertex whose turn is at most eps and, walking on from a kept vertex,
    drops every other vertex of each run of flagged neighbours, starting
    with the first, so no two neighbours drop in one pass."""
    while len(cycle) > 3:
        k = len(cycle)
        flag = [_turn(cycle[i - 1], cycle[i], cycle[(i + 1) % k]) <= eps for i in range(k)]
        if not any(flag):
            return cycle
        if all(flag):
            raise ValueError("point cloud is degenerate (collinear)")
        start = flag.index(False)
        keep = [True] * k
        run = 0
        for step in range(1, k):
            i = (start + step) % k
            run = run + 1 if flag[i] else 0
            keep[i] = run % 2 == 0
        if sum(keep) < 3:
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


def reference_segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Reference: distance from every point to every segment, shape
    (points, segments), with t = 0 on a zero-length segment."""
    p = np.asarray(points, dtype=float)
    a = np.asarray(starts, dtype=float)
    ab = np.asarray(ends, dtype=float) - a
    px, py = p[:, :1], p[:, 1:]
    ax, ay, abx, aby = a[:, 0], a[:, 1], ab[:, 0], ab[:, 1]
    denom = abx * abx + aby * aby
    t = (px - ax) * abx + (py - ay) * aby
    np.divide(t, denom, out=t, where=denom != 0.0)
    t[:, denom == 0.0] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(ax + t * abx - px, ay + t * aby - py)


def reference_directed_hausdorff(points: np.ndarray, vertices: np.ndarray) -> float:
    """Reference: the blocked kernel the batch replaced, one directed pair
    at a time, in row blocks of about 2**18 point-edge pairs."""
    a = vertices
    b = np.concatenate((a[1:], a[:1]))
    ax, ay = a[:, 0], a[:, 1]
    abx, aby = b[:, 0] - ax, b[:, 1] - ay
    rows = max(1, (1 << 18) // len(a))
    worst = []
    for lo in range(0, len(points), rows):
        p = points[lo : lo + rows]
        cross = abx * (p[:, 1:] - ay) - aby * (p[:, :1] - ax)
        outside = p[(cross < 0.0).any(axis=1)]
        worst.append(reference_segment_distances(outside, a, b).min(axis=1).max() if len(outside) else 0.0)
    return float(max(worst))


def reference_hausdorff(a_vertices: np.ndarray, b_vertices: np.ndarray) -> float:
    """Reference: both directions of the blocked kernel on the pair scaled
    by one power of two."""
    a = np.asarray(a_vertices, dtype=float)
    both, exponent = unit_scaled(np.vstack((a, np.asarray(b_vertices, dtype=float))))
    a, b = both[: len(a)], both[len(a) :]
    d = max(reference_directed_hausdorff(a, b), reference_directed_hausdorff(b, a))
    return float(np.ldexp(d, exponent))


def vertex_scan(cycle: np.ndarray, directions: np.ndarray) -> np.ndarray:
    return (np.asarray(directions) @ np.asarray(cycle).T).max(axis=1)


def unit_directions(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def jittered_square(rng, n: int) -> np.ndarray:
    """Points on a square's sides with jitter from 1e-16 to 1e-9: the hull
    keeps many near-collinear vertices."""
    t = rng.uniform(-1.0, 1.0, n)
    side = rng.integers(0, 4, n)
    pts = np.where(side[:, None] < 2, np.column_stack([np.where(side == 0, 1.0, -1.0), t]),
                   np.column_stack([t, np.where(side == 2, 1.0, -1.0)]))
    return pts + rng.normal(scale=10.0 ** rng.uniform(-16, -9), size=pts.shape)


def pruning_cycles(source) -> list:
    """Hull cycles for the pruning contract: jittered squares, whose hulls
    keep many near-collinear vertices, unit-circle clouds, or the dual
    clouds of every benchmark kind at a grid size."""
    if isinstance(source, int):
        return [hull_cycle(cost_clouds(F, source)[0]) for F in benchmark_kind_costs(np.random.default_rng(source))]
    rng = np.random.default_rng(11)
    sizes = rng.integers(8, 300, 30).tolist()
    if source == "square":
        return [hull_cycle(jittered_square(rng, n)) for n in sizes]
    return [hull_cycle(unit_directions(np.sort(rng.uniform(0, 2 * math.pi, n)))) for n in sizes]


def straight_or_short(cycle: np.ndarray) -> np.ndarray:
    """Per vertex, on unit_scaled of the cycle, in plain columns: whether it
    is nearly straight (a positive dot product of its edges, at least
    1 / STRAIGHT_TAN times their cross product's magnitude) or starts an
    edge no longer than SHORT_EDGE."""
    u = unit_scaled(cycle)[0]
    e = np.roll(u, -1, axis=0) - u
    p = np.roll(e, 1, axis=0)
    cross, dot = p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0], p[:, 0] * e[:, 0] + p[:, 1] * e[:, 1]
    straight = (dot > 0.0) & (np.abs(cross) <= planar.STRAIGHT_TAN * dot)
    return straight | (np.hypot(e[:, 0], e[:, 1]) <= planar.SHORT_EDGE)


PRUNING_SOURCES = ["square", "circle", 60, 720, 2880]


class TestPruneCollinearCycle:
    @pytest.mark.parametrize("source", PRUNING_SOURCES)
    def test_pruning_its_own_output_drops_nothing(self, source):
        dropped = 0
        for cycle in pruning_cycles(source):
            pruned = strictly_convex(cycle)
            dropped += len(cycle) - len(pruned)
            again = strictly_convex(pruned)
            assert again.shape == pruned.shape and np.array_equal(again, pruned)
        if source == "square":
            assert dropped > 100  # the rule has work to do here

    @pytest.mark.parametrize("source", PRUNING_SOURCES)
    def test_no_kept_vertex_is_nearly_straight_or_starts_a_short_edge(self, source):
        for cycle in pruning_cycles(source):
            assert not straight_or_short(strictly_convex(cycle)).any()

    @pytest.mark.parametrize("source", PRUNING_SOURCES)
    def test_the_support_moves_within_the_stated_bound(self, source):
        # The pruned cycle keeps a subset of the vertices, so its support
        # never rises past rounding, and falls by at most 8 k STRAIGHT_TAN m
        # for k dropped vertices and m the largest coordinate magnitude.
        dirs = unit_directions(np.linspace(0.0, 2.0 * math.pi, 4000, endpoint=False))
        for cycle in pruning_cycles(source):
            pruned = strictly_convex(cycle)
            m = float(np.abs(cycle).max())
            fall = support_values(cycle, dirs) - support_values(pruned, dirs)
            assert fall.min() >= -4.0 * np.finfo(float).eps * m
            assert fall.max() <= 8.0 * (len(cycle) - len(pruned)) * planar.STRAIGHT_TAN * m

    def test_a_cut_corner_loses_one_point_not_the_corner(self):
        # A square with its (1, 1) corner cut by d: the two cut points are
        # nearly coincident, and each turn there is below the threshold.
        # Dropping both in one pass left a triangle of area 2.
        for d in (1e-9, 1e-11, 1e-13, 1e-15):
            cut = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0 - d], [1.0 - d, 1.0], [-1.0, 1.0]])
            for scale in (1e-200, 1e-100, 1.0, 1e100, 1e200):
                got = convex_hull_ccw(cut * scale)
                assert len(got) in (4, 5), (d, scale)
                assert polygon_area(got / scale) == pytest.approx(4.0, abs=1e-8), (d, scale)
                unit = unit_scaled(cut * scale)[0]
                assert len(loop_prune(unit, 1e-12 * np.abs(unit).max() ** 2)) == len(got)

    def test_collinear_cycle_raises_like_the_loop(self):
        line = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6)])
        with pytest.raises(ValueError, match="collinear"):
            loop_prune(line, 1e-12)
        with pytest.raises(ValueError, match="collinear"):
            strictly_convex(line)


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

    def test_wraps_unroll_every_rotation_in_either_angle_range(self):
        # The rule support_values and the Hausdorff sweep share: a convex
        # cycle's edge angles, less 2 pi per wrap, rise by one full turn.
        edges = unit_directions(np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False) + 0.1)
        angles = np.arctan2(edges[:, 1], edges[:, 0])
        for a in (angles, np.mod(angles, 2.0 * math.pi), np.append(angles, angles[-1] - 1e-15)):
            for start in range(len(a)):
                b = np.roll(a, -start)
                unrolled = b - 2.0 * math.pi * planar._cycle_wraps(b)
                assert np.all(np.diff(unrolled) > -1e-14), (start, unrolled)
                assert unrolled[-1] - unrolled[0] < 2.0 * math.pi + 1e-14


def random_convex(rng, n: int) -> np.ndarray:
    pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2) + rng.normal(scale=3.0, size=2)
    return hull_cycle(pts)


def assert_near(got: float, want: float, a: np.ndarray, b: np.ndarray) -> None:
    """A gap within 4 ulp of the pair's largest coordinate magnitude of
    another, such as the blocked kernel's."""
    assert abs(got - want) <= 4.0 * np.finfo(float).eps * max(np.abs(a).max(), np.abs(b).max())


def assert_close_to_loop(a: np.ndarray, b: np.ndarray) -> float:
    for p, q in ((a, b), (b, a)):
        expected = loop_directed(p, q)
        assert abs(reference_directed_hausdorff(p, q) - expected) <= 1e-12 * max(1.0, expected)
    expected = loop_hausdorff(a, b)
    got = hausdorff_distance(a, b)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)
    assert_near(got, reference_hausdorff(a, b), a, b)
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
        assert reference_directed_hausdorff(inner, outer) == 0.0
        assert reference_directed_hausdorff(outer, inner) == pytest.approx(2.0 * SQ2 - 0.5 / SQ2, abs=1e-15)
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
        assert hausdorff_distance(np.array([[4.0, 5.0]]), SQUARE[1:2]) == 5.0

    def test_collinear_runs_and_repeated_vertices_on_squares(self):
        # A bump of one ulp on the right side puts its two edge normals at
        # 2 pi (rounded) and just above 0, on both sides of the sort's cut;
        # a collinear run and repeated vertices lie along every other side.
        bump = 1.0 + 2.0**-52
        sides = np.array([[1.0, -1.0], [bump, 0.0], [1.0, 1.0], [1.0, 1.0], [0.5, 1.0], [0.0, 1.0],
                          [-1.0, 1.0], [-1.0, 0.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0]])
        tol = 4.0 * np.finfo(float).eps * 1.5
        for cycle in (sides, np.delete(sides, 1, axis=0)):
            for start in range(len(cycle)):
                a = np.roll(cycle, -start, axis=0)
                assert abs(hausdorff_distance(a, 1.5 * SQUARE) - 0.5 * SQ2) <= tol, start
                assert abs(hausdorff_distance(SQUARE + [0.25, 0.0], a) - 0.25) <= tol, start
                assert hausdorff_distance(a, SQUARE) <= tol, start
                assert_close_to_loop(a, 1.5 * SQUARE)

    def test_collinear_midpoints_leave_the_gap(self):
        # Rounding sorts the normals of many of these half-edges out of
        # cycle order without any certain right turn.
        rng = np.random.default_rng(43)
        for _ in range(60):
            a, b = random_convex(rng, int(rng.integers(3, 30))), random_convex(rng, int(rng.integers(3, 30)))
            runs = np.stack((a, 0.5 * (a + np.roll(a, -1, axis=0))), axis=1).reshape(-1, 2)
            got = hausdorff_distance(runs, b)
            assert_near(got, hausdorff_distance(a, b), a, b)
            assert_near(got, reference_hausdorff(a, b), a, b)

    def test_right_turning_cycles_are_measured_as_their_hulls(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a, other = random_convex(rng, int(rng.integers(3, 40))), random_convex(rng, 9)
            clockwise = a[::-1]
            # A repeated vertex moved inward by 1e-13 of the scale turns right;
            # repeated once more, the turn is between two nonzero edges.
            i = int(rng.integers(len(a)))
            inward = a[i] + 1e-13 * np.abs(a).max() * (a.mean(axis=0) - a[i])
            dent, dents = np.insert(a, i, inward, axis=0), np.insert(a, i, [inward, inward], axis=0)
            want = hausdorff_distance(a, other)
            for cycle in (clockwise, dent, dents):
                got = hausdorff_distance(cycle, other)
                assert got == hausdorff_distance(hull_cycle(cycle), other)
                assert_near(got, want, a, other)
            assert hausdorff_distances([(other, clockwise), (dent, other)]).tolist() == [
                hausdorff_distance(other, hull_cycle(clockwise)), hausdorff_distance(hull_cycle(dent), other)]

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

    def test_a_batch_with_a_large_pair_stays_blocked(self):
        ctx = CrystalContext(PNorm(3.0), SphereGrid.planar(2880))
        a, b = ctx.crystal.vertices, polar(ctx.polar_body).vertices
        small = random_convex(np.random.default_rng(3), 12)
        pairs = [(small, a), (a, b), (small, 2.0 * small)]
        tracemalloc.start()
        try:
            got = hausdorff_distances(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert got.tolist() == [hausdorff_distance(p, q) for p, q in pairs]
        assert_near(got[1], reference_hausdorff(a, b), a, b)


class TestStrictlyConvexCycles:
    def test_each_cycle_as_strictly_convex_gives_it(self):
        rng = np.random.default_rng(43)
        diamond = np.array([[1.0, 3 * 5e-324], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # subnormal after scaling
        cycles = [diamond, 1e300 * SQUARE, 1e-300 * diamond]
        for k in (3, 5, 40):
            ring = random_convex(rng, k)
            mid = 0.5 * (ring + np.roll(ring, -1, axis=0))
            cycles += [ring, np.stack((ring, mid), axis=1).reshape(-1, 2)]
        points, counts, starts, nxt = planar.strictly_convex_cycles(cycles)
        want = [strictly_convex(c) for c in cycles]
        assert counts.tolist() == [len(c) for c in want]
        assert np.array_equal(points, np.concatenate(want))
        assert np.array_equal(nxt, planar.cycle_links(counts)[1])
        assert not np.array_equal(want[0], diamond)  # the scaling rounds the subnormal
        assert np.array_equal(planar.strictly_convex_cycles(cycles[:1])[0], want[0])


class TestHausdorffBatch:
    """hausdorff_distances against the per-pair loop, bit for bit."""

    def test_mixed_sizes_match_the_per_pair_loop(self):
        rng = np.random.default_rng(31)
        square = np.concatenate((SQUARE[:2], SQUARE[1:]))  # a zero-length edge
        pairs = [(square, np.array([[3.0, 0.0], [4.0, 1.0], [3.0, 2.0]]))]
        for _ in range(30):
            n, m = (int(k) for k in rng.choice([3, 4, 8, 13, 60, 300], size=2))
            a = random_convex(rng, n)
            b = a * (1.0 + rng.normal(scale=1e-13, size=a.shape)) if rng.uniform() < 0.3 else random_convex(rng, m)
            pairs.append((a * 10.0 ** rng.integers(-200, 200), b) if rng.uniform() < 0.2 else (a, b))
        pairs.append((square, square * 1.5))
        rng = np.random.default_rng(37)
        pairs += [(random_convex(rng, int(n)), random_convex(rng, int(m)))
                  for n, m in rng.integers(3, 200, size=(12, 2))]
        got = hausdorff_distances(pairs)
        assert got.dtype == float and got.shape == (len(pairs),)
        for d, (a, b) in zip(got.tolist(), pairs):
            assert d == hausdorff_distance(a, b)
            assert_near(d, reference_hausdorff(a, b), a, b)

    def test_a_permuted_batch_gives_the_same_values(self):
        rng = np.random.default_rng(47)
        point, segment = np.array([[0.5, 0.25]]), np.array([[-1.0, 0.0], [1.0, 0.5]])
        pairs = [(point, 2.0 * point), (point, segment), (segment, SQUARE), (SQUARE, 1e-300 * SQUARE)]
        for n, m in rng.integers(3, 80, size=(16, 2)):
            a = random_convex(rng, int(n))
            pairs.append((a, a * (1.0 + rng.normal(scale=1e-13, size=a.shape)) if n % 2 else random_convex(rng, int(m))))
        got = hausdorff_distances(pairs)
        for _ in range(5):
            order = rng.permutation(len(pairs))
            assert hausdorff_distances([pairs[i] for i in order]).tolist() == got[order].tolist()

    def test_points_and_segments_are_sets(self):
        point, far = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        assert hausdorff_distance(point, far) == 5.0
        segment = np.array([[-1.0, 0.0], [1.0, 0.0]])
        assert hausdorff_distance(np.array([[5.0, 0.0]]), segment) == 6.0
        assert hausdorff_distance(segment, np.array([[0.0, 2.0]])) == pytest.approx(math.sqrt(5.0))
        assert hausdorff_distances([(segment, SQUARE)]).tolist() == [1.0]

    def test_an_empty_batch(self):
        assert hausdorff_distances([]).shape == (0,)

    @pytest.mark.filterwarnings("error")
    def test_bad_vertex_arrays_are_refused_by_name(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.5], [-0.5, 1.5]])
        for bad, what in ((np.zeros((0, 2)), "got shape"), (np.zeros(4), "got shape"),
                          (np.zeros((3, 3)), "got shape"), (np.array([[0.0, 0.0], [math.nan, 1.0], [1.0, 0.0]]), "non-finite"),
                          (np.array([[0.0, 0.0], [math.inf, 1.0], [1.0, 0.0]]), "non-finite")):
            with pytest.raises(ValueError, match=f"b_vertices .*{what}"):
                hausdorff_distance(tri, bad)
            with pytest.raises(ValueError, match=f"a_vertices .*{what}"):
                hausdorff_distance(bad, tri)
            with pytest.raises(ValueError, match=f"pair 1: a_vertices .*{what}"):
                hausdorff_distances([(tri, tri), (bad, tri)])


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


def qhull_cycle(points: np.ndarray) -> np.ndarray:
    """Reference: qhull's counterclockwise cycle, on the points scaled by a
    power of two into [-1, 1] (exact) so any magnitude stays in its range."""
    return points[ConvexHull(unit_scaled(points)[0]).vertices]


def certain_turns(cycle: np.ndarray) -> np.ndarray:
    """Turn of every vertex with its neighbours, as the hull computes it,
    less Shewchuk's bound on its rounding error: positive where the turn is
    certainly to the left."""
    u = unit_scaled(cycle)[0]
    o, b = np.roll(u, 1, axis=0), np.roll(u, -1, axis=0)
    left = (u[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1])
    right = (u[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])
    eps = 2.0**-53
    return left - right - (3.0 + 16.0 * eps) * eps * (np.abs(left) + np.abs(right))


def benchmark_kind_costs(rng) -> list:
    """One cost of each of the seven kinds the benchmark draws."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 6))
    table = np.sort(rng.uniform(0.0, 2.0 * math.pi, 12))
    base = PNorm(rng.uniform(1.2, 6.0))
    dips = [(unit_directions([a])[0], rng.uniform(0.3, 0.95) * base(unit_directions([a])[0]))
            for a in rng.uniform(0.0, 2.0 * math.pi, 2)]
    return [
        PNorm(1.0),
        PNorm(math.inf),
        PNorm(rng.uniform(1.2, 6.0)),
        Constant(rng.uniform(0.5, 2.0)),
        Crystalline([(d, w) for d, w in zip(unit_directions(angles), rng.uniform(0.5, 2.0, 6))]),
        AngularTable(table, rng.uniform(0.5, 2.0, 12)),
        Dip(base, dips),
    ]


def cost_clouds(F, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The dual points w / F(w) and the Wulff-graph points a context hulls."""
    grid = SphereGrid.planar(size)
    dirs = scan_directions(F, grid)
    dual = dirs / F.values_on(dirs)[:, None]
    return dual, grid.directions * wulff_transform(F, grid).values[:, None]


def assert_matches_qhull(points: np.ndarray, same_pruning: bool = True) -> None:
    """The hull against qhull on 4,000 directions: its support is within
    2 ulp of the scale of the cloud's own (a scan of every point), and
    within 4 ulp of qhull's unless qhull is the one off the scan, as where
    it merges nearly collinear points. Every turn is positive, the cycle
    starts at the smallest point, and the strictly convex vertices are
    qhull's up to rounding. Where the cloud has true vertices with turns
    near the pruning threshold (``same_pruning`` false), pruning either
    cycle keeps a polygon within that threshold of the other."""
    cycle, reference = hull_cycle(points), qhull_cycle(points)
    ulp = np.finfo(float).eps * float(np.abs(points).max())
    dirs = unit_directions(np.linspace(0.0, 2.0 * math.pi, 4000, endpoint=False))
    truth = vertex_scan(points, dirs)
    mine, theirs = support_values(cycle, dirs), support_values(reference, dirs)
    assert np.abs(mine - truth).max() <= 2.0 * ulp
    assert np.all(np.abs(mine - theirs) <= 4.0 * ulp + np.abs(theirs - truth))
    assert np.all(certain_turns(cycle) > 0.0)
    assert tuple(cycle[0]) == min(map(tuple, points))
    mine, theirs = strictly_convex(cycle), strictly_convex(reference)
    if not same_pruning:
        assert hausdorff_distance(mine, theirs) <= 1e-6 * ulp / np.finfo(float).eps
        return
    assert len(mine) == len(theirs)
    apart = np.hypot(*(mine[:, None, :] - theirs[None, :, :]).transpose(2, 0, 1)).min(axis=1)
    assert apart.max() <= 4.0 * ulp


class TestHullAgainstQhull:
    def test_random_and_jittered_clouds(self):
        rng = np.random.default_rng(71)
        for trial in range(80):
            n = int(rng.integers(3, 600))
            if trial % 2:
                assert_matches_qhull(jittered_square(rng, max(n, 8)), same_pruning=False)
                continue
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2) + rng.normal(size=2)
            if trial % 4 == 0:  # every point twice, hull vertices included
                pts = np.vstack([pts, pts[::-1]])
            assert_matches_qhull(pts)

    @pytest.mark.parametrize("size", [60, 720, 2880])
    def test_cost_clouds_of_every_benchmark_kind(self, size):
        for F in benchmark_kind_costs(np.random.default_rng(size)):
            for cloud in cost_clouds(F, size):
                for c in (1.0, 1e300, 1e-300):
                    assert_matches_qhull(cloud * c)

    def test_exact_where_qhull_merges_a_corner(self):
        # The dual cloud of the max-norm at grid 720 holds (-1, 1) and
        # (-1 + 1 ulp, 1). Only the first is extreme; qhull keeps the second.
        dual, _ = cost_clouds(PNorm(math.inf), 720)
        corners = strictly_convex(hull_cycle(dual))
        assert [-1.0, 1.0] in corners.tolist()
        assert [-1.0 + np.finfo(float).epsneg, 1.0] not in corners.tolist()

    def test_near_duplicate_corner_keeps_one_point(self):
        # A grid direction and a special direction give extreme points 1 ulp
        # apart: the dual points of the 1-norm at angles k * 2 pi / 720,
        # where cos(pi / 2) is 6e-17, beside those of the exact axes.
        dirs = np.vstack([unit_directions(np.arange(720) * (2.0 * math.pi / 720)),
                          [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]])
        dual = dirs / np.abs(dirs).sum(axis=1)[:, None]
        assert np.count_nonzero(np.hypot(dual[:, 0], dual[:, 1] - 1.0) < 1e-15) == 2
        for cloud in (dual, dual * 1e-300, dual * 1e300):
            corners = convex_hull_ccw(cloud)
            assert len(corners) == 4
            assert polygon_area(unit_scaled(corners)[0]) == pytest.approx(2.0 * unit_scaled(cloud)[0].max() ** 2)
        assert len(CrystalContext(PNorm(1.0), SphereGrid.planar(720)).crystal.vertices) == 4

    def test_no_undecided_vertex_on_a_dip_cloud(self):
        # The fourth cost drawn by the geodesics tests' sampled-cost
        # generator at seed 67: a near-collinear vertex whose turn is within
        # the rounding bound must not stay, or a backward edge breaks the
        # support's angle unwrap.
        rng = np.random.default_rng(67)
        for i in range(4):
            if i % 2 == 0:
                count = int(rng.integers(8, 17))
                rng.uniform(0.0, 2.0 * math.pi, count)
                rng.uniform(0.5, 2.0, count)
                continue
            b = (Constant(rng.uniform(0.5, 2.0)), PNorm(1.0), PNorm(math.inf),
                 PNorm(rng.uniform(1.2, 6.0)))[int(rng.integers(4))]
            dips = []
            for a in rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(1, 4))):
                d = np.array([math.cos(a), math.sin(a)])
                dips.append((d, rng.uniform(0.3, 0.95) * b(d)))
        F = Dip(b, dips)
        for cloud in cost_clouds(F, 720):
            assert_matches_qhull(cloud)
        ctx = CrystalContext(F)
        assert np.all(certain_turns(ctx.crystal.vertices) > 0.0)

    def test_degenerate_and_non_finite_clouds_raise(self):
        for pts in (np.zeros((5, 2)), np.column_stack([np.arange(300.0), 2.0 * np.arange(300.0)]),
                    np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-300 * 0.0]])):
            with pytest.raises(ValueError, match="degenerate"):
                hull_cycle(pts)
        with pytest.raises(ValueError, match="finite"):
            hull_cycle(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, math.nan]]))


def reference_certain_left(x: list, y: list, a: int, b: int, c: int) -> bool:
    """Reference: Shewchuk's bound computed on every turn."""
    ax, ay = x[a], y[a]
    left = (x[b] - ax) * (y[c] - ay)
    right = (y[b] - ay) * (x[c] - ax)
    return left - right > planar._ORIENT_ERR * (abs(left) + abs(right)) + planar._ORIENT_FLOOR


def reference_stack_chain(x: list, y: list, order: list) -> list:
    """Reference: the monotone chain with the bound computed on every turn."""
    out: list = []
    for c in order:
        while len(out) > 1 and not reference_certain_left(x, y, out[-2], out[-1], c):
            out.pop()
        out.append(c)
    return out


def near_collinear_clouds(rng) -> list:
    """Points within rounding of a line, with and without one point off it,
    some of them repeated, below and above the sweep's size."""
    clouds = []
    for n in (5, 13, 40, 300):
        t = rng.uniform(-1.0, 1.0, n)
        line = np.column_stack([t, 0.3 * t + 0.1]) + rng.normal(size=(n, 2)) * 1e-17
        clouds += [line, np.vstack([line, line[: n // 2]]), np.vstack([line, [[0.2, 0.9]]])]
        ulps = np.column_stack([t, np.full(n, 0.5)]) + np.outer(rng.integers(-2, 3, n), [0.0, 2.0**-53])
        clouds += [ulps, np.vstack([ulps, ulps])]
    return clouds


class TestTurnTestOnUnitPoints:
    """The chain's turn test skips Shewchuk's bound where the determinant
    alone decides; the hulls are the reference's, bit for bit."""

    @staticmethod
    def assert_reference_hull(monkeypatch, points: np.ndarray) -> None:
        with monkeypatch.context() as patch:
            patch.setattr(planar, "_stack_chain", reference_stack_chain)
            patch.setattr(planar, "_certain_left", reference_certain_left)
            try:
                want = hull_cycle(points)
            except ValueError as exc:
                want = exc
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=re.escape(str(want))):
                hull_cycle(points)
            return
        got = hull_cycle(points)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def clouds(self, monkeypatch) -> list:
        rng = np.random.default_rng(83)
        # The suite's competitor clouds, as the batch hulls them.
        competitors = []
        real = planar.hull_cycle
        with monkeypatch.context() as patch:
            patch.setattr(planar, "hull_cycle", lambda p: competitors.append(p) or real(p))
            for seed in range(3):
                _competitor_ratios(PNorm(3.0), SphereGrid.planar(60), np.random.default_rng(seed), 20)
        # The double-polar check's clouds: 12 points and the origin.
        thirteen = [np.vstack([rng.uniform(-1.0, 1.0, (12, 2)) + rng.uniform(-0.5, 1.5, 2), [[0.0, 0.0]]])
                    for _ in range(200)]
        assert len(competitors) == 60
        return competitors + thirteen + near_collinear_clouds(rng)

    def test_hulls_match_the_reference_at_every_scale(self, monkeypatch):
        for cloud in self.clouds(monkeypatch):
            for c in (1.0, 1e300, 1e-300):
                self.assert_reference_hull(monkeypatch, cloud * c)

    def test_turns_match_the_reference(self):
        # Triples with determinants on both sides of 0 and of the cut-off,
        # and within the bound of 0.
        rng = np.random.default_rng(89)
        x, y = [], []
        for _ in range(2000):
            a, b = rng.uniform(-1.0, 1.0, (2, 2))
            s = rng.choice([1e-18, 1e-16, 1e-15, 1e-14, 1.0])
            c = b + (b - a) * rng.uniform(0.0, 1.0) + rng.normal(size=2) * s
            for p in (a, b, np.clip(c, -1.0, 1.0)):
                x.append(float(p[0]))
                y.append(float(p[1]))
        cut = planar._UNIT_LEFT
        seen = {"above": 0, "between": 0, "below": 0}
        for i in range(0, len(x), 3):
            got = planar._certain_left(x, y, i, i + 1, i + 2)
            assert got == reference_certain_left(x, y, i, i + 1, i + 2)
            det = (x[i + 1] - x[i]) * (y[i + 2] - y[i]) - (y[i + 1] - y[i]) * (x[i + 2] - x[i])
            seen["above" if det > cut else "between" if det > 0.0 else "below"] += 1
        assert min(seen.values()) > 100
        order = list(range(len(x)))
        assert planar._stack_chain(x, y, order) == reference_stack_chain(x, y, order)
