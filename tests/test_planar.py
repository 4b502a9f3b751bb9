import math

import numpy as np
import pytest

from anisogeo.planar import _prune_collinear_cycle, hull_cycle, support_values

SQUARE = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])


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
