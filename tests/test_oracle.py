import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import anisogeo
from anisogeo import (
    AngularTable,
    Constant,
    Crystalline,
    Dip,
    PNorm,
    Stencil,
    oracle_convergence,
    oracle_distance,
)
from anisogeo import oracle, planar
from anisogeo.suite import run_suite
from anisogeo.oracle import (
    _cone_program,
    _dual_hull,
    _lattice_dijkstra,
    _move_costs,
    _oracle_distances,
    _reduced_dijkstra,
)

SQ2 = math.sqrt(2.0)
COST_KINDS = [
    PNorm(1.0),
    PNorm(3.0),
    Constant(1.0),
    Crystalline([((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0), ((-1.0, -1.0), 1.5)]),
    AngularTable([0.0, 2.0, 4.0], [1.0, 1.4, 1.1]),
    Dip(Constant(1.0), [((1.0, 0.0), 0.5)]),
]
# On full stencils the optimal basis determinant is small (mostly 1); the
# moves (5, 1) and (1, 5) of this one have determinant 24.
SKEWED = Stencil(np.array([[5, 1], [1, 5], [-1, 0], [0, -1]]))


def linprog_cone_program(costs: np.ndarray, moves: np.ndarray, target: np.ndarray):
    """Reference: the cone program as a general linear program (HiGHS)."""
    res = linprog(
        c=costs,
        A_eq=moves.T.astype(float),
        b_eq=target.astype(float),
        bounds=[(0.0, None)] * len(moves),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun), np.asarray(res.x)


def random_costs(rng: np.random.Generator) -> list:
    """A random crystalline, table and dip cost."""
    angles = np.arange(5) * 2.0 * np.pi / 5 + rng.uniform(-0.4, 0.4, size=5)
    weights = rng.uniform(0.5, 2.0, size=5)
    facets = [((math.cos(a), math.sin(a)), float(w)) for a, w in zip(angles, weights)]
    table = AngularTable(np.sort(rng.uniform(0.0, 2.0 * np.pi, 7)), rng.uniform(0.5, 2.0, 7))
    base = PNorm(float(rng.uniform(1.0, 4.0)))
    direction = rng.normal(size=2)
    direction /= np.hypot(*direction)
    dip = Dip(base, [(tuple(direction), float(rng.uniform(0.3, 0.9)) * base(direction))])
    return [Crystalline(facets), table, dip]


def loop_move_costs(F, moves: np.ndarray) -> np.ndarray:
    """Reference: F called once per move."""
    return np.array([F(m.astype(float)) for m in moves])


def loop_dijkstra(costs: np.ndarray, moves: np.ndarray, target: np.ndarray) -> float:
    """Reference: Dijkstra over (x, y) tuple nodes with a dict of distances."""
    bound = 2 * int(np.abs(target).max()) + int(np.abs(moves).max())
    move_list = [(int(a), int(b)) for a, b in moves]
    goal = (int(target[0]), int(target[1]))
    dist: dict[tuple[int, int], float] = {(0, 0): 0.0}
    heap: list[tuple[float, tuple[int, int]]] = [(0.0, (0, 0))]
    while heap:
        d, node = heapq.heappop(heap)
        if node == goal:
            return d
        if d > dist.get(node, math.inf):
            continue
        x, y = node
        for (mx, my), c in zip(move_list, costs):
            nxt = (x + mx, y + my)
            if abs(nxt[0]) > bound or abs(nxt[1]) > bound:
                continue
            nd = d + c
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    raise ValueError(f"target {goal} unreachable within the lattice bound {bound}")


class TestStencil:
    def test_axis_stencil(self):
        s = Stencil.axis()
        assert len(s.moves) == 4
        assert s.reach == 1

    def test_order_one_includes_diagonals(self):
        s = Stencil.order(1)
        assert len(s.moves) == 8

    def test_orders_grow_by_inclusion(self):
        small = {tuple(m) for m in Stencil.order(1).moves}
        for k in (2, 3, 4):
            big = {tuple(m) for m in Stencil.order(k).moves}
            assert small <= big
            small = big

    def test_non_coprime_move_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            Stencil(np.array([[2, 0], [0, 1], [-1, 0], [0, -1]]))

    def test_zero_move_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            Stencil(np.array([[0, 0], [0, 1], [-1, 0], [0, -1]]))

    def test_halfplane_gap_rejected(self):
        # (-4, 5) and (4, -5) leave a gap of exactly pi; its angles round below pi.
        for moves in ([[1, 0], [1, 1], [0, 1]], [[-4, 5], [4, -5], [6, 1]]):
            with pytest.raises(ValueError, match="span"):
                Stencil(np.array(moves))

    def test_float_moves_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Stencil(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))

    def test_order_is_shared_and_read_only(self):
        assert Stencil.order(3) is Stencil.order(3)
        assert Stencil.axis() is Stencil.axis()
        with pytest.raises(ValueError, match="read-only"):
            Stencil.axis().moves[0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            Stencil.order(3).moves[0, 0] = 7
        # The caller's array stays writable: the stencil holds a copy.
        moves = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
        Stencil(moves)
        moves[0, 0] = 1

    def test_move_costs_match_the_loop(self):
        rng = np.random.default_rng(43)
        costs = COST_KINDS + [PNorm(math.inf)] + random_costs(rng) + random_costs(rng)
        moves = np.vstack([Stencil.order(7).moves, SKEWED.moves])
        for F in costs:
            want = loop_move_costs(F, moves)
            got = _move_costs(F, moves)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), F.kind


class TestOracleDistance:
    def test_l1_axis_stencil_is_exact(self):
        # Ten unit moves, each of cost one.
        assert oracle_distance(PNorm(1.0), (5, 5), Stencil.axis()) == pytest.approx(10.0, abs=1e-9)

    def test_isotropic_axis_stencil_overestimates(self):
        got = oracle_distance(Constant(1.0), (5, 5), Stencil.axis())
        assert got == pytest.approx(10.0, abs=1e-9)
        assert got > 5 * SQ2  # quantifies the stencil gap

    def test_isotropic_diagonal_stencil_is_exact(self):
        # At c = 1e-100 too: the solver agreement is relative to the value.
        for c, target in ((1.0, (5, 5)), (1e-100, (-5, -5))):
            got = oracle_distance(Constant(c), target, Stencil.order(1))
            assert got == pytest.approx(5 * SQ2 * c, rel=1e-12, abs=0.0)

    def test_move_aligned_target(self):
        # The reduced target direction is itself a stencil move.
        got = oracle_distance(Constant(1.0), (7, 3), Stencil.order(7))
        assert got == pytest.approx(math.sqrt(58.0), abs=1e-9)

    def test_dip_discount_along_the_dip(self):
        F = Dip(Constant(1.0), [((1.0, 0.0), 0.5)])
        assert oracle_distance(F, (5, 0), Stencil.axis()) == pytest.approx(2.5, abs=1e-9)

    def test_single_move_path_is_an_upper_bound(self):
        F = Constant(1.0)
        for k, target in ((1, (4, 4)), (2, (6, 3)), (3, (3, -9))):
            stencil = Stencil.order(k)
            got = oracle_distance(F, target, stencil)
            t = np.array(target, dtype=float)
            assert got <= F(t) + 1e-9  # the straight multi-move path competes

    def test_monotone_under_stencil_growth(self):
        F = PNorm(3.0)
        target = (7, 3)
        values = [
            oracle_distance(F, target, s)
            for s in (Stencil.axis(), Stencil.order(1), Stencil.order(2), Stencil.order(4))
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            oracle_distance(PNorm(1.0), (0, 0), Stencil.axis())

    def test_float_target_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            oracle_distance(PNorm(1.0), np.array([1.5, 0.5]), Stencil.axis())


class TestConeProgram:
    def cases(self):
        rng = np.random.default_rng(41)
        costs = COST_KINDS + random_costs(rng) + random_costs(rng)
        stencils = [Stencil.order(k) for k in (1, 2, 3, 4)] + [SKEWED]
        for F in costs:
            for stencil in stencils:
                moves = stencil.moves
                move_costs = _move_costs(F, moves)
                for _ in range(12):
                    target = rng.integers(-5, 6, size=2)
                    if np.any(target != 0):
                        yield move_costs, moves, target

    def test_matches_the_linear_program(self):
        for costs, moves, target in self.cases():
            value, _, _, _ = _cone_program(costs, moves, target, _dual_hull(costs, moves))
            lp, _ = linprog_cone_program(costs, moves, target)
            assert abs(value - lp) <= 1e-12 * abs(lp), (moves.max(), target)

    def test_basis_rebuilds_the_target(self):
        for costs, moves, target in self.cases():
            value, coefficients, scale, _ = _cone_program(costs, moves, target, _dual_hull(costs, moves))
            basis = np.flatnonzero(coefficients)
            assert 1 <= len(basis) <= 2
            assert np.all(coefficients >= 0.0)
            assert np.abs(coefficients @ moves - target).max() <= 1e-12 * np.abs(target).max()
            assert coefficients @ costs == pytest.approx(value, rel=1e-12, abs=0.0)
            if len(basis) == 2:
                (a, b), (c, d) = moves[basis]
                assert scale == abs(a * d - b * c)
            else:
                assert scale == 1
            assert np.allclose(scale * coefficients, np.rint(scale * coefficients), atol=1e-9)


    def test_dual_point_is_feasible_and_optimal(self):
        for costs, moves, target in self.cases():
            value, coefficients, _, y = _cone_program(costs, moves, target, _dual_hull(costs, moves))
            assert np.all(moves @ y <= costs * (1.0 + 1e-12))
            basis = np.flatnonzero(coefficients)
            assert np.abs(moves[basis] @ y - costs[basis]).max() <= 1e-12 * costs[basis].max()
            assert abs(target @ y - value) <= 1e-12 * abs(value)


class TestSharedHull:
    TARGETS = [(5, 5), (7, 3), (3, -4), (-2, 5)]

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
        return calls

    def test_one_hull_per_stencil_gives_the_per_target_values(self, monkeypatch):
        hulls = self.counted(monkeypatch, planar, "hull_cycle")
        for F in COST_KINDS:
            for stencil in (Stencil.axis(), Stencil.order(2), SKEWED):
                hulls.clear()
                shared = _oracle_distances(F, self.TARGETS, stencil)
                assert len(hulls) == 1
                each = [oracle_distance(F, t, stencil) for t in self.TARGETS]
                assert len(hulls) == 1 + len(self.TARGETS)
                assert shared == each, F.kind  # bit for bit

    def test_invalid_targets_are_refused_before_any_hull(self, monkeypatch):
        hulls = self.counted(monkeypatch, planar, "hull_cycle")
        with pytest.raises(ValueError, match="nonzero"):
            _oracle_distances(PNorm(1.0), [(1, 2), (0, 0)], Stencil.axis())
        assert hulls == []

    def test_the_suite_hulls_each_stencil_once(self, monkeypatch, l1_ctx):
        hulls = self.counted(monkeypatch, oracle, "_dual_hull")
        checks = {c.name: c for c in run_suite(l1_ctx, seed=3)}
        assert checks["oracle-sandwich"].passed
        assert len(hulls) == 2


class TestReducedSearch:
    def test_matches_the_plain_search(self):
        # Lattice targets as oracle_distance picks them, on both branches.
        rng = np.random.default_rng(47)
        branches, scales = set(), set()
        for _ in range(3):
            for F in random_costs(rng):
                cases = [(Stencil.order(k), rng.integers(-3, 4, size=2)) for k in (1, 2, 3, 4)]
                cases += [(SKEWED, np.array(t)) for t in ((9, 9), (10, 7), (2, 3), (3, 1))]
                for stencil, target in cases:
                    if np.all(target == 0):
                        continue
                    moves = stencil.moves
                    costs = _move_costs(F, moves)
                    _, _, scale, y = _cone_program(costs, moves, target, _dual_hull(costs, moves))
                    scaled = scale * int(np.abs(target).max()) <= 200
                    branches.add(scaled)
                    scales.add(scale if scaled else 0)
                    lattice_target = scale * target if scaled else target
                    plain = _lattice_dijkstra(costs, moves, lattice_target)
                    got = _reduced_dijkstra(costs, moves, lattice_target, y)
                    assert abs(got - plain) <= 1e-12 * abs(plain), (F.kind, target)
                    oracle_distance(F, target, stencil)  # the solvers agree
        assert branches == {True, False}
        assert max(scales) > 1

    def test_infeasible_potential_raises(self):
        moves = Stencil.axis().moves
        costs = np.ones(4)
        # <(1, 0), y> = 1.5 exceeds the move's cost 1.
        with pytest.raises(RuntimeError, match=r"infeasible potential: move \(1, 0\)"):
            _reduced_dijkstra(costs, moves, np.array([3, 2]), np.array([1.5, 0.0]))

    def test_rounding_below_zero_is_clamped(self):
        moves = Stencil.axis().moves
        costs = np.ones(4)
        y = np.array([1.0 + 1e-14, 1.0])
        got = _reduced_dijkstra(costs, moves, np.array([3, 2]), y)
        assert got == pytest.approx(5.0, rel=1e-12, abs=0.0)


class TestSandwich:
    def test_oracle_never_undercuts_the_distance(self, all_ctxs):
        rng = np.random.default_rng(73)
        stencils = [Stencil.axis(), Stencil.order(1), Stencil.order(2)]
        for name, ctx in all_ctxs.items():
            for _ in range(15):
                target = rng.integers(-6, 7, size=2)
                if np.all(target == 0):
                    continue
                d = ctx.norm(target.astype(float))
                for s in stencils:
                    assert oracle_distance(ctx.integrand, target, s) >= d - 1e-9, name

    def test_exact_when_decomposition_is_stencil_parallel(self, l1_ctx):
        # Axis staircases realize every integer target for the L1 cost.
        rng = np.random.default_rng(79)
        for _ in range(20):
            target = rng.integers(-9, 10, size=2)
            if np.all(target == 0):
                continue
            d = l1_ctx.norm(target.astype(float))
            got = oracle_distance(l1_ctx.integrand, target, Stencil.axis())
            assert got == pytest.approx(d, abs=1e-9)


class TestConvergence:
    def test_isotropic_gaps_shrink(self, euclid_ctx):
        gaps = dict(oracle_convergence(euclid_ctx, (7, 3), [1, 2, 4]))
        assert gaps[1] > gaps[2] >= gaps[4] >= 0.0
        assert gaps[4] / euclid_ctx.norm(np.array([7.0, 3.0])) < 0.01

    def test_l1_gap_is_zero_at_order_one(self, l1_ctx):
        gaps = dict(oracle_convergence(l1_ctx, (7, 3), [1, 2]))
        assert gaps[1] == pytest.approx(0.0, abs=1e-9)
        assert gaps[2] == pytest.approx(0.0, abs=1e-9)

    def test_orders_must_increase(self, euclid_ctx):
        with pytest.raises(ValueError, match="increasing"):
            oracle_convergence(euclid_ctx, (7, 3), [2, 1])


class TestLatticeDijkstra:
    def test_bit_identical_to_the_loop(self):
        # The lattice targets oracle_distance searches: scaled so the cone
        # program's optimum is integral below the 200 gate, as given above it.
        rng = np.random.default_rng(31)
        cases = [
            (F, Stencil.order(k), rng.integers(-2, 3, size=2))
            for F in COST_KINDS
            for k in (1, 2, 3, 4)
        ]
        # The skewed basis of determinant 24 puts (9, 9) and (10, 7) past
        # the gate and scales (2, 3) by 24 below it.
        cases += [(Constant(1.0), SKEWED, np.array(t)) for t in ((9, 9), (10, 7), (2, 3))]
        branches = set()
        for F, stencil, target in cases:
            if np.all(target == 0):
                continue
            moves = stencil.moves
            costs = _move_costs(F, moves)
            _, _, scale, _ = _cone_program(costs, moves, target, _dual_hull(costs, moves))
            scaled = scale * int(np.abs(target).max()) <= 200
            branches.add(scaled)
            lattice_target = scale * target if scaled else target
            got = _lattice_dijkstra(costs, moves, lattice_target)
            assert got == loop_dijkstra(costs, moves, lattice_target)
        assert branches == {True, False}

    def test_axis_stencil_and_asymmetric_costs(self):
        moves = Stencil.axis().moves
        costs = np.array([1.0, 0.25, 3.0, 0.5])
        for target in ((5, -3), (-7, 2), (0, 9), (-1, -1)):
            t = np.array(target)
            assert _lattice_dijkstra(costs, moves, t) == loop_dijkstra(costs, moves, t)

    def test_unreachable_target_raises_like_the_loop(self):
        moves = np.array([[2, 0], [0, 2], [-2, 0], [0, -2]])
        costs = np.ones(4)
        for search in (_lattice_dijkstra, loop_dijkstra):
            with pytest.raises(ValueError, match=r"target \(1, 0\) unreachable .* bound 4"):
                search(costs, moves, np.array([1, 0]))

    def test_memory_at_the_gate(self):
        # The largest box oracle_distance searches: order 4 at the 200 gate.
        # tracemalloc would slow this search about 30-fold, so a fresh
        # process reports how far its resident-set high-water mark rose.
        code = """
import resource, numpy as np
from anisogeo import PNorm, Stencil
from anisogeo.oracle import (
    _cone_program,
    _dual_hull,
    _lattice_dijkstra,
    _move_costs,
    _reduced_dijkstra,
)
moves = Stencil.order(4).moves
costs = _move_costs(PNorm(3.0), moves)
target = np.array([200, 77])
lp, _, _, _ = _cone_program(costs, moves, target, _dual_hull(costs, moves))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
got = _lattice_dijkstra(costs, moves, target)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(lp, got, (after - before) * 1024)
"""
        package_root = str(Path(anisogeo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, *sys.path]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        lp, got, grown = float(out[0]), float(out[1]), int(out[2])
        assert lp - 1e-9 <= got <= 1.01 * lp
        assert grown < 32 * 2**20
