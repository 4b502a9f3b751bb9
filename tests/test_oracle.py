import heapq
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from anisogeo import (
    AngularTable,
    Constant,
    Crystalline,
    CrystalContext,
    Dip,
    PNorm,
    SphereGrid,
    Stencil,
    oracle_convergence,
    oracle_distance,
)
from anisogeo import oracle, planar
from anisogeo.suite import run_suite
from anisogeo.oracle import (
    _certify,
    _cone_program,
    _dual_hull,
    _move_costs,
    _oracle_distances,
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


# Relative margin over a lattice path's float reduced cost within which a
# move stays in the reference search: the sum's rounding is below 1e-12 relative.
PATH_SLACK = 1e-9


def reduced_dijkstra(
    costs: np.ndarray, moves: np.ndarray, target: np.ndarray, potential: np.ndarray, path: np.ndarray | None
) -> float:
    """Reference: :func:`lattice_dijkstra`'s value, searched on the reduced
    costs ``costs_i - <moves_i, potential>`` and shifted back by
    ``<target, potential>`` (Johnson's reweighting). A linear potential
    telescopes, so every path to the target costs its raw cost minus
    ``<target, potential>``: the cheapest path is the same for any feasible
    potential, and only the order in which nodes are popped changes.

    Reduced costs within ``oracle._REDUCED_COST_ROUNDING * costs_i`` below
    zero clamp to 0; a more negative one means the potential is infeasible
    and raises, naming the move. ``path`` is a count per move of a lattice
    path to the target, or None. Counts that round to nonnegative integers
    reaching the target leave out of the search every move whose reduced
    cost exceeds ``1 + PATH_SLACK`` times the path's; otherwise every move
    is searched. Leaving them out keeps the value: the path runs within the
    box, so the goal's value is at most the path's reduced cost, while every
    entry through a left-out move has a larger key and would never be popped
    before the goal.
    """
    reduced = costs - moves @ potential
    short = np.flatnonzero(reduced < -oracle._REDUCED_COST_ROUNDING * costs)
    if len(short):
        i = short[0]
        raise RuntimeError(
            f"infeasible potential: move {tuple(int(c) for c in moves[i])} of cost "
            f"{costs[i]!r} has reduced cost {reduced[i]!r}"
        )
    reduced = np.maximum(reduced, 0.0)
    if path is not None:
        counts = np.rint(path).astype(np.int64)
        if counts.min() >= 0 and np.array_equal(counts @ moves, target):
            reduced[reduced > float(counts @ reduced) * (1.0 + PATH_SLACK)] = math.inf
    return lattice_dijkstra(reduced, moves, target) + float(target @ potential)


def lattice_dijkstra(costs: np.ndarray, moves: np.ndarray, target: np.ndarray) -> float:
    """Reference: Dijkstra on a flat-indexed lattice box; moves of infinite
    cost are never taken."""
    # Optimal stencil paths for convex envelopes never leave the box spanned
    # by the target's cone; twice the target plus the reach is ample.
    reach = int(np.abs(moves).max())
    bound = 2 * int(np.abs(target).max()) + reach
    goal = (int(target[0]), int(target[1]))
    # Node (x, y) is the flat index (x + pad) * width + (y + pad) of the box
    # padded by the reach on every side. Padding nodes hold -inf, so a move
    # that leaves the box never relaxes. Flat indices order nodes as the
    # (x, y) tuples do, so heap ties break the same way.
    pad = bound + reach
    width = 2 * pad + 1
    inner = 2 * bound + 1
    edge = [-math.inf] * (reach * width)
    row = [-math.inf] * reach + [math.inf] * inner + [-math.inf] * reach
    dist = edge + row * inner + edge
    steps = [(a * width + b, c) for (a, b), c in zip(moves.tolist(), costs.tolist()) if c < math.inf]
    start = pad * width + pad
    stop = (goal[0] + pad) * width + goal[1] + pad
    dist[start] = 0.0
    heap = [(0.0, start)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if node == stop:
            return d
        if d > dist[node]:
            continue
        for step, c in steps:
            nxt = node + step
            nd = d + c
            if nd < dist[nxt]:
                dist[nxt] = nd
                push(heap, (nd, nxt))
    raise ValueError(f"target {goal} unreachable within the lattice bound {bound}")


def full_reduced_dijkstra(costs, moves, target, potential) -> float:
    """Reference: the reduced search over every move of the stencil."""
    return reduced_dijkstra(costs, moves, target, potential, None)


def assert_certificate_agrees(costs, moves, target, program) -> None:
    """The certificate of a cone program's output brackets the reference
    search at the scaled target and scipy's linear program, and its two
    bounds equal the value: the dual point's ``<target, y>`` from below and
    the basis path's cost over the scale from above. The search along moves
    no dearer than the path is the full search, bit for bit."""
    value, lam, scale, y = program
    lower = float(target @ y)
    upper = float(np.rint(scale * lam) @ costs) / scale
    assert abs(lower - value) <= 1e-14 * value and abs(upper - value) <= 1e-14 * value, tuple(target)
    searched = reduced_dijkstra(costs, moves, scale * target, y, scale * lam)
    assert searched == full_reduced_dijkstra(costs, moves, scale * target, y), tuple(target)
    lp, _ = linprog_cone_program(costs, moves, target)
    for other in (searched / scale, lp):
        assert lower - 1e-12 * value <= other <= upper + 1e-12 * value, (tuple(target), other, value)


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
        # The reference search at the lattice targets the certificate's path
        # reaches: the target times the cone program's basis determinant.
        rng = np.random.default_rng(47)
        scales = set()
        for _ in range(3):
            for F in random_costs(rng):
                cases = [(Stencil.order(k), rng.integers(-3, 4, size=2)) for k in (1, 2, 3, 4)]
                cases += [(SKEWED, np.array(t)) for t in ((1, 1), (2, 3), (3, 1), (-1, 2))]
                for stencil, target in cases:
                    if np.all(target == 0):
                        continue
                    moves = stencil.moves
                    costs = _move_costs(F, moves)
                    _, lam, scale, y = _cone_program(costs, moves, target, _dual_hull(costs, moves))
                    scales.add(scale)
                    plain = lattice_dijkstra(costs, moves, scale * target)
                    got = reduced_dijkstra(costs, moves, scale * target, y, scale * lam)
                    assert abs(got - plain) <= 1e-12 * abs(plain), (F.kind, target)
                    oracle_distance(F, target, stencil)  # the certificate holds
        assert max(scales) > 1

    def test_infeasible_potential_raises(self):
        # <(1, 0), y> = 1.5 exceeds the move's cost 1, in the certificate
        # and in the reference search alike.
        moves, costs, target, y = Stencil.axis().moves, np.ones(4), np.array([3, 2]), np.array([1.5, 0.0])
        lam = np.array([3.0, 2.0, 0.0, 0.0])
        with pytest.raises(RuntimeError, match=r"infeasible potential: move \(1, 0\)"):
            _certify(costs, moves, target, 5.0, lam, 1, y)
        with pytest.raises(RuntimeError, match=r"infeasible potential: move \(1, 0\)"):
            reduced_dijkstra(costs, moves, target, y, None)

    def test_rounding_below_zero_is_clamped(self):
        moves, costs, target = Stencil.axis().moves, np.ones(4), np.array([3, 2])
        y = np.array([1.0 + 1e-14, 1.0])
        _certify(costs, moves, target, 5.0, np.array([3.0, 2.0, 0.0, 0.0]), 1, y)
        got = reduced_dijkstra(costs, moves, target, y, None)
        assert got == pytest.approx(5.0, rel=1e-12, abs=0.0)


def validate_workload():
    """The benchmark's ``validate`` workload class, imported from perfbench/
    without writing bytecode there."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    saved_path, saved_flag, saved_modules = list(sys.path), sys.dont_write_bytecode, set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in set(sys.modules) - saved_modules - {"anisogeo"}:
            if not name.startswith("anisogeo."):
                del sys.modules[name]
    return workloads.Validate


def recorded_programs(monkeypatch) -> list:
    """Every cone program the oracle solves from now on, as its costs, moves,
    target and output."""
    calls = []
    real = oracle._cone_program

    def record(costs, moves, target, hull):
        program = real(costs, moves, target, hull)
        calls.append((costs, moves, target, program))
        return program

    monkeypatch.setattr(oracle, "_cone_program", record)
    return calls


def move_index(moves: np.ndarray, move) -> int:
    return int(np.flatnonzero((moves == move).all(axis=1))[0])


class TestPrunedSearch:
    """Every cone program the oracle certifies agrees with the reference
    search at the scaled target and with scipy's linear program; the
    reference, along moves no dearer than the program's own lattice path,
    is the full search bit for bit."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_validate_search(self, monkeypatch, tmp_path, seed):
        # The 126 ops of a 25-second run: run_suite's 8 cone programs and
        # oracle_convergence's 4 each, each certified by the oracle.
        validate = validate_workload()(seed, tmp_path, 18)
        validate.setup()
        calls = recorded_programs(monkeypatch)
        ops = 18 * validate.pass_length
        for i in range(ops):
            validate.run(validate.next_case(i))
        assert ops == 126 and len(calls) == 12 * ops
        # Ops repeat programs; each distinct one is compared once.
        distinct = {(c.tobytes(), m.tobytes(), t.tobytes()): (c, m, t, p) for c, m, t, p in calls}
        for call in distinct.values():
            assert_certificate_agrees(*call)

    def test_cost_families_stencil_orders_and_scales(self, monkeypatch):
        rng = np.random.default_rng(53)
        calls = recorded_programs(monkeypatch)
        for F in COST_KINDS + random_costs(rng):
            for stencil in [Stencil.order(k) for k in (1, 2, 3, 4)] + [SKEWED]:
                targets = [t for t in rng.integers(-4, 5, size=(6, 2)) if t.any()]
                if stencil is SKEWED:
                    targets += [np.array(t) for t in ((2, 3), (3, 1), (9, 9))]
                _oracle_distances(F, targets, stencil)
        for call in calls:
            assert_certificate_agrees(*call)
        # Paths at the scale 24 ((2, 3) on SKEWED) and below all met.
        assert {program[2] for *_, program in calls} >= {1, 24} and len(calls) > 100

    def test_a_path_that_needs_a_scale(self, monkeypatch):
        # On SKEWED the target (2, 3) takes the basis (5, 1), (1, 5) of
        # determinant 24: the lattice path is 7 and 13 of those moves to (48, 72).
        seen = []
        real = lattice_dijkstra
        monkeypatch.setitem(globals(), "lattice_dijkstra", lambda c, m, t: seen.append((c, t)) or real(c, m, t))
        calls = recorded_programs(monkeypatch)
        value = oracle_distance(Constant(1.0), np.array([2, 3]), SKEWED)
        (costs, moves, target, (_, lam, scale, y)), = calls
        assert scale == 24 and np.rint(scale * lam).tolist() == [7.0, 13.0, 0.0, 0.0]
        got = reduced_dijkstra(costs, moves, scale * target, y, scale * lam)
        assert seen[0][1].tolist() == [48, 72]
        assert np.isinf(seen[0][0][2:]).all() and np.isfinite(seen[0][0][:2]).all()
        assert got == full_reduced_dijkstra(costs, moves, scale * target, y)
        assert value == pytest.approx(20 * math.hypot(5, 1) / 24, rel=1e-12)
        assert got / scale == pytest.approx(value, rel=1e-12)

    def test_the_fallback_searches_every_move(self, monkeypatch):
        # (9, 9) on SKEWED needs the scale 24: the oracle certifies it from
        # both sides, and the reference search given no path searches every
        # move at the target as given, which bounds the value from above.
        seen = []
        real = lattice_dijkstra
        monkeypatch.setitem(globals(), "lattice_dijkstra", lambda c, m, t: seen.append((c, t)) or real(c, m, t))
        calls = recorded_programs(monkeypatch)
        value = oracle_distance(Constant(1.0), np.array([9, 9]), SKEWED)
        (costs, moves, target, (_, _, scale, y)), = calls
        assert scale == 24 and value == pytest.approx(18 * math.hypot(5, 1) / 6, rel=1e-12)
        unscaled = reduced_dijkstra(costs, moves, target, y, None)
        (searched, lattice_target), = seen
        assert lattice_target.tolist() == [9, 9] and np.isfinite(searched).all()
        assert unscaled >= value * (1.0 - 1e-12)

    def test_l1_diagonal_searches_its_two_basis_moves(self, monkeypatch):
        steps = []
        real = lattice_dijkstra
        monkeypatch.setitem(globals(), "lattice_dijkstra",
                            lambda c, m, t: steps.append(m[np.isfinite(c)].tolist()) or real(c, m, t))
        calls = recorded_programs(monkeypatch)
        assert oracle_distance(PNorm(1.0), np.array([6, 6]), Stencil.axis()) == pytest.approx(12.0, rel=1e-15)
        (costs, moves, target, (_, lam, scale, y)), = calls
        assert reduced_dijkstra(costs, moves, scale * target, y, scale * lam) == pytest.approx(12.0, rel=1e-15)
        assert steps == [[[1, 0], [0, 1]]]

    def test_a_path_that_misses_the_target_searches_every_move(self):
        moves = Stencil.order(2).moves
        costs = _move_costs(PNorm(3.0), moves)
        target = np.array([4, 3])
        _, lam, scale, y = _cone_program(costs, moves, target, _dual_hull(costs, moves))
        assert scale == 1
        full = full_reduced_dijkstra(costs, moves, target, y)
        assert reduced_dijkstra(costs, moves, target, y, lam) == full
        for wrong in (lam + np.eye(len(moves))[0], -lam, lam + 0.5 * (lam > 0)):
            assert reduced_dijkstra(costs, moves, target, y, wrong) == full
        # Counts cheaper than any path, had they been taken as one, would
        # leave out the move (0, 1) that every path to (3, 2) needs.
        moves, costs, target = Stencil.axis().moves, np.array([1.0, 2.0, 1.0, 1.0]), np.array([3, 2])
        for wrong in ([1, 0, 0, 0], [-1, 2, -4, 0]):
            assert reduced_dijkstra(costs, moves, target, np.zeros(2), np.array(wrong, float)) == 7.0


def shift_coefficients(program, moves):
    """One more (1, 1) move than the basis path holds: counts miss the target."""
    value, lam, scale, y = program
    return value, lam + np.eye(len(moves))[move_index(moves, (1, 1))] / scale, scale, y


def off_face_basis(program, moves):
    """(3, 1) as three (1, 0) and one (0, 1): (0, 1) is off the face the ray
    crosses, so the path costs more than the value."""
    value, _, _, y = program
    lam = np.zeros(len(moves))
    lam[[move_index(moves, (1, 0)), move_index(moves, (0, 1))]] = 3.0, 1.0
    return value, lam, 1, y


MUTATIONS = {
    "infeasible potential: move": lambda p, m: (p[0], p[1], p[2], p[3] * (1.0 + 1e-9)),
    r"path counts .* at \(3, 1\) \(scale 1\) are not a path to \(3, 1\): they reach \(4, 2\)": shift_coefficients,
    r"duality gap at \(3, 1\): cone program .*, its path costs": lambda p, m: (p[0] * (1.0 + 1e-8), *p[1:]),
    r"duality gap at \(3, 1\): cone program .*, its path costs 4\.0": off_face_basis,
    r"duality gap at \(3, 1\): cone program .*, its dual point gives": lambda p, m: (*p[:3], p[3] * (1.0 - 1e-8)),
}


class TestCertificate:
    @pytest.mark.parametrize("match", MUTATIONS)
    def test_a_broken_program_raises_naming_the_quantity(self, monkeypatch, match):
        real = oracle._cone_program
        F, target, stencil = PNorm(3.0), (3, 1), Stencil.order(1)
        value = oracle_distance(F, target, stencil)
        monkeypatch.setattr(oracle, "_cone_program", lambda c, m, t, h: MUTATIONS[match](real(c, m, t, h), m))
        with pytest.raises(RuntimeError, match=match):
            oracle_distance(F, target, stencil)
        monkeypatch.undo()
        assert oracle_distance(F, target, stencil) == value

    def test_negative_counts_that_reach_the_target_raise(self):
        # 2 (1, 0) + 2 (0, 1) - (-1, 0) reaches (3, 2) but is no path.
        moves, costs, target = Stencil.axis().moves, np.ones(4), np.array([3, 2])
        with pytest.raises(RuntimeError, match=r"counts \{\(1, 0\): 2, \(0, 1\): 2, \(-1, 0\): -1\} .* not a path to \(3, 2\)"):
            _certify(costs, moves, target, 5.0, np.array([2.0, 2.0, -1.0, 0.0]), 1, np.ones(2))

    def test_a_ray_along_one_move(self, monkeypatch):
        calls = recorded_programs(monkeypatch)
        cases = [(Constant(1.0), (6, 3), 2), (PNorm(1.0), (5, 0), 1), (PNorm(3.0), (-4, 12), 3)]
        for F, target, k in cases:
            got = oracle_distance(F, target, Stencil.order(k))
            costs, moves, t, program = calls[-1]
            assert program[2] == 1 and np.count_nonzero(program[1]) == 1
            assert got == pytest.approx(F(np.array(target, dtype=float)), rel=1e-12)
            assert_certificate_agrees(costs, moves, t, program)

    def test_far_targets_match_linprog_in_small_memory(self):
        # Far past where a lattice search's box would fill memory: the
        # certificate's work does not grow with the target.
        cases = [(PNorm(3.0), (800, 1), 1), (PNorm(3.0), (20000, 7), 4), (COST_KINDS[4], (-15001, 9000), 3)]
        for F, target, k in cases:
            stencil = Stencil.order(k)
            tracemalloc.start()
            try:
                got = oracle_distance(F, target, stencil)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lp, _ = linprog_cone_program(_move_costs(F, stencil.moves), stencil.moves, np.array(target))
            assert abs(got - lp) <= 1e-12 * lp, target
            assert peak < 2**20, (target, peak)


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

    @pytest.mark.parametrize(
        "F, size",
        [(Crystalline([((1, 1), 1.41e12), ((-1, 1), 1.0e12), ((0, -1), 0.8e12)]), 64),
         (Crystalline([((1, 1), 1.41e12), ((-1, 1), 1.0e12), ((0, -1), 0.8e12)]), 720),
         (Constant(1.3 * 2.0**60), 2048)],
        ids=["crystalline-1e12-64", "crystalline-1e12-720", "constant-2^60-2048"],
    )
    def test_the_suite_passes_on_costs_far_above_unit_scale(self, F, size):
        # Rounding of a norm near 1e12 is about 1e-4; an absolute 1e-9 sandwich slack
        # failed these, and the slack is now relative to max F.
        ctx = CrystalContext(F, SphereGrid.planar(size))
        checks = {c.name: c for c in run_suite(ctx, seed=0)}
        assert checks["oracle-sandwich"].bound == 1e-9 * ctx.f_max
        assert all(c.passed for c in checks.values()), [c.name for c in checks.values() if not c.passed]

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
        # The reference's lattice targets: each target scaled by its cone
        # program's basis determinant, the skewed basis of determinant 24
        # scaling (2, 3) to (48, 72); and (9, 9) and (10, 7) on SKEWED as
        # given, as the reference searches them given no path.
        rng = np.random.default_rng(31)
        cases = [
            (F, Stencil.order(k), rng.integers(-2, 3, size=2))
            for F in COST_KINDS
            for k in (1, 2, 3, 4)
        ]
        cases += [(Constant(1.0), SKEWED, np.array((2, 3)))]
        scales = set()
        for F, stencil, target in cases:
            if np.all(target == 0):
                continue
            moves = stencil.moves
            costs = _move_costs(F, moves)
            _, _, scale, _ = _cone_program(costs, moves, target, _dual_hull(costs, moves))
            scales.add(scale)
            got = lattice_dijkstra(costs, moves, scale * target)
            assert got == loop_dijkstra(costs, moves, scale * target)
        assert 24 in scales
        costs = _move_costs(Constant(1.0), SKEWED.moves)
        for target in ((9, 9), (10, 7)):
            t = np.array(target)
            assert lattice_dijkstra(costs, SKEWED.moves, t) == loop_dijkstra(costs, SKEWED.moves, t)

    def test_axis_stencil_and_asymmetric_costs(self):
        moves = Stencil.axis().moves
        costs = np.array([1.0, 0.25, 3.0, 0.5])
        for target in ((5, -3), (-7, 2), (0, 9), (-1, -1)):
            t = np.array(target)
            assert lattice_dijkstra(costs, moves, t) == loop_dijkstra(costs, moves, t)

    def test_unreachable_target_raises_like_the_loop(self):
        moves = np.array([[2, 0], [0, 2], [-2, 0], [0, -2]])
        costs = np.ones(4)
        for search in (lattice_dijkstra, loop_dijkstra):
            with pytest.raises(ValueError, match=r"target \(1, 0\) unreachable .* bound 4"):
                search(costs, moves, np.array([1, 0]))
