"""Independent shortest-path oracle on an integer lattice.

Distances produced by the crystal geometry are cross-checked against a
brute-force competitor: the cheapest way to reach an integer target using
nonnegative combinations of a finite stencil of integer moves, each move
priced by the cost of its vector. Two redundant solvers compute it - the
gauge of the hull of the dual points ``move / cost`` (Wulff's construction
on the stencil) and Dijkstra on a bounded lattice - and must agree,
otherwise the oracle raises instead of lying.

Dijkstra searches on reduced costs ``c_i - <m_i, y>``, where y is the
dual point ``n_k / h_k`` of the hull face the cone program picks
(Johnson's reweighting, equivalently A* with a consistent heuristic).
Every move satisfies ``<m_i, y> <= c_i`` because its dual point lies in
the hull, so reduced costs are nonnegative; and a linear potential
telescopes, so every path to a lattice target T costs its raw cost minus
``<T, y>``. The cheapest path is therefore the same for any feasible y and
the search adds ``<T, y>`` back; only the order in which nodes are popped
changes, now mostly along zero-reduced-cost paths. Reduced costs within
``1e-12 * c_i`` below zero are rounding and clamp to 0; a more negative
one means y is infeasible and raises, so the lattice value never depends
on the cone program being right.

At the scaled target the search also leaves out every move dearer than
the cone program's own lattice path: its coefficients times the scale,
checked in integers to be nonnegative and to reach the target. Moves
whose reduced cost exceeds that path's by more than a factor 1 + 1e-9
(far above the rounding of its float sum) are never relaxed. The path
runs within the search box, so the goal's value is at most the path's
reduced cost, while every entry through a left-out move has a larger
key: it would never be popped before the goal, nor change a value or a
tie that is. So the value is the full search's, bit for bit. The box and
the node order still come from the whole stencil, and the one-sided
fallback (no integral path at a practical scale) searches every move.

Stencil paths are admissible polylines, so the oracle can only
overestimate the true anisotropic distance; the gap shrinks as the
stencil order grows and vanishes when the optimal staircase directions
are stencil moves.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import planar
from .crystal import CrystalContext
from .integrand import Integrand

_SOLVER_AGREEMENT = 1e-6
# Reduced costs this far below zero, relative to the move's cost, are rounding.
_REDUCED_COST_ROUNDING = 1e-12
# Relative margin over a lattice path's float reduced cost within which a
# move stays in the search: the sum's rounding is below 1e-12 relative.
_PATH_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Stencil:
    """Finite set of integer moves whose directions positively span the plane.

    Moves are coprime (no redundant multiples) and nonzero. The order-k
    stencil holds every coprime vector with coordinates bounded by k, so
    stencils grow by inclusion as k increases. ``moves`` is read-only, so
    :meth:`axis` hands every caller the same instance, and :meth:`order`
    the same instance per k.
    """

    moves: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.moves)
        if m.ndim != 2 or m.shape[1] != 2 or len(m) < 3:
            raise ValueError("a stencil needs at least 3 planar moves")
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError("stencil moves must be integer vectors")
        if np.any(np.all(m == 0, axis=1)):
            raise ValueError("stencil contains the zero move")
        for a, b in m:
            if math.gcd(abs(int(a)), abs(int(b))) != 1:
                raise ValueError(f"move ({a}, {b}) is a multiple of a shorter move")
        angles = np.sort(np.mod(np.arctan2(m[:, 1], m[:, 0]), 2.0 * np.pi))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
        if gaps.max() >= np.pi - 1e-12:  # an exact half-turn may round below pi
            raise ValueError("moves leave an angular gap >= pi; they do not positively span")
        m = m.astype(np.int64)
        m.flags.writeable = False
        object.__setattr__(self, "moves", m)

    @cached_property
    def reach(self) -> int:
        return int(np.abs(self.moves).max())

    @classmethod
    @functools.cache
    def axis(cls) -> "Stencil":
        return cls(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def order(cls, k: int) -> "Stencil":
        if k < 1:
            raise ValueError("stencil order must be at least 1")
        moves = [
            (a, b)
            for a in range(-k, k + 1)
            for b in range(-k, k + 1)
            if (a, b) != (0, 0) and math.gcd(abs(a), abs(b)) == 1
        ]
        return cls(np.array(moves))


def _move_costs(F: Integrand, moves: np.ndarray) -> np.ndarray:
    """F at every move, as the move's length times F at its direction."""
    lengths = np.hypot(moves[:, 0], moves[:, 1])
    return F.values_on(moves / lengths[:, None]) * lengths


def _dual_hull(costs: np.ndarray, moves: np.ndarray):
    """The dual points ``moves_i / costs_i``, and the edge normals and
    offsets of their hull: what :func:`_cone_program` needs of the stencil,
    the same for every target."""
    dual = moves / costs[:, None]
    return (dual, *planar.edge_normals_and_offsets(planar.hull_cycle(dual)))


def _cone_program(
    costs: np.ndarray, moves: np.ndarray, target: np.ndarray, hull: tuple
) -> tuple[float, np.ndarray, int, np.ndarray]:
    """min <costs, lam> over lam >= 0 with sum lam_i moves_i = target: the gauge
    at the target of the hull of the dual points ``moves_i / costs_i``, the
    largest ``<n_k, target> / h_k`` over its edges. The basis is the pair of
    moves on the face the ray crosses (within ``1e-12 * h_k``) adjacent to
    the ray, or the one move the ray runs along. Returns the value; the
    coefficients; the basis determinant (1 for one move), which is the
    smallest target multiplier that makes the coefficients integral; and
    the dual point ``y = n_k / h_k`` of the face attaining the value, for
    which ``<moves_i, y> <= costs_i`` on every move (each dual point lies
    in the hull) and ``<target, y>`` is the value. ``hull`` is
    :func:`_dual_hull` of the costs and moves.
    """
    dual, normals, offsets = hull
    ratios = normals @ target / offsets
    face = int(np.argmax(ratios))
    value = float(ratios[face])
    # Every face the ray crosses up to rounding, and every move on them.
    faces = ratios >= (1.0 - 1e-12) * value
    on_face = np.flatnonzero((dual @ normals[faces].T >= (1.0 - 1e-12) * offsets[faces]).any(1))
    # Signed angle from each move to the target; turns are exact integers.
    angle = np.arctan2(moves[on_face] @ (target[1], -target[0]), moves[on_face] @ target)
    behind = angle >= 0.0  # moves clockwise of the ray, or on it
    i = on_face[behind][np.argmin(angle[behind])]
    j = on_face[~behind][np.argmax(angle[~behind])]
    (ax, ay), (bx, by), (tx, ty) = moves[i], moves[j], target
    det = int(ax * by - ay * bx)  # positive: the pair spans less than pi
    coefficients = np.zeros(len(moves))
    coefficients[[i, j]] = (tx * by - ty * bx) / det, (ax * ty - ay * tx) / det
    # A ray along move i leaves move j out of the basis.
    return value, coefficients, det if coefficients[j] else 1, normals[face] / offsets[face]


def _reduced_dijkstra(
    costs: np.ndarray, moves: np.ndarray, target: np.ndarray, potential: np.ndarray, path: np.ndarray | None
) -> float:
    """:func:`_lattice_dijkstra`'s value, searched on the reduced costs
    ``costs_i - <moves_i, potential>`` and shifted back by ``<target, potential>``.

    Reduced costs within ``_REDUCED_COST_ROUNDING * costs_i`` below zero
    clamp to 0; a more negative one means the potential is infeasible and
    raises, naming the move. ``path`` is a count per move of a lattice
    path to the target, or None. Counts that round to nonnegative integers
    reaching the target leave out of the search every move whose reduced
    cost exceeds ``1 + _PATH_SLACK`` times the path's (see the module
    docstring), which leaves the value unchanged; otherwise every move is
    searched.
    """
    reduced = costs - moves @ potential
    short = np.flatnonzero(reduced < -_REDUCED_COST_ROUNDING * costs)
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
            reduced[reduced > float(counts @ reduced) * (1.0 + _PATH_SLACK)] = math.inf
    return _lattice_dijkstra(reduced, moves, target) + float(target @ potential)


def _lattice_dijkstra(costs: np.ndarray, moves: np.ndarray, target: np.ndarray) -> float:
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
    # Moves of infinite cost are never taken; the box and order stay as above.
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


def oracle_distance(F: Integrand, target, stencil: Stencil) -> float:
    """Cheapest stencil-path cost from the origin to an integer target.

    The minimum runs over nonnegative *real* combinations of moves (every
    such combination is an admissible polyline, so this is the honest
    competitor value) and is solved on the hull of the dual points
    (:func:`_cone_program`). Dijkstra on a bounded lattice cross-checks it:
    integer paths can only realize integral combinations, so the check runs
    at the target scaled to make the optimal combination integral (exact
    agreement expected), or one-sidedly when that scale is impractical.
    The search runs on the reduced costs of the cone program's dual point,
    and at the scaled target only along moves no dearer than the cone
    program's own lattice path (see the module docstring); neither changes
    its value.
    Disagreement raises instead of returning an untrustworthy number. The
    result is always an upper bound on the anisotropic distance.
    """
    return _oracle_distances(F, [target], stencil)[0]


def _oracle_distances(F: Integrand, targets, stencil: Stencil) -> list[float]:
    """:func:`oracle_distance` at each target, on one hull of the stencil's
    dual points."""
    targets = [np.asarray(t) for t in targets]
    for target in targets:
        if target.shape != (2,) or not np.issubdtype(target.dtype, np.integer):
            raise ValueError("oracle targets must be planar integer vectors")
        if np.all(target == 0):
            raise ValueError("oracle target must be nonzero")
    moves = stencil.moves
    costs = _move_costs(F, moves)
    hull = _dual_hull(costs, moves)
    values = []
    for target in targets:
        lp, coefficients, scale, potential = _cone_program(costs, moves, target, hull)
        if scale * int(np.abs(target).max()) <= 200:
            dj = _reduced_dijkstra(costs, moves, scale * target, potential, scale * coefficients) / scale
            if abs(lp - dj) > _SOLVER_AGREEMENT * abs(lp):
                raise RuntimeError(
                    f"oracle solvers disagree at {tuple(target)} (scale {scale}): "
                    f"cone program {lp!r}, lattice search {dj!r}"
                )
        else:  # huge determinant: fall back to the relaxation bound
            dj = _reduced_dijkstra(costs, moves, target, potential, None)
            if dj < lp - _SOLVER_AGREEMENT * abs(lp):
                raise RuntimeError(
                    f"lattice search undercuts the cone program at {tuple(target)}: "
                    f"{dj!r} < {lp!r}"
                )
        values.append(lp)
    return values


def oracle_convergence(
    ctx: CrystalContext, target, orders: list[int]
) -> list[tuple[int, float]]:
    """Oracle gap (oracle minus the context's norm) for increasing stencil orders.

    Gaps are nonincreasing because stencils grow by inclusion. For costs
    convex by construction the norm is the true distance, so gaps are also
    nonnegative. For table and dip costs the norm is an upper bound on the
    true distance, above it by O(resolution**2) inside a crystal corner's
    normal cone, so it can exceed the cost of a lattice path and a gap can
    be negative; ``run_suite``'s oracle-sandwich check allows them the
    sampled slack ``resolution**2 * f_max``.
    """
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError("stencil orders must be strictly increasing")
    target = np.asarray(target)
    true_distance = ctx.norm(target.astype(float))
    out = []
    for k in orders:
        gap = oracle_distance(ctx.integrand, target, Stencil.order(k)) - true_distance
        out.append((k, gap))
    return out
