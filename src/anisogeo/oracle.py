"""Independent shortest-path oracle on an integer lattice.

Distances produced by the crystal geometry are checked against a
competitor: the cheapest way to reach an integer target using
nonnegative combinations of a finite stencil of integer moves, each move
priced by the cost of its vector. The cone program solves it as the
gauge of the hull of the dual points ``move / cost`` (Wulff's
construction on the stencil), and every value it returns is first
certified by linear-programming duality; a value that fails the
certificate raises instead of lying.

The certificate is weak duality (Chvatal, *Linear Programming*, 1983) on
the cone program's own output, the dual point y = n_k / h_k of the hull
face the target's ray crosses and the basis coefficients:

* y is feasible: every reduced cost ``c_i - <m_i, y>`` is at least
  ``-1e-12 * c_i`` (rounding), so no combination reaching a target T
  costs less than ``<T, y>``;
* the coefficients times the basis determinant round to nonnegative
  integer counts whose moves sum to the scaled target, checked in
  integers, so they are a lattice path that reaches it;
* that path's cost over the scale, and ``<T, y>``, each equal the value
  within 1e-9 relative, far above the rounding of either sum.

So the value is the program's minimum from both sides, at any target.

Stencil paths are admissible polylines, so the oracle can only
overestimate the true anisotropic distance; the gap shrinks as the
stencil order grows and vanishes when the optimal staircase directions
are stencil moves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import planar
from .crystal import CrystalContext
from .integrand import Integrand

# Reduced costs this far below zero, relative to the move's cost, are rounding.
_REDUCED_COST_ROUNDING = 1e-12
# Relative gap allowed between the cone program's value and either bound of
# its certificate, far above their rounding: each bound is a few products,
# on basis moves within the program's 1e-12 of the face.
_DUALITY_GAP = 1e-9


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


def _certify(
    costs: np.ndarray, moves: np.ndarray, target: np.ndarray, value: float,
    coefficients: np.ndarray, scale: int, potential: np.ndarray,
) -> None:
    """Raise RuntimeError, naming the quantity, unless weak duality proves
    :func:`_cone_program`'s output at target (see the module docstring):
    the potential is feasible on every move, the coefficients times the
    scale are nonnegative integer counts reaching the scaled target, and
    the path's cost over the scale and ``<target, potential>`` both equal
    the value within ``_DUALITY_GAP`` relative.
    """
    reduced = costs - moves @ potential
    short = np.flatnonzero(reduced < -_REDUCED_COST_ROUNDING * costs)
    if len(short):
        i = short[0]
        raise RuntimeError(
            f"infeasible potential: move {tuple(int(c) for c in moves[i])} of cost "
            f"{costs[i]!r} has reduced cost {reduced[i]!r}"
        )
    counts = np.rint(scale * coefficients).astype(np.int64)
    scaled = scale * target.astype(np.int64)
    reached = counts @ moves
    if counts.min() < 0 or not np.array_equal(reached, scaled):
        taken = {tuple(m): c for m, c in zip(moves.tolist(), counts.tolist()) if c}
        raise RuntimeError(
            f"oracle path counts {taken} at {tuple(target.tolist())} (scale {scale}) are "
            f"not a path to {tuple(scaled.tolist())}: they reach {tuple(reached.tolist())}"
        )
    for bound, name in ((float(counts @ costs) / scale, "its path costs"),
                        (float(target @ potential), "its dual point gives")):
        if not abs(bound - value) <= _DUALITY_GAP * value:
            raise RuntimeError(
                f"oracle duality gap at {tuple(target.tolist())}: cone program "
                f"{value!r}, {name} {bound!r}"
            )


def oracle_distance(F: Integrand, target, stencil: Stencil) -> float:
    """Cheapest stencil-path cost from the origin to an integer target.

    The minimum runs over nonnegative *real* combinations of moves (every
    such combination is an admissible polyline, so this is the honest
    competitor value) and is solved on the hull of the dual points
    (:func:`_cone_program`). Before it is returned, the program's dual point
    and its basis path, scaled to integer counts, certify it by weak
    duality from below and above (:func:`_certify`); a failed certificate
    raises instead of returning an untrustworthy number. The result is
    always an upper bound on the anisotropic distance.
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
        value, coefficients, scale, potential = _cone_program(costs, moves, target, hull)
        _certify(costs, moves, target, value, coefficients, scale, potential)
        values.append(value)
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
