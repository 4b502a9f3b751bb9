"""Seeded inputs: cost specs in the user's JSON format, endpoints, targets.

Every workload draws its costs from the same generator. Each cost kind has
an equal share of the inputs, so that the mix of kinds is identical for
every seed and only the parameters inside each kind vary:

* ``pnorm-1``, ``pnorm-inf``, ``pnorm-p`` with p ~ U(1.2, 6)
* ``constant`` with c ~ U(0.5, 2)
* ``crystalline`` with 3-8 random facets that positively span
* ``table`` with 8-16 random positive samples
* ``dip`` with 1-3 dips over a constant or p-norm base

A cost's shape parameter (p, c, the number of facets, samples or dips,
and the base of a dip) follows a quantile ``u`` in [0, 1). Workloads pass
stratified quantiles (``stratified``), so that every run covers each
range evenly and two seeds differ in the draws inside each stratum, not
in how the range is covered. The rest of a cost (angles, weights,
values) is drawn freely.

Nothing here imports ``anisogeo``: specs are plain dicts, and
``reference.build_cost`` turns them into library objects.
"""

from __future__ import annotations

import math

import numpy as np

KINDS = ("pnorm-1", "pnorm-inf", "pnorm-p", "constant", "crystalline", "table", "dip")


def family(kind: str) -> str:
    """The spec family of a cost kind (``pnorm-p`` -> ``pnorm``)."""
    return kind.split("-", 1)[0]


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` quantiles in [0, 1), one in each of ``n`` equal slices, shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _angles(rng: np.random.Generator, count: int) -> np.ndarray:
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=count))
        if np.all(np.diff(ang) > 1e-6):
            return ang


def _pnorm_spec(rng: np.random.Generator, kind: str, u: float) -> dict:
    p = {"pnorm-1": 1.0, "pnorm-inf": "inf"}.get(kind)
    if p is None:
        p = float(1.2 + 4.8 * u)
    return {"kind": "pnorm", "dimension": 2, "p": p}


def _crystalline_spec(rng: np.random.Generator, u: float) -> dict:
    count = 3 + int(6 * u)
    while True:
        ang = _angles(rng, count)
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * math.pi))
        # Positive spanning: no angular gap of pi or more between facets.
        if gaps.max() < math.pi - 1e-9:
            break
    weights = rng.uniform(0.5, 2.0, size=count)
    return {
        "kind": "crystalline",
        "dimension": 2,
        "facets": [
            {"direction": [math.cos(a), math.sin(a)], "weight": float(w)}
            for a, w in zip(ang, weights)
        ],
    }


def _table_spec(rng: np.random.Generator, u: float) -> dict:
    count = 8 + int(9 * u)
    ang = _angles(rng, count)
    vals = rng.uniform(0.5, 2.0, size=count)
    return {
        "kind": "table",
        "dimension": 2,
        "interpolation": "linear",
        "samples": [{"angle": float(a), "value": float(v)} for a, v in zip(ang, vals)],
    }


def _dip_spec(rng: np.random.Generator, u: float) -> dict:
    # The lower half of u is a constant base, the upper half a p-norm; the
    # position inside each half sets the number of dips.
    half, v = divmod(2.0 * u, 1.0)
    if half == 0:
        base = {"kind": "constant", "dimension": 2, "c": float(rng.uniform(0.5, 2.0))}
    else:
        kind = ("pnorm-1", "pnorm-inf", "pnorm-p")[int(rng.integers(3))]
        base = _pnorm_spec(rng, kind, float(rng.random()))
    count = 1 + int(3 * v)
    dips = []
    for a in _angles(rng, count):
        d = [math.cos(a), math.sin(a)]
        # Dips must stay below the base; value as a share of the base there.
        dips.append({"direction": d, "value": float(rng.uniform(0.3, 0.95) * _base_value(base, d))})
    return {"kind": "dip", "dimension": 2, "base": base, "dips": dips}


def _base_value(base: dict, u) -> float:
    if base["kind"] == "constant":
        return base["c"]
    p = math.inf if base["p"] == "inf" else base["p"]
    a = np.abs(np.asarray(u, dtype=float))
    return float(a.max()) if math.isinf(p) else float((a**p).sum() ** (1.0 / p))


def cost_spec(rng: np.random.Generator, kind: str, u: float) -> dict:
    """A cost of this kind whose shape parameter sits at quantile ``u``."""
    if kind.startswith("pnorm"):
        return _pnorm_spec(rng, kind, u)
    if kind == "constant":
        return {"kind": "constant", "dimension": 2, "c": float(0.5 + 1.5 * u)}
    if kind == "crystalline":
        return _crystalline_spec(rng, u)
    if kind == "table":
        return _table_spec(rng, u)
    if kind == "dip":
        return _dip_spec(rng, u)
    raise ValueError(f"unknown cost kind {kind!r}")


def endpoint_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distinct endpoints in [-2, 2]^2."""
    while True:
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-2.0, 2.0, size=2)
        if np.linalg.norm(y - x) > 1e-3:
            return x, y


# Oracle targets: every nonzero integer point with coordinates in [-2, 2].
TARGET_REACH = 2
TARGETS = np.array([
    (a, b)
    for a in range(-TARGET_REACH, TARGET_REACH + 1)
    for b in range(-TARGET_REACH, TARGET_REACH + 1)
    if (a, b) != (0, 0)
], dtype=np.int64)


def target_sweep(rng: np.random.Generator) -> np.ndarray:
    """Every oracle target once, in a seeded order."""
    return TARGETS[rng.permutation(len(TARGETS))]
