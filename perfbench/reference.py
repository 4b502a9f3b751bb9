"""The correctness gate: the benchmark's own cost evaluator and closed forms.

Answers from ``anisogeo`` are checked against values computed here from
the spec dicts alone, never through the library, so a defect in the
library cannot vouch for itself. Only ``build_cost`` touches the library,
through its public constructors.
"""

from __future__ import annotations

import json
import math

import numpy as np

# README contract: costs convex by construction answer in closed form, and
# their default verification tolerance is 1e-7 (relative, floor 1).
CLOSED_FORM_TOL = 1e-7
# Dips have zero angular width; the library matches directions this closely.
DIRECTION_MATCH_TOL = 1e-12


def build_cost(spec: dict):
    """The library cost for a spec, built through the public constructors."""
    import anisogeo as ag

    kind = spec["kind"]
    if kind == "pnorm":
        return ag.PNorm(math.inf if spec["p"] == "inf" else float(spec["p"]))
    if kind == "constant":
        return ag.Constant(spec["c"])
    if kind == "crystalline":
        return ag.Crystalline([(f["direction"], f["weight"]) for f in spec["facets"]])
    if kind == "table":
        samples = spec["samples"]
        return ag.AngularTable([s["angle"] for s in samples], [s["value"] for s in samples])
    if kind == "dip":
        return ag.Dip(build_cost(spec["base"]), [(d["direction"], d["value"]) for d in spec["dips"]])
    raise ValueError(f"unknown cost kind {kind!r}")


def is_convex(spec: dict) -> bool:
    return spec["kind"] in ("pnorm", "constant", "crystalline")


def cost(spec: dict, v, match_tol: float = DIRECTION_MATCH_TOL) -> float:
    """F(v) for any vector v, evaluated from the spec.

    A dip applies when v/|v| lies within ``match_tol`` of its direction.
    """
    v = np.asarray(v, dtype=float)
    r = float(np.hypot(v[0], v[1]))
    if r == 0.0:
        return 0.0
    kind = spec["kind"]
    if kind == "pnorm":
        p = math.inf if spec["p"] == "inf" else float(spec["p"])
        a = np.abs(v)
        if math.isinf(p):
            return float(a.max())
        return float((a**p).sum() ** (1.0 / p))
    if kind == "constant":
        return spec["c"] * r
    if kind == "crystalline":
        return max(
            f["weight"] * float(np.dot(f["direction"], v)) / float(np.hypot(*f["direction"]))
            for f in spec["facets"]
        )
    if kind == "table":
        angles = [s["angle"] for s in spec["samples"]]
        values = [s["value"] for s in spec["samples"]]
        theta = math.atan2(v[1], v[0]) % (2.0 * math.pi)
        return r * float(np.interp(theta, angles, values, period=2.0 * math.pi))
    if kind == "dip":
        u = v / r
        value = cost(spec["base"], u, match_tol)
        for d in spec["dips"]:
            du = np.asarray(d["direction"], dtype=float)
            du = du / float(np.hypot(*du))
            if float(np.hypot(*(u - du))) <= match_tol:
                value = min(value, d["value"])
        return r * value
    raise ValueError(f"unknown cost kind {kind!r}")


def max_unit_cost(spec: dict) -> float:
    """max F over unit directions, in closed form."""
    kind = spec["kind"]
    if kind == "pnorm":
        p = math.inf if spec["p"] == "inf" else float(spec["p"])
        return max(1.0, 2.0 ** (1.0 / p - 0.5))  # on an axis or a diagonal
    if kind == "constant":
        return spec["c"]
    if kind == "crystalline":
        return max(f["weight"] for f in spec["facets"])
    if kind == "table":  # linear interpolation peaks at a sample
        return max(s["value"] for s in spec["samples"])
    if kind == "dip":  # dips only lower the base
        return max_unit_cost(spec["base"])
    raise ValueError(f"unknown cost kind {kind!r}")


def sampled_tolerance(spec: dict, grid: int) -> float:
    """The contract's verification tolerance for sampled costs,
    ``5 * resolution * max F``, with max F exact rather than scanned, so
    never below the library's."""
    return 5.0 * (2.0 * math.pi / grid) * max_unit_cost(spec)


def closed_form_distance(spec: dict, x, y) -> float | None:
    """The exact distance for costs convex by construction, else None.

    A convex 1-homogeneous cost is its own norm, so the distance is F(y - x).
    """
    if not is_convex(spec):
        return None
    return cost(spec, np.asarray(y, dtype=float) - np.asarray(x, dtype=float))


def path_cost(spec: dict, points, coord_eps: float = 0.0) -> float:
    """F summed over the segments of a polyline.

    ``coord_eps`` bounds the rounding of each coordinate. Moving both ends of
    a segment by that much turns its direction by up to 2 * eps / length, so
    dips are matched with that much more slack.
    """
    total = 0.0
    for seg in np.diff(np.asarray(points, dtype=float), axis=0):
        length = float(np.hypot(*seg))
        if length > 0.0:
            total += cost(spec, seg, DIRECTION_MATCH_TOL + 2.0 * coord_eps / length)
    return total


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))


def path_violations(spec: dict, points, x, y, distance: float, tol: float,
                    coord_eps: float = 0.0) -> list[str]:
    """Reasons a claimed geodesic from x to y fails; empty when it holds.

    The path must start at x, end at y, and cost exactly the distance: its
    F-length re-summed here must equal ``distance`` within ``tol * max(1, d)``.
    """
    pts = np.asarray(points, dtype=float)
    out = []
    reach = max(1e-9 * max(1.0, float(np.abs(pts).max())), 2.0 * coord_eps)
    if pts.ndim != 2 or len(pts) < 2:
        return ["path has fewer than two breakpoints"]
    if np.abs(pts[0] - x).max() > reach or np.abs(pts[-1] - y).max() > reach:
        out.append("path does not join the endpoints")
    length = path_cost(spec, pts, coord_eps)
    if not close(length, distance, tol):
        out.append(f"path costs {length:.9g} against distance {distance:.9g}")
    return out


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which strict JSON forbids."""
    return json.loads(text, parse_constant=_reject_constant)
