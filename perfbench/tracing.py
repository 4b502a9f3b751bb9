"""Spans around calls into each module's public functions, from outside.

``Tracer.install`` wraps the public functions and methods listed in
``TARGETS`` wherever ``anisogeo`` holds a reference to them (module
globals, names imported into sibling modules, class attributes), so calls
the library makes internally are traced too. The program's code is not
changed. Each span records name, start, end, parent span and op id; spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

SETUP_OP = -1

MODULES = (
    "integrand", "crystal", "planar", "geodesics", "isoperimetry",
    "oracle", "suite", "fileio", "svgplot", "cli",
)


def _grid_of(arg) -> str:
    return f"g{arg.size}"


def _ctx_grid(self, integrand, grid=None) -> str:
    return f"g{grid.size}" if grid is not None else "g720"


def _norm_split(self, *_a, **_k) -> str:
    return "convex" if self.integrand.is_convex else "sampled"


def _suite_split(ctx, *_a, **_k) -> str:
    import anisogeo as ag

    F = ctx.integrand
    polygonal = isinstance(F, ag.Crystalline) or (isinstance(F, ag.PNorm) and F.p in (1.0, math.inf))
    return "polygonal" if polygonal else "smooth"


def _stencil_split(F, target, stencil) -> str:
    return "axis" if len(stencil.moves) == 4 else f"k{stencil.reach}"


# (module, attribute, class or None, split function). The span is named
# <module>.<attribute>[.<split>]; a constructor is named after its class.
TARGETS = [
    ("integrand", "scan_directions", None, lambda F, grid: _grid_of(grid)),
    ("integrand", "wulff_transform", None, lambda F, grid: _grid_of(grid)),
    ("integrand", "support_transform", None, lambda G, grid=None: _grid_of(grid or G.grid)),
    ("integrand", "values_on", "Integrand", None),
    ("integrand", "values_on", "PNorm", None),
    ("integrand", "values_on", "Constant", None),
    ("integrand", "values_on", "Crystalline", None),
    ("integrand", "values_on", "AngularTable", None),
    ("integrand", "values_on", "Dip", None),
    ("integrand", "__call__", "Integrand", None),
    ("planar", "convex_hull_ccw", None, None),
    ("planar", "polar_polygon", None, None),
    ("planar", "hausdorff_distance", None, None),
    ("crystal", "build_crystal", None, lambda F, grid: _grid_of(grid)),
    ("crystal", "polar", None, None),
    ("crystal", "double_polar", None, None),
    ("crystal", "contact_face", None, None),
    ("crystal", "from_points", "ConvexRegion", None),
    ("crystal", "__init__", "CrystalContext", _ctx_grid),
    ("crystal", "norm", "CrystalContext", _norm_split),
    ("crystal", "in_contact", "CrystalContext", None),
    ("crystal", "is_orthogonal_direction", "CrystalContext", None),
    ("crystal", "contact_point_candidates", "CrystalContext", None),
    ("geodesics", "classify", None, None),
    ("geodesics", "construct_geodesic", None, None),
    ("geodesics", "is_geodesic", None, None),
    ("geodesics", "geodesic_family", None, None),
    ("geodesics", "decompose_direction", None, None),
    ("geodesics", "geodesic_legs", None, None),
    ("geodesics", "path_length", None, None),
    ("geodesics", "geodesic_ball", None, None),
    ("isoperimetry", "random_wulff_competitor", None, None),
    ("isoperimetry", "wulff_identity_check", None, None),
    ("isoperimetry", "isoperimetric_ratio", None, None),
    ("oracle", "oracle_distance", None, _stencil_split),
    ("oracle", "oracle_convergence", None, None),
    ("suite", "run_suite", None, _suite_split),
    ("fileio", "load_integrand_spec", None, None),
    ("fileio", "load_path_file", None, None),
    ("fileio", "save_rows", None, None),
    ("fileio", "report_json", None, None),
    ("svgplot", "crystal_figure", None, None),
    ("cli", "main", None, lambda argv=None: argv[0]),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Columns: name id, start, end, parent span index, op id.
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[int] = []
        self.op = SETUP_OP
        # Exact counts, keyed by (op id, counter name).
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.op, name)] += int(amount)

    def _wrap(self, fn, name: str, split, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if split is None else f"{name}.{split(*args, **kwargs)}"
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (tracer._name_id(full), start, end, parent, tracer.op)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever the package refers to it."""
        import anisogeo

        mods = [anisogeo] + [importlib.import_module(f"anisogeo.{m}") for m in MODULES]
        for module, attr, cls_name, split in TARGETS:
            mod = sys.modules[f"anisogeo.{module}"]
            after = COUNTERS.get((module, attr, cls_name))
            if cls_name is None:
                original = getattr(mod, attr)
                wrapped = self._wrap(original, f"{module}.{attr}", split, after)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, key, value))
                            setattr(m, key, wrapped)
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            span = f"{module}.{cls_name}" if attr == "__init__" else f"{module}.{attr}"
            if attr == "from_points":
                span = f"{module}.ConvexRegion.from_points"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, split, after))
            else:
                wrapped = self._wrap(raw, span, split, after)
            # Aliases in the class body (``envelope_value = norm``) too.
            for key, value in list(vars(cls).items()):
                if value is raw:
                    self._saved.append((cls, key, value))
                    setattr(cls, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        cols = list(zip(*self.spans)) if self.spans else [()] * 5
        return {
            "name": np.array(cols[0], dtype=np.int64),
            "start": np.array(cols[1], dtype=float),
            "end": np.array(cols[2], dtype=float),
            "parent": np.array(cols[3], dtype=np.int64),
            "op": np.array(cols[4], dtype=np.int64),
        }


def _count_scan(tracer, args, result):
    tracer.count("integrand.scan_directions.count", len(result))


def _count_context(tracer, args, result):
    ctx = args[0]
    tracer.count("crystal.crystal_vertices.count", len(ctx.crystal.vertices))
    tracer.count("crystal.polar_vertices.count", len(ctx.polar_body.vertices))


def _count_hausdorff(tracer, args, result):
    tracer.count("planar.hausdorff_distance.pairs", len(args[0]) * len(args[1]))


def _count_oracle(tracer, args, result):
    tracer.count("oracle.stencil_moves.count", len(args[2].moves))


def _count_construction(tracer, args, result):
    # A constructed geodesic is the bare segment exactly when it is unique.
    tracer.count("geodesics.construct_geodesic.calls")
    tracer.count("geodesics.construct_geodesic.unique", len(result.points) == 2)


def _count_certificate(tracer, args, result):
    tracer.count("geodesics.is_geodesic.calls")
    tracer.count("geodesics.is_geodesic.certified", result.certified)


def _count_suite(tracer, args, result):
    tracer.count("suite.checks_run.count", len(result))
    tracer.count("suite.checks_failed.count", sum(not c.passed for c in result))


COUNTERS = {
    ("integrand", "scan_directions", None): _count_scan,
    ("crystal", "__init__", "CrystalContext"): _count_context,
    ("planar", "hausdorff_distance", None): _count_hausdorff,
    ("oracle", "oracle_distance", None): _count_oracle,
    ("geodesics", "construct_geodesic", None): _count_construction,
    ("geodesics", "is_geodesic", None): _count_certificate,
    ("suite", "run_suite", None): _count_suite,
}

# Per-layer metrics: name -> (span name, statistic, scale, unit, parent prefix).
# A parent prefix keeps only spans called directly from such a span.
TIMED = {
    "integrand.wulff_transform.g720.p50_ms": ("integrand.wulff_transform.g720", 50, 1e3, "ms", None),
    "integrand.wulff_transform.g2880.p50_ms": ("integrand.wulff_transform.g2880", 50, 1e3, "ms", None),
    "integrand.support_transform.g720.p50_ms": ("integrand.support_transform.g720", 50, 1e3, "ms", None),
    "integrand.support_transform.g2880.p50_ms": ("integrand.support_transform.g2880", 50, 1e3, "ms", None),
    "crystal.build_crystal.g720.p50_ms": ("crystal.build_crystal.g720", 50, 1e3, "ms", None),
    "crystal.build_crystal.g2880.p50_ms": ("crystal.build_crystal.g2880", 50, 1e3, "ms", None),
    "crystal.inner_hull.p50_ms": ("crystal.ConvexRegion.from_points", 50, 1e3, "ms", "crystal.CrystalContext"),
    "crystal.polar.p50_ms": ("crystal.polar", 50, 1e3, "ms", "crystal.CrystalContext"),
    "crystal.CrystalContext.g720.p50_ms": ("crystal.CrystalContext.g720", 50, 1e3, "ms", None),
    "crystal.CrystalContext.g2880.p50_ms": ("crystal.CrystalContext.g2880", 50, 1e3, "ms", None),
    "crystal.norm.convex.p50_us": ("crystal.norm.convex", 50, 1e6, "us", None),
    "crystal.norm.sampled.p50_us": ("crystal.norm.sampled", 50, 1e6, "us", None),
    "geodesics.classify.p50_us": ("geodesics.classify", 50, 1e6, "us", None),
    "geodesics.construct_geodesic.p50_us": ("geodesics.construct_geodesic", 50, 1e6, "us", None),
    "geodesics.construct_geodesic.p90_us": ("geodesics.construct_geodesic", 90, 1e6, "us", None),
    "geodesics.is_geodesic.p50_us": ("geodesics.is_geodesic", 50, 1e6, "us", None),
    "geodesics.geodesic_family.p50_us": ("geodesics.geodesic_family", 50, 1e6, "us", None),
    "planar.hausdorff_distance.p50_ms": ("planar.hausdorff_distance", 50, 1e3, "ms", None),
    "suite.run_suite.smooth.p50_s": ("suite.run_suite.smooth", 50, 1.0, "s", None),
    "suite.run_suite.polygonal.p50_s": ("suite.run_suite.polygonal", 50, 1.0, "s", None),
    "oracle.oracle_distance.k1.p50_ms": ("oracle.oracle_distance.k1", 50, 1e3, "ms", None),
    "oracle.oracle_distance.k2.p50_ms": ("oracle.oracle_distance.k2", 50, 1e3, "ms", None),
    "oracle.oracle_distance.k3.p50_ms": ("oracle.oracle_distance.k3", 50, 1e3, "ms", None),
    "oracle.oracle_distance.k4.p50_ms": ("oracle.oracle_distance.k4", 50, 1e3, "ms", None),
    "isoperimetry.random_wulff_competitor.p50_ms": ("isoperimetry.random_wulff_competitor", 50, 1e3, "ms", None),
    "isoperimetry.wulff_identity_check.p50_ms": ("isoperimetry.wulff_identity_check", 50, 1e3, "ms", None),
    "fileio.load_integrand_spec.p50_us": ("fileio.load_integrand_spec", 50, 1e6, "us", None),
    "fileio.report_json.p50_us": ("fileio.report_json", 50, 1e6, "us", None),
    "fileio.save_rows.p50_ms": ("fileio.save_rows", 50, 1e3, "ms", None),
    "svgplot.crystal_figure.p50_ms": ("svgplot.crystal_figure", 50, 1e3, "ms", None),
    "cli.main.crystal.p50_ms": ("cli.main.crystal", 50, 1e3, "ms", None),
    "cli.main.distance.p50_ms": ("cli.main.distance", 50, 1e3, "ms", None),
    "cli.main.verify.p50_ms": ("cli.main.verify", 50, 1e3, "ms", None),
}

COUNTED = (
    "integrand.scan_directions.count",
    "crystal.crystal_vertices.count",
    "crystal.polar_vertices.count",
    "planar.hausdorff_distance.pairs",
    "oracle.stencil_moves.count",
    "suite.checks_run.count",
    "suite.checks_failed.count",
)

# Ratios of counts: name -> (numerator, denominator).
FRACTIONS = {
    "geodesics.unique_frac": ("geodesics.construct_geodesic.unique", "geodesics.construct_geodesic.calls"),
    "geodesics.certified_frac": ("geodesics.is_geodesic.certified", "geodesics.is_geodesic.calls"),
}

BUILD_CHECKS = "crystal.build_checks.p50_ms"


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, traced_ops: set[int], count_ops: set[int], op_wall: float) -> dict[str, dict]:
    """Per-layer metrics from the spans of a traced run.

    Timings come from spans of the traced ops and of set-up; a layer the
    workload never reaches reads 0. Counts and fractions sum over
    ``count_ops`` (set-up and the first pass), which repeat exactly for a
    seed. ``<module>.busy_frac`` is the module's self time over
    ``op_wall``, the wall time of the traced ops.
    """
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    parent_id = np.full(len(dur), -1)
    parent_id[has_parent] = a["name"][parent[has_parent]]
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    own = np.isin(a["op"], sorted(traced_ops | {SETUP_OP}))

    def with_prefix(prefix: str) -> np.ndarray:
        return np.array([i for n, i in ids.items() if n.startswith(prefix)], dtype=int)

    contexts = with_prefix("crystal.CrystalContext")

    out: dict[str, dict] = {}
    for metric, (span, q, scale, unit, parent_prefix) in TIMED.items():
        sel = a["name"] == ids.get(span, -2)
        if parent_prefix is not None:
            sel &= np.isin(parent_id, with_prefix(parent_prefix))
        vals = dur[sel & own].tolist()
        out[metric] = {"value": scale * percentile(vals, q) if vals else 0.0, "unit": unit}
    # Build checks: context wall time minus the stages it calls.
    checks = self_time[own & np.isin(a["name"], contexts)].tolist()
    out[BUILD_CHECKS] = {"value": 1e3 * percentile(checks, 50) if checks else 0.0, "unit": "ms"}

    totals: dict[str, int] = defaultdict(int)
    for (op, key), n in tracer.counts.items():
        if op in count_ops:
            totals[key] += n
    for key in COUNTED:
        out[key] = {"value": totals[key], "unit": "pairs" if key.endswith("pairs") else "count"}
    for key, (num, den) in FRACTIONS.items():
        out[key] = {"value": totals[num] / totals[den] if totals[den] else 0.0, "unit": "ratio"}

    in_ops = np.isin(a["op"], sorted(traced_ops))
    for mod in MODULES:
        busy = float(self_time[in_ops & np.isin(a["name"], with_prefix(mod + "."))].sum())
        out[f"{mod}.busy_frac"] = {"value": busy / op_wall if op_wall > 0 else 0.0, "unit": "ratio"}
    return out
