"""File formats: cost spec files (JSON), path files, vertex files, reports.

Cost spec schema (JSON object):

    kind        one of "pnorm" | "constant" | "crystalline" | "table" | "dip"
    dimension   optional; must be 2 when present (costs are planar)
    grid        optional planar grid size, 8 to 20000 (default 720)
    p           pnorm only: exponent >= 1 ("inf" accepted)
    c           constant only: positive value
    facets      crystalline only: [{"direction": [..], "weight": w>0}, ...]
    samples     table only: [{"angle": a in [0,2pi), "value": v>0}, ...]
    interpolation  table only, optional; must be "linear" when present
    base        dip only: nested cost spec
    dips        dip only: [{"direction": [..], "value": v>0}, ...]

Path files are plain text, one breakpoint per line, whitespace-separated
coordinates; blank lines and '#' comments are skipped. Vertex files use
the same row format and round-trip exactly (17 significant digits).
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FilePath

import numpy as np

from .geodesics import Path
from .integrand import (
    GRID_SIZE_MAX,
    GRID_SIZE_MIN,
    AngularTable,
    Constant,
    Crystalline,
    Dip,
    Integrand,
    PNorm,
)


class SpecError(ValueError):
    """Malformed input file; CLI maps this to exit code 2."""


def integrand_from_dict(data: dict, where: str = "spec") -> Integrand:
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected an object")
    kind = data.get("kind")
    dim = data.get("dimension", 2)
    if not isinstance(dim, int) or dim != 2:
        raise SpecError(f"{where}.dimension: must be 2 (costs are planar)")
    try:
        if kind == "pnorm":
            p = data.get("p")
            if p == "inf":
                p = math.inf
            if not isinstance(p, (int, float)):
                raise SpecError(f"{where}.p: number or \"inf\" required")
            return PNorm(float(p))
        if kind == "constant":
            c = data.get("c")
            if not isinstance(c, (int, float)):
                raise SpecError(f"{where}.c: number required")
            return Constant(float(c))
        if kind == "crystalline":
            facets = data.get("facets")
            if not isinstance(facets, list) or not facets:
                raise SpecError(f"{where}.facets: nonempty list required")
            pairs = []
            for i, f in enumerate(facets):
                if not isinstance(f, dict) or "direction" not in f or "weight" not in f:
                    raise SpecError(f"{where}.facets[{i}]: need direction and weight")
                pairs.append((np.asarray(f["direction"], dtype=float), float(f["weight"])))
            return Crystalline(pairs)
        if kind == "table":
            samples = data.get("samples")
            if not isinstance(samples, list) or len(samples) < 3:
                raise SpecError(f"{where}.samples: list of at least 3 samples required")
            rule = data.get("interpolation", "linear")
            if rule != "linear":
                raise SpecError(f"{where}.interpolation: only \"linear\" is supported")
            angles = []
            values = []
            for i, s in enumerate(samples):
                if not isinstance(s, dict) or "angle" not in s or "value" not in s:
                    raise SpecError(f"{where}.samples[{i}]: need angle and value")
                angles.append(float(s["angle"]))
                values.append(float(s["value"]))
            return AngularTable(angles, values)
        if kind == "dip":
            base = integrand_from_dict(data.get("base"), where=f"{where}.base")
            dips = data.get("dips")
            if not isinstance(dips, list) or not dips:
                raise SpecError(f"{where}.dips: nonempty list required")
            pairs = []
            for i, d in enumerate(dips):
                if not isinstance(d, dict) or "direction" not in d or "value" not in d:
                    raise SpecError(f"{where}.dips[{i}]: need direction and value")
                pairs.append((np.asarray(d["direction"], dtype=float), float(d["value"])))
            return Dip(base, pairs)
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"{where}.kind: unknown kind {kind!r}")


def load_integrand_spec(path) -> tuple[Integrand, int | None]:
    """Parse a cost spec file; returns the cost and an optional grid size."""
    path = FilePath(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise SpecError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    integrand = integrand_from_dict(data, where=str(path))
    grid = data.get("grid")
    if grid is not None and (
        not isinstance(grid, int) or not GRID_SIZE_MIN <= grid <= GRID_SIZE_MAX
    ):
        raise SpecError(f"{path}.grid: integer from {GRID_SIZE_MIN} to {GRID_SIZE_MAX} required")
    return integrand, grid


def _parse_rows(path, dim: int | None = None) -> np.ndarray:
    path = FilePath(path)
    rows = []
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError as exc:
        raise SpecError(f"{path}: {exc.strerror}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            row = [float(tok) for tok in body.split()]
        except ValueError as exc:
            raise SpecError(f"{path}:{lineno}: not a number row ({exc})") from exc
        if not np.all(np.isfinite(row)):
            raise SpecError(f"{path}:{lineno}: coordinates must be finite")
        if dim is not None and len(row) != dim:
            raise SpecError(f"{path}:{lineno}: expected {dim} coordinates, got {len(row)}")
        if rows and len(row) != len(rows[0]):
            raise SpecError(f"{path}:{lineno}: inconsistent row length")
        rows.append(row)
    if not rows:
        raise SpecError(f"{path}: no coordinate rows found")
    return np.array(rows)


def load_path_file(path) -> Path:
    rows = _parse_rows(path, 2)
    if len(rows) < 2:
        raise SpecError(f"{path}: a path needs at least two breakpoints")
    try:
        return Path(rows)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def load_vertices(path) -> np.ndarray:
    return _parse_rows(path)


def save_rows(path, rows: np.ndarray, header: str | None = None) -> None:
    """Write coordinate rows with enough digits to round-trip exactly.

    Only what :func:`load_vertices` reads back is written: an array that is
    not a nonempty 2-D table of finite numbers raises ``ValueError`` naming
    the file (and the first non-finite row), and no file is written.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError(f"{path}: expected a nonempty table of coordinate rows, got shape {rows.shape}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}: row {bad + 1} is not finite: {rows[bad].tolist()}")
    # One C-level format call for the whole table; "%.17g" and f"{x:.17g}"
    # give the same digits.
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    text = (line * len(rows)) % tuple(rows.ravel().tolist())
    if header:
        text = f"# {header}\n{text}"
    FilePath(path).write_text(text)


def round_floats(obj):
    """Copy a JSON-able structure with floats cut to 12 significant digits."""
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist())
    return obj


def report_json(report: dict) -> str:
    return json.dumps(round_floats(report), indent=2, sort_keys=True, allow_nan=False)


def report_csv(report: dict) -> str:
    """Flatten a report into key,value rows (lists joined by semicolons).

    Non-finite numbers are refused, as :func:`report_json` refuses them.
    """
    flat: dict[str, str] = {}

    def _cell(key: str, v) -> str:
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            raise ValueError(f"{key}: out of range float value {float(v)!r}")
        return str(round_floats(v))

    def _walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                _walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
            for i, v in enumerate(obj):
                _walk(f"{prefix}[{i}]", v)
        elif isinstance(obj, (list, tuple)):
            flat[prefix] = ";".join(_cell(prefix, v) for v in obj)
        else:
            flat[prefix] = _cell(prefix, obj)

    _walk("", report)
    return "\n".join(f"{k},{v}" for k, v in flat.items()) + "\n"
