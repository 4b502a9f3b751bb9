"""Command-line front end.

Subcommands:

* ``crystal``  - build the crystal and polar body of a cost, export vertex
  files and a figure overlaying crystal, cost graph, and polar body.
* ``distance`` - anisotropic distance between two points, with uniqueness
  classification and (optionally) a constructed geodesic plus certificate.
* ``verify``   - check a path file; exit code 0 iff it is a geodesic.
* ``suite``    - run the cross-module invariant battery on a cost.

Exit codes: 0 success/verified, 1 negative verdict or invariant failure,
2 usage or parse error, or an input file that cannot be read or an output
file that cannot be written. Reports round floats to 12 significant
digits for reproducible diffs; the files ``crystal`` exports carry 17
(SVG coordinates 8). Nothing is random without a seed; the suite
defaults to seed 0.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path as FilePath

import numpy as np

from . import fileio, planar
from .crystal import CrystalContext, displacement
from .geodesics import (
    GeodesicClass,
    classify,
    construct_geodesic,
    geodesic_family,
    is_geodesic,
    resample_polyline,
)
from .integrand import GRID_SIZE_DEFAULT, GRID_SIZE_MAX, GRID_SIZE_MIN, SphereGrid
from .suite import run_suite
from .svgplot import crystal_figure


def _context(args) -> tuple[CrystalContext, str]:
    """The context of the spec file, and the SHA-256 of the bytes it was parsed from:
    the file is read once, so the digest is never of bytes that were not parsed."""
    raw = fileio.read_bytes(args.spec)
    integrand, spec_grid = fileio.parse_integrand_spec(raw, args.spec)
    count = args.grid or spec_grid or GRID_SIZE_DEFAULT
    return CrystalContext(integrand, SphereGrid.planar(count)), hashlib.sha256(raw).hexdigest()


def _base_report(args, ctx: CrystalContext, spec_digest: str) -> dict:
    return {
        "command": " ".join(getattr(args, "_argv", [args.command])),
        "spec_digest": spec_digest,
        "grid": {"size": ctx.grid.size, "resolution": ctx.grid.resolution},
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(fileio.report_csv(report))
    else:
        print(fileio.report_json(report))


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError as exc:
        raise fileio.SpecError(f"not a point: {text.strip()!r}") from exc
    if not np.all(np.isfinite(point)):
        raise fileio.SpecError(f"point coordinates must be finite: {text.strip()!r}")
    return point


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text.strip()!r}")
    return tol


def _integer(low: int, high: int | None = None):
    """The argparse type of an integer from low to high (unbounded above when None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text.strip()!r}") from None
        if value < low or (high is not None and value > high):
            limits = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {limits}: {value}")
        return value

    return parse


def _is_numeric(text: str) -> bool:
    try:
        [float(t) for t in text.split(",")]
    except ValueError:
        return False
    return True


def _area_report(vertices: np.ndarray) -> dict:
    """The crystal's area (``None`` where no normal float holds it) and its base-10
    logarithm, at every scale: both are taken on :func:`planar.unit_scaled` of the vertices."""
    unit, exponent = planar.unit_scaled(vertices)
    unit_area = planar.polygon_area(unit)
    log10 = math.log10(unit_area) + 2 * exponent * math.log10(2.0)
    area = planar.scaled(unit_area, 2 * exponent)
    normal = sys.float_info.min <= area < math.inf
    return {"crystal_area": area if normal else None, "crystal_area_log10": log10}


def cmd_crystal(args) -> int:
    ctx, spec_digest = _context(args)
    out_dir = FilePath(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg = FilePath(args.svg) if args.svg else out_dir / "crystal.svg"
    # The figure goes first: it refuses a view box beyond the float range,
    # and then no file is written.
    crystal_figure(ctx, svg)
    files = {
        "crystal_vertices": out_dir / "crystal_vertices.txt",
        "crystal_halfspaces": out_dir / "crystal_halfspaces.txt",
        "polar_vertices": out_dir / "polar_vertices.txt",
        "polar_halfspaces": out_dir / "polar_halfspaces.txt",
        "graph_samples": out_dir / "graph_samples.txt",
    }
    fileio.save_rows(files["crystal_vertices"], ctx.crystal.vertices, "crystal vertices (CCW)")
    fileio.save_rows(
        files["crystal_halfspaces"],
        np.column_stack([ctx.crystal.normals, ctx.crystal.offsets]),
        "crystal halfspaces: normal_x normal_y offset",
    )
    fileio.save_rows(files["polar_vertices"], ctx.polar_body.vertices, "polar body vertices (CCW)")
    fileio.save_rows(
        files["polar_halfspaces"],
        np.column_stack([ctx.polar_body.normals, ctx.polar_body.offsets]),
        "polar body halfspaces: normal_x normal_y offset",
    )
    graph = ctx.grid.directions * ctx._f_grid[:, None]
    fileio.save_rows(files["graph_samples"], graph, "cost polar graph samples")
    files["figure"] = svg

    report = _base_report(args, ctx, spec_digest)
    report["results"] = {
        "crystal_vertex_count": len(ctx.crystal.vertices),
        "polar_vertex_count": len(ctx.polar_body.vertices),
        **_area_report(ctx.crystal.vertices),
        "files": {k: str(v) for k, v in files.items()},
    }
    report["pass"] = True
    _emit(report, args.format)
    return 0


def cmd_distance(args) -> int:
    ctx, spec_digest = _context(args)
    x = _parse_point(args.start)
    y = _parse_point(args.end)
    if x.shape != (2,) or y.shape != (2,):
        raise fileio.SpecError("points must be planar (two coordinates)")
    gap = displacement(x, y)[2]
    if not gap < math.inf:
        raise fileio.SpecError("start and end are too far apart: their distance overflows")
    if gap == 0.0:
        raise fileio.SpecError("start and end coincide; distance query undefined")
    label = classify(ctx, x, y)
    results = {
        "start": list(x),
        "end": list(y),
        "distance": ctx.distance(x, y),
        "classification": label.value,
    }
    if args.geodesic:
        path = construct_geodesic(ctx, x, y)
        cert = is_geodesic(ctx, path, args.tol)
        results["geodesic_breakpoints"] = [list(p) for p in path.points]
        results["certificate"] = cert.as_dict()
        if label is GeodesicClass.INFINITELY_MANY:
            halfway = geodesic_family(ctx, x, y, 0.5)
            results["family_midpoint_breakpoints"] = [list(p) for p in halfway.points]
    report = _base_report(args, ctx, spec_digest)
    report["results"] = results
    report["tolerances"] = {"verification": args.tol or ctx.default_tol}
    report["pass"] = True
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    ctx, spec_digest = _context(args)
    path = fileio.load_path_file(args.path)
    if args.resample:
        path = resample_polyline(path, args.resample)
    cert = is_geodesic(ctx, path, args.tol)
    report = _base_report(args, ctx, spec_digest)
    report["results"] = cert.as_dict()
    report["results"]["breakpoint_count"] = len(path.points)
    report["tolerances"] = {"verification": cert.tolerance}
    report["pass"] = cert.verdict
    _emit(report, args.format)
    return 0 if cert.verdict else 1


def cmd_suite(args) -> int:
    ctx, spec_digest = _context(args)
    checks = run_suite(ctx, seed=args.seed)
    report = _base_report(args, ctx, spec_digest)
    report["results"] = {"checks": [c.as_dict() for c in checks]}
    failed = [c.name for c in checks if not c.passed]
    report["pass"] = not failed
    if failed:
        report["failed"] = failed
    _emit(report, args.format)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisogeo",
        description="Anisotropic geodesics, Wulff crystals, and polar duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="cost spec file (JSON)")
        p.add_argument(
            "--grid", type=_integer(GRID_SIZE_MIN, GRID_SIZE_MAX), default=None,
            help=f"planar grid size (default {GRID_SIZE_DEFAULT})",
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("crystal", help="build and export the crystal geometry")
    common(p)
    p.add_argument("--out", default="crystal-out", help="output directory")
    p.add_argument("--svg", default=None, help="figure path (default <out>/crystal.svg)")
    p.set_defaults(handler=cmd_crystal)

    p = sub.add_parser("distance", help="anisotropic distance between two points")
    common(p)
    p.add_argument("start", help="start point, e.g. '0,0'")
    p.add_argument("end", help="end point, e.g. '1,1'")
    p.add_argument("--geodesic", action="store_true", help="construct and certify a geodesic")
    p.add_argument("--tol", type=_tolerance, default=None, help="verification tolerance")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("verify", help="check whether a path file is a geodesic")
    common(p)
    p.add_argument("path", help="path file (one breakpoint per line)")
    p.add_argument("--tol", type=_tolerance, default=None, help="verification tolerance")
    p.add_argument(
        "--resample",
        type=_integer(2),
        default=None,
        help="resample a densely sampled smooth curve to this many breakpoints",
    )
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("suite", help="run the invariant battery")
    common(p)
    p.add_argument("--seed", type=_integer(0), default=0, help="seed for randomized checks")
    p.set_defaults(handler=cmd_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = list(argv) if argv is not None else sys.argv[1:]
    # argparse takes "-1,0" or "-2.5" for a flag; a leading space makes such
    # numeric tokens plain values, and float() ignores it.
    args = parser.parse_args([" " + a if a.startswith("-") and _is_numeric(a) else a for a in argv])
    args._argv = argv
    try:
        return args.handler(args)
    except fileio.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file or directory that cannot be written
        name = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {name}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
