"""The package's public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import anisogeo


def test_star_import_resolves_every_export():
    # A name left in __all__ after its definition is gone makes the star
    # import raise AttributeError.
    namespace = {}
    exec("from anisogeo import *", namespace)
    assert len(set(anisogeo.__all__)) == len(anisogeo.__all__)
    for name in anisogeo.__all__:
        assert namespace[name] is getattr(anisogeo, name), name


def test_import_and_a_cli_run_leave_scipy_out(tmp_path):
    # The package hulls with its own code, so neither importing it nor a
    # command that builds a context loads scipy; a fresh interpreter shows
    # what they pull in.
    package_root = str(Path(anisogeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, *sys.path]))
    spec = tmp_path / "l1.json"
    spec.write_text('{"kind": "pnorm", "p": 1}')
    code = (
        "import sys, anisogeo\n"
        "from anisogeo import cli\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"code = cli.main(['distance', {str(spec)!r}, '0,0', '1,2', '--grid', '64'])\n"
        "after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(code, before, after, file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.strip() == "0 [] []"


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps each (module, attribute, class) of its
    # TARGETS by name, so a rename in the package would crash every traced
    # benchmark run. Its source is read and executed, not imported, so no
    # bytecode cache is written next to it.
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing_targets"}
    exec(compile(source.read_text(), str(source), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert len(targets) >= 40
    for module, attr, cls_name, _split in targets:
        mod = importlib.import_module(f"anisogeo.{module}")
        if cls_name is None:
            assert callable(getattr(mod, attr, None)), (module, attr)
        else:
            # Tracer.install reads methods from the class's own __dict__.
            assert attr in vars(getattr(mod, cls_name)), (module, cls_name, attr)


def test_one_type_per_concept():
    # A region is a Polygon and a grid function is a table cost: each
    # inherits what its base defines instead of carrying its own copy.
    from anisogeo.crystal import ConvexRegion, Polygon
    from anisogeo.integrand import AngularTable, GridFunction

    assert issubclass(ConvexRegion, Polygon) and issubclass(GridFunction, AngularTable)
    for name in ("__call__", "values_on", "_samples"):
        assert name not in vars(GridFunction), name
    for name in ("area", "scaled", "translated", "halfspaces", "normals", "offsets"):
        assert name not in vars(ConvexRegion), name
    assert anisogeo.Polygon is anisogeo.crystal.Polygon
    # The benchmark tracer wraps ConvexRegion.from_points from the class's own __dict__.
    assert "from_points" in vars(ConvexRegion)


def test_derived_not_configured():
    # A grid is its size, an SVG element a closed polygon of one color, and
    # an option that had one value in use is a constant; no stored value
    # survives without a reader.
    import dataclasses
    import inspect

    import numpy as np

    from anisogeo import crystal, fileio, geodesics, integrand, isoperimetry, oracle, planar, suite, svgplot

    assert [f.name for f in dataclasses.fields(integrand.SphereGrid)] == ["size"]
    assert [f.name for f in dataclasses.fields(svgplot.PolyLine)] == ["points", "color"]
    parameters = {
        crystal.contact_face: ["region", "v"],
        crystal.double_polar: ["points"],
        crystal.ConvexRegion.contains: ["self", "x"],
        crystal.CrystalContext.in_contact: ["self", "x"],
        crystal.CrystalContext.in_contact_many: ["self", "xs"],
        crystal.CrystalContext.is_orthogonal_direction: ["self", "v"],
        crystal.CrystalContext.contact_point_candidates: ["self", "v", "face"],
        geodesics.decompose_direction: ["ctx", "v"],
        integrand.support_transform: ["G"],
        isoperimetry.random_wulff_competitor: ["grid", "rng"],
        svgplot.crystal_figure: ["ctx", "svg_path"],
        svgplot.render_svg: ["elements", "path"],
        fileio.round_floats: ["obj"],
        fileio.load_path_file: ["path"],
        planar.strictly_convex: ["cycle"],
        planar.convex_hull_ccw: ["points"],
        oracle._cone_program: ["costs", "moves", "target", "hull"],
    }
    for fn, names in parameters.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__qualname__
    # Options that only tests set are gone: every parameter above is required.
    for fn in (crystal.CrystalContext.contact_point_candidates, oracle._cone_program):
        assert all(p.default is inspect.Parameter.empty for p in inspect.signature(fn).parameters.values())
    for cls, gone in ((geodesics.GeodesicCertificate, "contact_face"), (geodesics.DirectionDecomposition, "target")):
        assert gone not in [f.name for f in dataclasses.fields(cls)], cls.__name__
    # A certificate is arrays and a contact face its vertex rows, with no record type for either.
    assert not hasattr(geodesics, "SegmentCheck") and not hasattr(crystal, "ContactFace")
    assert not hasattr(integrand.GridFunction, "max") and not hasattr(integrand.GridFunction, "min")
    ctx = crystal.CrystalContext(integrand.Constant(1.0), integrand.SphereGrid.planar(16))
    assert not hasattr(ctx, "f_min")
    # A verdict is its measured value against its bound, a scan its dual hull, and a
    # polygonal cost's facet normals its corners' edge normals.
    assert [f.name for f in dataclasses.fields(suite.CheckResult)] == ["name", "measured", "bound", "note"]
    assert type(integrand.scan(integrand.PNorm(3.0), integrand.SphereGrid.planar(16))) is np.ndarray
    for cls in (integrand.PNorm, integrand.Crystalline):
        assert "special_directions" not in vars(cls), cls.__name__
