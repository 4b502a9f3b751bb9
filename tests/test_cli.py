import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisogeo import AngularTable, Crystalline, Dip, PNorm
from anisogeo.cli import main
from anisogeo.fileio import (
    SpecError,
    integrand_from_dict,
    load_integrand_spec,
    load_path_file,
    load_vertices,
    report_csv,
    report_json,
    save_rows,
)

L1_SPEC = {"kind": "pnorm", "dimension": 2, "p": 1}
DIP_SPEC = {
    "kind": "dip",
    "dimension": 2,
    "base": {"kind": "constant", "dimension": 2, "c": 1.0},
    "dips": [{"direction": [1.0, 0.0], "value": 0.5}],
}


@pytest.fixture
def l1_spec_file(tmp_path):
    p = tmp_path / "l1.json"
    p.write_text(json.dumps(L1_SPEC))
    return str(p)


@pytest.fixture
def dip_spec_file(tmp_path):
    p = tmp_path / "dip.json"
    p.write_text(json.dumps(DIP_SPEC))
    return str(p)


class TestSpecParsing:
    def test_every_kind_round_trips(self):
        costs = [
            PNorm(1.5),
            PNorm(math.inf),
            Crystalline([((1, 1), 1.2), ((-1, 1), 1.0), ((0, -1), 0.8)]),
            AngularTable([0.0, 2.0, 4.0], [1.0, 2.0, 1.5]),
            Dip(PNorm(2.0), [((0.0, 1.0), 0.3)]),
        ]
        for F in costs:
            again = integrand_from_dict(F.to_spec())
            assert again.kind == F.kind
            for theta in np.linspace(0.1, 6.0, 13):
                u = (math.cos(theta), math.sin(theta))
                assert again(u) == pytest.approx(F(u), rel=1e-12)

    def test_non_planar_dimension_names_the_field(self):
        for dim in (3, 1, 2.0):
            with pytest.raises(SpecError, match=r"\.dimension"):
                integrand_from_dict({"kind": "pnorm", "dimension": dim, "p": 2})
        assert integrand_from_dict({"kind": "pnorm", "p": 2}).to_spec()["dimension"] == 2

    def test_non_finite_parameters_are_spec_errors(self):
        bad = [
            {"kind": "constant", "c": math.nan},
            {"kind": "pnorm", "p": math.nan},
            {"kind": "table", "samples": [{"angle": a, "value": v} for a, v in
                                          ((0.0, 1.0), (2.0, math.inf), (4.0, 1.0))]},
            {"kind": "dip", "base": {"kind": "constant", "c": 1.0},
             "dips": [{"direction": [math.nan, 0.0], "value": 0.5}]},
        ]
        for data in bad:
            with pytest.raises(SpecError):
                integrand_from_dict(data)

    def test_pnorm_inf_token(self):
        F = integrand_from_dict({"kind": "pnorm", "dimension": 2, "p": "inf"})
        assert F((3.0, -4.0)) == pytest.approx(4.0)

    def test_unknown_kind_names_the_field(self):
        with pytest.raises(SpecError, match="kind"):
            integrand_from_dict({"kind": "mystery", "dimension": 2})

    def test_missing_parameter_names_the_field(self):
        with pytest.raises(SpecError, match=r"\.p"):
            integrand_from_dict({"kind": "pnorm", "dimension": 2})

    def test_bad_facet_is_located(self):
        with pytest.raises(SpecError, match=r"facets\[1\]"):
            integrand_from_dict(
                {"kind": "crystalline", "dimension": 2,
                 "facets": [{"direction": [1, 0], "weight": 1.0}, {"weight": 2.0}]}
            )

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"kind": "pnorm",\n  bad\n}')
        with pytest.raises(SpecError, match=":2"):
            load_integrand_spec(p)

    def test_grid_override_from_file(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({**L1_SPEC, "grid": 360}))
        _, grid = load_integrand_spec(p)
        assert grid == 360


class TestPathFiles:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text("# staircase\n0 0\n\n0.3 0  # inline note\n0.3 0.7\n1 0.7\n1 1\n")
        path = load_path_file(p, dim=2)
        assert len(path.points) == 5

    def test_non_finite_row_reports_its_number(self, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text("0 0\n1 nan\n2 2\n")
        with pytest.raises(SpecError, match=":2"):
            load_path_file(p)

    def test_bad_row_reports_its_number(self, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text("0 0\n1 oops\n2 2\n")
        with pytest.raises(SpecError, match=":2"):
            load_path_file(p)

    def test_wrong_dimension_reports_row(self, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text("0 0\n1 1 1\n")
        with pytest.raises(SpecError, match=":2"):
            load_path_file(p)

    def test_vertex_rows_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(83)
        rows = rng.normal(size=(37, 2)) * np.pi
        f = tmp_path / "verts.txt"
        save_rows(f, rows, header="test rows")
        again = load_vertices(f)
        assert np.all(again == rows)  # 17 significant digits are lossless


class TestReports:
    def test_json_is_strict(self):
        with pytest.raises(ValueError):
            report_json({"x": math.nan})

    def test_json_floats_are_trimmed(self):
        out = report_json({"x": 0.1234567890123456789, "nested": {"y": [1.0 / 3.0]}})
        data = json.loads(out)
        assert data["x"] == 0.123456789012
        assert data["nested"]["y"][0] == 0.333333333333

    def test_csv_flattens_nested_structures(self):
        out = report_csv({"a": {"b": 1.5}, "list": [1, 2], "checks": [{"n": "x"}]})
        assert "a.b,1.5" in out
        assert "list,1;2" in out
        assert "checks[0].n,x" in out


class TestCliCommands:
    def test_distance_reports_the_known_values(self, l1_spec_file, capsys):
        assert main(["distance", l1_spec_file, "0,0", "1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["distance"] == 2.0
        assert report["results"]["classification"] == "infinitely-many"

    def test_distance_with_geodesic_certificate(self, l1_spec_file, capsys):
        assert main(["distance", l1_spec_file, "0,0", "1,0", "--geodesic"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["classification"] == "unique-up-to-reparametrization"
        assert report["results"]["certificate"]["verdict"] is True
        assert report["results"]["geodesic_breakpoints"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_verify_accepts_a_staircase(self, l1_spec_file, tmp_path, capsys):
        p = tmp_path / "stairs.txt"
        p.write_text("0 0\n0.3 0\n0.3 0.7\n1 0.7\n1 1\n")
        assert main(["verify", l1_spec_file, str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_verify_rejects_a_backtracking_path(self, l1_spec_file, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 0\n0.5 -0.2\n1 1\n")
        assert main(["verify", l1_spec_file, str(p)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["achieved_length"] == 2.4
        assert report["results"]["target_norm"] == 2.0

    def test_verify_resamples_dense_curves(self, l1_spec_file, tmp_path, capsys):
        # A monotone curve sampled densely: still a geodesic after resampling.
        t = np.linspace(0.0, 1.0, 400)
        pts = np.column_stack([t, t**2])
        p = tmp_path / "curve.txt"
        p.write_text("\n".join(f"{x} {y}" for x, y in pts))
        assert main(["verify", l1_spec_file, str(p), "--resample", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["breakpoint_count"] == 50

    def test_malformed_path_exits_2(self, l1_spec_file, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 0\nnope\n")
        assert main(["verify", l1_spec_file, str(p)]) == 2
        assert ":2" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["distance", str(tmp_path / "absent.json"), "0,0", "1,1"]) == 2

    def test_dimension_3_spec_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cube.json"
        p.write_text(json.dumps({**L1_SPEC, "dimension": 3}))
        assert main(["distance", str(p), "0,0", "1,1"]) == 2
        assert ".dimension" in capsys.readouterr().err

    def test_nan_spec_parameter_exits_2(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        p.write_text('{"kind": "constant", "c": NaN}')
        assert main(["distance", str(p), "0,0", "1,1"]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_non_finite_points_exit_2(self, l1_spec_file, capsys):
        for start, end in (("nan,0", "1,1"), ("0,0", "inf,1"), ("-inf,0", "1,1")):
            assert main(["distance", l1_spec_file, start, end]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "finite" in captured.err

    def test_non_finite_tolerance_exits_2(self, l1_spec_file, capsys):
        for tol in ("nan", "inf", "0", "-1e-3"):
            with pytest.raises(SystemExit) as exc:
                main(["distance", l1_spec_file, "0,0", "1,1", "--geodesic", "--tol", tol])
            assert exc.value.code == 2
            assert "--tol" in capsys.readouterr().err

    def test_negative_points_need_no_separator(self, l1_spec_file, capsys):
        assert main(["distance", l1_spec_file, "-1,0", "1,1"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert plain["results"]["distance"] == 3.0
        assert main(["distance", l1_spec_file, "--", "-1,0", "1,1"]) == 0
        separated = json.loads(capsys.readouterr().out)
        assert separated["results"] == plain["results"]

    def test_crystal_exports_parse_back(self, dip_spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["crystal", dip_spec_file, "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        verts = load_vertices(out / "crystal_vertices.txt")
        assert report["results"]["crystal_vertex_count"] == len(verts)
        assert verts[:, 0].max() == pytest.approx(0.5, abs=1e-12)
        halfspaces = load_vertices(out / "crystal_halfspaces.txt")
        assert halfspaces.shape == (len(verts), 3)
        # Every vertex satisfies every exported halfspace.
        assert np.all(verts @ halfspaces[:, :2].T <= halfspaces[:, 2][None, :] + 1e-12)
        svg = (out / "crystal.svg").read_text()
        assert "<svg" in svg and "polygon" in svg

    def test_crystal_round_trip_within_1e12(self, l1_spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["crystal", l1_spec_file, "--out", str(out)])
        capsys.readouterr()
        verts = load_vertices(out / "crystal_vertices.txt")
        assert np.abs(verts - np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])).max() <= 1e-12

    def test_suite_passes_for_each_kind(self, l1_spec_file, dip_spec_file, capsys):
        for spec in (l1_spec_file, dip_spec_file):
            assert main(["suite", spec, "--grid", "360"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["pass"] is True
            assert all(c["passed"] for c in report["results"]["checks"])

    def test_suite_reports_non_contact_arc_for_dips(self, dip_spec_file, capsys):
        assert main(["suite", dip_spec_file, "--grid", "360"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"]: c for c in report["results"]["checks"]}
        assert "non-contact-directions" in names
        assert names["non-contact-directions"]["measured"] > 0

    def test_output_is_deterministic(self, dip_spec_file, capsys):
        main(["suite", dip_spec_file, "--grid", "360", "--seed", "4"])
        first = capsys.readouterr().out
        main(["suite", dip_spec_file, "--grid", "360", "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, l1_spec_file, capsys):
        assert main(["distance", l1_spec_file, "0,0", "1,1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "results.distance,2.0" in out

    def test_grid_flag_overrides(self, l1_spec_file, capsys):
        assert main(["distance", l1_spec_file, "0,0", "1,1", "--grid", "90"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"]["size"] == 90


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


fuzz_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e8, -1e8, 1e-8, -1e-8, 0.0, -1.0]),
    st.floats(min_value=-10.0, max_value=10.0),
)


@given(data=st.sampled_from([L1_SPEC, DIP_SPEC]), x=st.tuples(fuzz_floats, fuzz_floats),
       y=st.tuples(fuzz_floats, fuzz_floats), tol=st.none() | fuzz_floats)
@settings(max_examples=60, deadline=None)
def test_distance_fuzz_exits_cleanly_with_strict_json(tmp_path_factory, data, x, y, tol):
    spec = tmp_path_factory.getbasetemp() / f"fuzz-{data['kind']}.json"
    spec.write_text(json.dumps(data))
    argv = ["distance", str(spec), "--grid", "64", f"{x[0]!r},{x[1]!r}", f"{y[0]!r},{y[1]!r}",
            "--geodesic"]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["pass"] is True
    else:
        # Errors go to stderr; stdout carries a report only on success.
        assert out.getvalue() == "" and err.getvalue().strip()
