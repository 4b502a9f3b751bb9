import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisogeo import AngularTable, CrystalContext, Crystalline, Dip, PNorm, SphereGrid, cli
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
from anisogeo.suite import CheckResult

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
        # Each kind's spec, as a file holds it, parses to the cost its constructor builds.
        specs_and_costs = [
            ({"kind": "pnorm", "dimension": 2, "p": 1.5}, PNorm(1.5)),
            ({"kind": "pnorm", "dimension": 2, "p": "inf"}, PNorm(math.inf)),
            (
                {"kind": "crystalline", "dimension": 2, "facets": [
                    {"direction": [1, 1], "weight": 1.2},
                    {"direction": [-1, 1], "weight": 1.0},
                    {"direction": [0, -1], "weight": 0.8},
                ]},
                Crystalline([((1, 1), 1.2), ((-1, 1), 1.0), ((0, -1), 0.8)]),
            ),
            (
                {"kind": "table", "dimension": 2, "interpolation": "linear", "samples": [
                    {"angle": 0.0, "value": 1.0}, {"angle": 2.0, "value": 2.0}, {"angle": 4.0, "value": 1.5},
                ]},
                AngularTable([0.0, 2.0, 4.0], [1.0, 2.0, 1.5]),
            ),
            (
                {"kind": "dip", "dimension": 2, "base": {"kind": "pnorm", "dimension": 2, "p": 2.0},
                 "dips": [{"direction": [0.0, 1.0], "value": 0.3}]},
                Dip(PNorm(2.0), [((0.0, 1.0), 0.3)]),
            ),
        ]
        for spec, F in specs_and_costs:
            again = integrand_from_dict(spec)
            assert again.kind == F.kind
            for theta in np.linspace(0.1, 6.0, 13):
                u = (math.cos(theta), math.sin(theta))
                assert again(u) == F(u), (spec, theta)

    def test_non_planar_dimension_names_the_field(self):
        for dim in (3, 1, 2.0):
            with pytest.raises(SpecError, match=r"\.dimension"):
                integrand_from_dict({"kind": "pnorm", "dimension": dim, "p": 2})
        # Without the field, a spec is planar.
        F = integrand_from_dict({"kind": "pnorm", "p": 2})
        assert F.kind == "pnorm" and F((3.0, 4.0)) == PNorm(2.0)((3.0, 4.0))

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

    def test_grid_outside_the_planar_limits_names_the_field(self, tmp_path):
        for count in (5, 50000):
            p = tmp_path / f"g{count}.json"
            p.write_text(json.dumps({**L1_SPEC, "grid": count}))
            with pytest.raises(SpecError, match=r"\.grid"):
                load_integrand_spec(p)


class TestPathFiles:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text("# staircase\n0 0\n\n0.3 0  # inline note\n0.3 0.7\n1 0.7\n1 1\n")
        path = load_path_file(p)
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

    def test_bad_last_line_of_a_large_file_is_named(self, tmp_path):
        rng = np.random.default_rng(5)
        body = "".join(f"{x!r} {y!r}\n" for x, y in rng.normal(size=(20000, 2)).tolist())
        p = tmp_path / "long.txt"
        for last, message in (("1 oops", "not a number row"), ("1 inf", "coordinates must be finite"),
                              ("1 2 3", "expected 2 coordinates")):
            p.write_text(f"# a long path\n{body}{last}\n")
            with pytest.raises(SpecError, match=f":20002: {message}"):
                load_path_file(p)
        p.write_text(f"{body}1 2 3  # extra\n")
        with pytest.raises(SpecError, match=":20001: inconsistent row length"):
            load_vertices(p)


class TestReports:
    def test_json_is_strict(self):
        with pytest.raises(ValueError):
            report_json({"x": math.nan})

    def test_json_floats_are_trimmed(self):
        out = report_json({"x": 0.1234567890123456789, "nested": {"y": [1.0 / 3.0]}})
        data = json.loads(out)
        assert data["x"] == 0.123456789012
        assert data["nested"]["y"][0] == 0.333333333333

    def test_csv_is_strict(self):
        for report in ({"x": math.nan}, {"a": {"b": [1.0, math.inf]}}):
            with pytest.raises(ValueError, match="out of range"):
                report_csv(report)

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

    def test_distance_refuses_only_equal_points(self, l1_spec_file, capsys):
        # An absolute 1e-12 once refused points 1e-13 apart, which distance answers.
        assert main(["distance", l1_spec_file, "0,0", "1e-13,1e-13", "--geodesic"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["distance"] == 2e-13 and results["certificate"]["verdict"] is True
        assert main(["distance", l1_spec_file, "1,2", "1,2"]) == 2
        assert "coincide" in capsys.readouterr().err

    def test_the_digest_is_of_the_bytes_parsed(self, l1_spec_file, monkeypatch, capsys):
        # The spec is rewritten while the context builds, after it was parsed.
        parsed = FilePath(l1_spec_file).read_bytes()

        def rewriting(integrand, grid):
            FilePath(l1_spec_file).write_text(json.dumps({**L1_SPEC, "p": 2}))
            return CrystalContext(integrand, grid)

        monkeypatch.setattr(cli, "CrystalContext", rewriting)
        assert main(["distance", l1_spec_file, "0,0", "1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["distance"] == 2.0  # the 1-norm, as parsed
        assert report["spec_digest"] == hashlib.sha256(parsed).hexdigest()

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

    def test_sample_counts_and_seeds_out_of_range_exit_2(self, l1_spec_file, tmp_path, capsys):
        p = tmp_path / "path.txt"
        p.write_text("0 0\n1 0\n1 1\n")
        for flag, value, message in (("--resample", "1", "at least 2"), ("--resample", "-3", "at least 2"),
                                     ("--resample", "2.5", "not an integer"),
                                     ("--seed", "-1", "at least 0"), ("--seed", "x", "not an integer")):
            argv = ["verify", l1_spec_file, str(p)] if flag == "--resample" else ["suite", l1_spec_file]
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert flag in err and message in err, err
        assert main(["verify", l1_spec_file, str(p), "--resample", "2"]) == 0

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

    def test_suite_reports_the_bounds_it_uses(self, tmp_path, capsys):
        # The three transform inequalities pass at 1e-9 max F, and report it. Every check
        # reports its margin, null where its bound is 0.
        spec = tmp_path / "p3.json"
        spec.write_text('{"kind": "pnorm", "p": 3}')
        assert main(["suite", str(spec), "--grid", "64"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        checks = {c["name"]: c for c in json.loads(captured.out)["results"]["checks"]}
        f_max = CrystalContext(PNorm(3.0), SphereGrid.planar(64)).f_max
        for name in ("wulff-below-cost", "support-above-cost", "envelope-below-cost"):
            assert checks[name]["passed"] is True and checks[name]["bound"] == float(f"{1e-9 * f_max:.12g}"), name
        for c in checks.values():
            if c["bound"] > 0:
                assert c["margin"] == pytest.approx(c["measured"] / c["bound"], rel=1e-11, abs=1e-300), c
            else:
                assert c["margin"] is None, c
        assert checks["normals-in-contact"]["bound"] == 0

    def test_every_suite_verdict_is_its_measured_value_against_its_bound(self, l1_spec_file, dip_spec_file, capsys):
        # The dip's suite has the informational non-contact count, held to the grid size.
        for spec in (l1_spec_file, dip_spec_file):
            assert main(["suite", spec, "--grid", "64"]) == 0
            checks = json.loads(capsys.readouterr().out)["results"]["checks"]
            assert len(checks) >= 13
            for c in checks:
                assert c["passed"] is (c["measured"] <= c["bound"]), c
        assert "non-contact-directions" in [c["name"] for c in checks]

    def test_a_nan_measured_value_fails_its_check(self):
        for bound in (0.0, 1.0, math.inf):
            check = CheckResult("any", math.nan, bound)
            assert check.passed is False and check.as_dict()["passed"] is False
        assert CheckResult("any", 1.0, 1.0).passed is True and CheckResult("any", 1.0, 0.5).passed is False

    def test_a_check_reports_its_margin(self):
        # Passing, failing, a bound of 0 and a nan: the last two have no finite quotient.
        for measured, bound, margin in ((1.0, 4.0, 0.25), (3.0, 2.0, 1.5), (1e-17, 0.0, None), (math.nan, 1.0, None)):
            check = CheckResult("any", measured, bound)
            assert check.margin == margin and check.as_dict()["margin"] == margin, (measured, bound)
        assert CheckResult("any", 1e300, 1e-300).margin is None and CheckResult("any", 0, 0).margin is None

    def test_a_smooth_axis_geodesic_is_the_unique_segment(self, tmp_path, capsys):
        # On p = 6 the grid rule at 2880 once answered "infinitely-many" with a staircase;
        # a strictly convex norm has the segment as its one geodesic.
        spec = tmp_path / "p6.json"
        spec.write_text('{"kind": "pnorm", "p": 6}')
        assert main(["distance", str(spec), "0,0", "1,0", "--geodesic", "--grid", "2880"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["classification"] == "unique-up-to-reparametrization"
        assert results["geodesic_breakpoints"] == [[0.0, 0.0], [1.0, 0.0]]
        assert results["certificate"]["certified"] is True and results["certificate"]["contact_point"] == [1.0, 0.0]

    def test_a_pnorm_exponent_past_the_bound_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "p3000.json"
        spec.write_text('{"kind": "pnorm", "p": 3000}')
        assert main(["distance", str(spec), "0,0", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "p-norm exponent 3000.0 is past 2044" in captured.err

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

    def test_grid_outside_the_planar_limits_exits_2(self, l1_spec_file, tmp_path, capsys):
        for count in (5, 50000):
            with pytest.raises(SystemExit) as exc:
                main(["distance", l1_spec_file, "0,0", "1,1", "--grid", str(count)])
            assert exc.value.code == 2
            assert "--grid" in capsys.readouterr().err
            spec = tmp_path / f"g{count}.json"
            spec.write_text(json.dumps({**L1_SPEC, "grid": count}))
            assert main(["distance", str(spec), "0,0", "1,1"]) == 2
            assert ".grid" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_far_points_give_finite_distances(self, l1_spec_file, capsys):
        assert main(["distance", l1_spec_file, "1e200,0", "1,1", "--format", "csv"]) == 0
        assert "results.distance,1e+200" in capsys.readouterr().out
        assert main(["distance", l1_spec_file, "1e200,0", "1,1"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["distance"] == 1e200
        code = main(["distance", l1_spec_file, "1e200,0", "1,1", "--geodesic"])
        out, err = capsys.readouterr()
        if code == 0:
            report = json.loads(out, parse_constant=_reject_constant)
            assert report["results"]["distance"] == 1e200
        else:
            assert code == 1 and err.startswith("error: ")
        # A displacement past the float range is refused by name.
        assert main(["distance", l1_spec_file, "1e308,0", "-1e308,0"]) == 2
        assert "too far apart" in capsys.readouterr().err


    @pytest.mark.filterwarnings("error")
    def test_pnorm_certificate_far_from_the_origin(self, tmp_path, capsys):
        # The p-norm's closed-form contact point is taken on v/|v|; on the raw
        # vector its powers overflowed and the certificate failed.
        spec = tmp_path / "p3.json"
        spec.write_text('{"kind": "pnorm", "p": 3}')
        assert main(["distance", str(spec), "0,0", "1e155,3e154", "--geodesic"]) == 0
        cert = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]["certificate"]
        assert cert["verdict"] is True and cert["certified"] is True

    @pytest.mark.filterwarnings("error")
    def test_constant_costs_build_at_extreme_scales(self, tmp_path, capsys):
        # The hull, pruning, polarity and convexity thresholds are relative
        # to each polygon's own scale, with no absolute floor. The suite's
        # polygon checks, Hausdorff distances and oracle are scale-free too,
        # and its perimeter/area ratios are taken on the crystal scaled by a
        # power of two, so they hold where the area (about c**2) leaves the
        # float range.
        spec = tmp_path / "c.json"
        for c in (1e-100, 1e-14, 1e14, 1e100):
            spec.write_text(json.dumps({"kind": "constant", "c": c}))
            assert main(["distance", str(spec), "0,0", "3,4", "--grid", "64"]) == 0, c
            distance = json.loads(capsys.readouterr().out)["results"]["distance"]
            assert abs(distance - 5.0 * c) <= 1e-12 * 5.0 * c
            assert main(["suite", str(spec), "--grid", "64"]) == 0, c
            assert json.loads(capsys.readouterr().out)["pass"] is True
        for c in (1e-300, 1e-200, 1e200, 1e300):
            spec.write_text(json.dumps({"kind": "constant", "c": c}))
            assert main(["suite", str(spec), "--grid", "64"]) == 0, c
            report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
            assert report["pass"] is True, c
        # crystal reports the area where a float holds it, and its log10 at
        # every scale, both taken on the crystal scaled by a power of two.
        spec.write_text(json.dumps({"kind": "constant", "c": 1.0}))
        out = str(tmp_path / "crystal")
        assert main(["crystal", str(spec), "--grid", "64", "--out", out]) == 0
        unit = json.loads(capsys.readouterr().out)["results"]
        assert unit["crystal_area_log10"] == pytest.approx(math.log10(unit["crystal_area"]), abs=1e-11)
        for c in (1e-300, 1e-200, 1e200, 1e300):
            spec.write_text(json.dumps({"kind": "constant", "c": c}))
            assert main(["crystal", str(spec), "--grid", "64", "--out", out]) == 0, c
            results = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
            assert results["crystal_area"] is None, c
            expected = unit["crystal_area_log10"] + 2.0 * math.log10(c)
            assert results["crystal_area_log10"] == pytest.approx(expected, abs=1e-9), c
        for c in (1e-100, 1e100):
            spec.write_text(json.dumps({"kind": "constant", "c": c}))
            assert main(["crystal", str(spec), "--grid", "64", "--out", out]) == 0, c
            results = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"]
            assert results["crystal_area"] == pytest.approx(unit["crystal_area"] * c * c, rel=1e-11)
        for c in (1e-300, 1e300):
            spec.write_text(json.dumps({"kind": "constant", "c": c}))
            code = main(["distance", str(spec), "0,0", "3,4", "--grid", "64"])
            out, err = capsys.readouterr()
            if code == 0:
                distance = json.loads(out, parse_constant=_reject_constant)["results"]["distance"]
                assert abs(distance - 5.0 * c) <= 1e-12 * 5.0 * c
            else:
                assert code == 2 and ".c" in err


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


fuzz_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e8, -1e8, 1e-8, -1e-8, 0.0, -1.0]),
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


def test_main_builds_its_parser_once(monkeypatch, l1_spec_file, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["distance", l1_spec_file, "0,0", "1,2", "--grid", "64"]) == 0
        assert main(["distance", l1_spec_file, "0,0", "2,1", "--grid", "64"]) == 0
        # Usage errors still exit 2 on the shared parser.
        for argv in (["distance", l1_spec_file], ["nonsense"], ["suite", l1_spec_file, "--grid", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert built == [1]


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # A report is strict JSON; a negative verdict (exit 1) prints one too.
    if code == 0 or out:
        json.loads(out, parse_constant=_reject_constant)
    if code == 2:
        assert out == "" and err.strip()


# Facets and samples drawn from a few values, so that duplicated, collinear,
# zero, negative and non-finite entries are common.
# Booleans and numeric strings are not JSON numbers, and are refused (exit 2).
_not_numbers = [True, False, "1", "0.5", "-1"]
_directions = st.sampled_from([
    [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [2.0, 2.0], [-1.0, -1.0],
    [3.0, 0.0], [0.0, 0.0], [1e-300, 0.0], [math.nan, 1.0], [1.0, math.inf],
    [True, False], ["1", "0"], [1.0, "0"], [False, 1.0], "1,0",
])
_weights = st.sampled_from([1.0, 0.5, 2.0, 1e-300, 1e300, 0.0, -1.0, math.nan, math.inf, *_not_numbers])
_angles = st.sampled_from([0.0, 1e-15, 1e-9, 1.0, 1.0 + 1e-15, 2.0, 3.0, 4.0, 6.283185307179586,
                           -1.0, math.nan, *_not_numbers])
_crystalline_specs = st.lists(
    st.fixed_dictionaries({"direction": _directions, "weight": _weights}), max_size=7
).map(lambda facets: {"kind": "crystalline", "facets": facets})
_table_specs = st.lists(
    st.fixed_dictionaries({"angle": _angles, "value": _weights | st.floats(0.1, 5.0)}), max_size=8
).map(lambda samples: {"kind": "table", "samples": samples})


@given(data=_crystalline_specs | _table_specs)
@settings(max_examples=80, deadline=None)
def test_spec_fuzz_exits_cleanly_with_strict_json(tmp_path_factory, data):
    spec = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = _run_cli(["distance", str(spec), "--grid", "64", "0,0", "1,2", "--geodesic"])
    _assert_clean_exit(code, out, err)
    entries = data.get("facets", data.get("samples"))
    fields = [v for entry in entries for v in entry.values()]
    fields += [c for v in fields if isinstance(v, list) for c in v]
    if any(isinstance(v, (bool, str)) for v in fields):
        assert code == 2, err


_coords = st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-300, 1e300, math.nan, math.inf]) | st.floats(-3.0, 3.0)
_rows = st.lists(st.tuples(_coords, _coords), max_size=6)


@given(rows=_rows | _rows.map(lambda r: r[:1] * 4) | st.floats(-2.0, 2.0).map(
    lambda t: [(0.0, 0.0), (t, 2.0 * t), (2.0 * t, 4.0 * t)]))
@settings(max_examples=80, deadline=None)
def test_path_file_fuzz_exits_cleanly_with_strict_json(tmp_path_factory, rows):
    base = tmp_path_factory.getbasetemp()
    spec = base / "fuzz-path-spec.json"
    spec.write_text(json.dumps(DIP_SPEC))
    path = base / "fuzz-path.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in rows))
    _assert_clean_exit(*_run_cli(["verify", str(spec), str(path), "--grid", "64"]))


class TestFileErrors:
    """A file that cannot be read or written exits 2 with "error: <path>: <reason>"."""

    def assert_refused(self, argv, path, reason):
        code, out, err = _run_cli(argv)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {reason}\n"

    def test_spec_file_that_is_a_directory(self, tmp_path):
        self.assert_refused(["distance", str(tmp_path), "0,0", "1,1"], tmp_path, "Is a directory")

    def test_path_file_that_is_a_directory(self, l1_spec_file, tmp_path):
        self.assert_refused(["verify", l1_spec_file, str(tmp_path)], tmp_path, "Is a directory")

    def test_out_naming_an_existing_file(self, l1_spec_file, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["crystal", l1_spec_file, "--grid", "64", "--out", str(taken)]
        self.assert_refused(argv, taken, "File exists")

    def test_svg_inside_a_missing_directory(self, l1_spec_file, tmp_path):
        svg = tmp_path / "missing" / "crystal.svg"
        argv = ["crystal", l1_spec_file, "--grid", "64", "--out", str(tmp_path / "out"), "--svg", str(svg)]
        self.assert_refused(argv, svg, "No such file or directory")

    def test_spec_and_path_files_that_are_not_utf8(self, l1_spec_file, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}\n")
        self.assert_refused(["distance", str(bad), "0,0", "1,1"], bad, "not UTF-8 text (byte 0)")
        self.assert_refused(["verify", l1_spec_file, str(bad)], bad, "not UTF-8 text (byte 0)")
        with pytest.raises(SpecError, match="not UTF-8"):
            load_integrand_spec(bad)
        with pytest.raises(SpecError, match="not UTF-8"):
            load_vertices(bad)


@pytest.mark.parametrize("spec, field", [
    ({"kind": "pnorm", "p": True}, ".p"),
    ({"kind": "pnorm", "p": "3"}, ".p"),
    ({"kind": "constant", "c": True}, ".c"),
    ({"kind": "constant", "c": "1.5"}, ".c"),
    ({"kind": "constant", "c": 10**400}, ".c"),
    ({"kind": "crystalline", "facets": [{"direction": [1, 0], "weight": "2"}]}, ".facets[0].weight"),
    ({"kind": "crystalline", "facets": [{"direction": ["1", "0"], "weight": 1}]}, ".facets[0].direction[0]"),
    ({"kind": "crystalline", "facets": [{"direction": "1,0", "weight": 1}]}, ".facets[0].direction"),
    ({"kind": "table", "samples": [{"angle": 0, "value": 1}, {"angle": True, "value": 1},
                                   {"angle": 3, "value": 1}]}, ".samples[1].angle"),
    ({"kind": "table", "samples": [{"angle": 0, "value": 1}, {"angle": 2, "value": False},
                                   {"angle": 4, "value": 1}]}, ".samples[1].value"),
    ({**DIP_SPEC, "dips": [{"direction": [True, False], "value": 0.5}]}, ".dips[0].direction[0]"),
    ({**DIP_SPEC, "dips": [{"direction": [1, 0], "value": "0.5"}]}, ".dips[0].value"),
])
def test_numeric_fields_refuse_booleans_and_strings(tmp_path, spec, field):
    with pytest.raises(SpecError, match=re.escape(f"spec{field}: ")):
        integrand_from_dict(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run_cli(["distance", str(path), "0,0", "1,1", "--grid", "64"])
    assert (code, out) == (2, "")
    assert f"{path}{field}: " in err
