"""Vertex-file and SVG writers against the per-element reference loops.

``fileio.save_rows`` and ``svgplot.render_svg`` format their tables with
``fileio._format_table``: whole-array passes for values that ``%g`` prints
in fixed notation, one ``%`` call for every other value and for small
tables. The f-string loops below format one value at a time; every
comparison is byte-for-byte.
"""

import json
import math
from pathlib import Path as FilePath

import numpy as np
import pytest

from anisogeo import fileio, svgplot
from anisogeo.cli import main
from anisogeo.fileio import _format_table, load_vertices, save_rows
from anisogeo.svgplot import PolyLine, render_svg

from test_cli import _run_cli

# The five specs of the README's command-line section.
README_SPECS = {
    "pnorm": {"kind": "pnorm", "dimension": 2, "p": 1},
    "constant": {"kind": "constant", "dimension": 2, "c": 1.0},
    "crystalline": {
        "kind": "crystalline", "dimension": 2,
        "facets": [{"direction": [1, 1], "weight": 1.41}, {"direction": [-1, 1], "weight": 1.0},
                   {"direction": [0, -1], "weight": 0.8}],
    },
    "table": {
        "kind": "table", "dimension": 2, "interpolation": "linear",
        "samples": [{"angle": 0.0, "value": 1.0}, {"angle": 2.0, "value": 1.4},
                    {"angle": 4.0, "value": 1.1}],
    },
    "dip": {
        "kind": "dip", "dimension": 2,
        "base": {"kind": "constant", "dimension": 2, "c": 1.0},
        "dips": [{"direction": [1, 0], "value": 0.5}],
    },
}

SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, 2.0**-1074, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    float(2**53 + 1), float(2**63), float(10**20 + 7), -float(3**40), 1.0, -1.0, math.pi,
]


def save_rows_reference(path, rows, header=None):
    lines = []
    if header:
        lines.append(f"# {header}")
    for row in np.asarray(rows, dtype=float):
        lines.append(" ".join(f"{x:.17g}" for x in row))
    FilePath(path).write_text("\n".join(lines) + "\n")


def render_svg_reference(elements, path):
    pts = np.vstack([e.points for e in elements])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.1 * float(span.max())
    lo = lo - margin
    hi = hi + margin
    width = float(hi[0] - lo[0])
    height = float(hi[1] - lo[1])
    stroke = max(width, height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'height="{640 * height / width:.0f}" '
        f'viewBox="{lo[0]:.6g} {-hi[1]:.6g} {width:.6g} {height:.6g}">',
        '<g transform="scale(1,-1)">',
    ]
    for e in elements:
        coords = " ".join(f"{x:.8g},{y:.8g}" for x, y in np.asarray(e.points, dtype=float))
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="{e.color}" '
            f'stroke-width="{0.004 * stroke:.6g}" stroke-linejoin="round"/>'
        )
    parts.append("</g></svg>")
    FilePath(path).write_text("\n".join(parts) + "\n")


def _random_rows(rng, n, cols):
    """Rows of mixed sign with magnitudes spread over 10^-300 to 10^300."""
    return rng.choice([-1.0, 1.0], size=(n, cols)) * 10.0 ** rng.uniform(-300, 300, size=(n, cols))


def _same_bytes(tmp_path, write, reference, *args):
    """Whether ``write`` and ``reference`` put the same bytes in their file,
    which is the last argument of ``render_svg`` and the first of ``save_rows``."""
    new, old = tmp_path / "new", tmp_path / "old"
    if write is render_svg:
        write(*args, new)
        reference(*args, old)
    else:
        write(new, *args)
        reference(old, *args)
    return new.read_bytes() == old.read_bytes()


class TestSaveRows:
    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_random_magnitudes_match_the_reference(self, tmp_path, cols):
        rng = np.random.default_rng(100 + cols)
        for n in (1, 2, 37, 500):
            for header in (None, "rows"):
                rows = _random_rows(rng, n, cols)
                assert _same_bytes(tmp_path, save_rows, save_rows_reference, rows, header)

    def test_special_values_match_the_reference(self, tmp_path):
        values = np.array(SPECIAL_VALUES)
        for cols in (1, 2, 3):
            rows = np.resize(values, (len(values), cols))
            assert _same_bytes(tmp_path, save_rows, save_rows_reference, rows, "special")
        # Integers above 2^53 go through the same float conversion.
        big = [[2**53 + 1, -(2**60)], [10**20, 3]]
        assert _same_bytes(tmp_path, save_rows, save_rows_reference, big, None)

    def test_special_values_round_trip(self, tmp_path):
        rows = np.resize(np.array(SPECIAL_VALUES), (len(SPECIAL_VALUES), 2))
        f = tmp_path / "special.txt"
        save_rows(f, rows)
        again = load_vertices(f)
        assert again.tobytes() == rows.tobytes()  # bitwise, -0.0 included

    def test_non_finite_rows_are_refused_by_row(self, tmp_path):
        f = tmp_path / "bad.txt"
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"bad\.txt: row 3 is not finite"):
                save_rows(f, [[1.0, 2.0], [3.0, 4.0], [5.0, bad], [bad, 0.0]])
            assert not f.exists()

    def test_empty_and_one_dimensional_input_are_refused(self, tmp_path):
        f = tmp_path / "bad.txt"
        for rows in (np.zeros((0, 2)), np.zeros((3, 0)), [1.0, 2.0], 5.0, np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match=r"bad\.txt: expected a nonempty table"):
                save_rows(f, rows, header="nothing")
            assert not f.exists()


def format_table_reference(table, digits, seps):
    return "".join(f"{x:.{digits}g}{sep}" for row in table for x, sep in zip(row, seps))


def kernel_corpus(rng, digits):
    """Values of both signs in and around the range where "%g" prints fixed
    notation: decimal-like values, short binaries, exact ties at every
    exponent, powers of ten and their neighbours, carries to the next
    power, signed zeros, subnormals, and both sides of 1e-4 and of
    10**digits, where the exponential form starts."""
    top = 10.0**digits
    magnitudes = 10.0 ** rng.uniform(-5.0, digits + 1.0, size=400)
    decimal = [float(f"{v:.{k}g}") for v, k in zip(magnitudes, rng.integers(1, digits + 1, size=400))]
    short = list(rng.integers(1, 2**20, size=200) / 2.0 ** rng.integers(0, 40, size=200))
    short += list(rng.integers(1, 2**40, size=200) * 2.0 ** rng.integers(-40, 20, size=200))
    # q / 2**(k+1) with q odd: times 10**k it is a half-integer, a tie.
    ties = []
    for k in range(digits + 4):
        low, high = 2 * 10 ** (digits - 1) // 5**k, 2 * 10**digits // 5**k
        if high > 1:
            qs = rng.integers(max(low, 1), high, size=20) | 1
            ties += [float(q) / 2.0 ** (k + 1) for q in qs.tolist() if q < 2**53]
    powers = np.array([10.0**k for k in range(-6, digits + 3)])
    near = [*powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf)]
    edges = [1e-4, top, np.nextafter(top, 0.0), top - 0.5,
             99999999999999999.0, 9.99999995e6, 99999999.5, 999999995.0, 9.9999999999999995e16,
             0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.pi, 1.0 / 3.0]
    edges += [np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 9.99999995e-5, 9.9999999999999995e-5]
    values = np.array(decimal + short + ties + near + edges)
    values = np.concatenate([values, -values])
    return values[rng.permutation(len(values))]


class TestFormatTable:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("digits", [8, 17])
    def test_kernel_corpus_matches_the_reference(self, digits):
        rng = np.random.default_rng(digits)
        values = kernel_corpus(rng, digits)
        for cols, seps in ((1, "\n"), (2, " \n"), (3, "  \n"), (2, ", ")):
            # Both sides of the size below which "%" formats the table,
            # and a table of several chunks.
            least = fileio._KERNEL_MIN_DIGITS // digits // cols
            for rows in (1, least - 1, least + 1, 2 * fileio._CHUNK_ROWS + 3):
                table = np.resize(values, (rows, cols))
                assert _format_table(table, digits, seps) == format_table_reference(table, digits, seps)
                values = np.roll(values, 7)

    @pytest.mark.filterwarnings("error")
    def test_the_writers_match_the_references_on_the_corpus(self, tmp_path):
        rng = np.random.default_rng(3)
        for cols in (1, 2, 3):
            rows = np.resize(kernel_corpus(rng, 17), (1500, cols))
            assert _same_bytes(tmp_path, save_rows, save_rows_reference, rows, "corpus")
        # The viewBox spans the points, so values near the float maximum
        # would overflow it; the special values above cover +-1e300.
        values = kernel_corpus(rng, 8)
        points = np.resize(values[np.abs(values) <= 1e300], (1500, 2))
        elements = [PolyLine(points, "#000000"), PolyLine(points[:5], "#1f4fd8")]
        assert _same_bytes(tmp_path, render_svg, render_svg_reference, elements)


def _elements(rng, sizes):
    colors = ("#000000", "#1f4fd8", "#d7191c")
    return [
        PolyLine(rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-8, 8), colors[i % 3])
        for i, n in enumerate(sizes)
    ]


class TestRenderSvg:
    def test_random_figures_match_the_reference(self, tmp_path):
        rng = np.random.default_rng(7)
        for sizes in ((1,), (2, 3), (60, 720, 5), (2880, 40, 40, 9)):
            elements = _elements(rng, sizes)
            assert _same_bytes(tmp_path, render_svg, render_svg_reference, elements)

    def test_special_values_match_the_reference(self, tmp_path):
        pts = np.array([[0.0, -0.0], [5e-324, -5e-324], [1e300, -1e300], [1.0, math.pi]])
        elements = [PolyLine(pts, "#000000")]
        assert _same_bytes(tmp_path, render_svg, render_svg_reference, elements)

    def test_non_finite_points_are_refused(self, tmp_path):
        f = tmp_path / "bad.svg"
        good = PolyLine(np.array([[0.0, 0.0], [1.0, 1.0]]), "#000000")
        for bad in (math.nan, math.inf, -math.inf):
            pts = np.array([[0.0, 0.0], [1.0, bad], [2.0, 2.0]])
            with pytest.raises(ValueError, match=r"bad\.svg: element 1: point 2 is not finite"):
                render_svg([good, PolyLine(pts, "#000000")], f)
            assert not f.exists()

    def test_points_must_be_planar_rows(self, tmp_path):
        f = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            render_svg([PolyLine(np.zeros((4, 3)), "#000000")], f)
        assert not f.exists()


class TestExtremeScales:
    """A figure near the float maximum: written while its view box is
    finite, refused with the quantity named once it is not."""

    def _crystal(self, tmp_path, c):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"kind": "constant", "c": c}))
        out = tmp_path / "out"
        code, stdout, stderr = _run_cli(["crystal", str(spec), "--grid", "64", "--out", str(out)])
        return code, stdout, stderr, out

    def test_a_view_box_near_the_float_maximum_is_written_finite(self, tmp_path):
        code, _, stderr, out = self._crystal(tmp_path, 1e307)
        assert (code, stderr) == (0, "")
        svg = (out / "crystal.svg").read_text()
        assert "inf" not in svg and "nan" not in svg
        assert 'height="640" viewBox="-1.2e+307 -1.2e+307 2.4e+307 2.4e+307"' in svg

    def test_a_view_box_beyond_the_float_range_is_refused_before_any_file(self, tmp_path):
        code, stdout, stderr, out = self._crystal(tmp_path, 1e308)
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {out / 'crystal.svg'}: the view box width is beyond the float range\n"
        assert list(out.iterdir()) == []

    def test_each_side_of_the_view_box_is_named(self, tmp_path):
        f = tmp_path / "big.svg"
        big = 1.7e308
        cases = {
            "right": [[0.0, 0.0], [big, 1.0]], "bottom": [[0.0, 0.0], [1.0, -big]],
            "left": [[-big, 0.0], [0.0, 1.0]], "top": [[0.0, 0.0], [1.0, big]],
            "width": [[-1e308, 0.0], [1e308, 1.0]], "height": [[0.0, -1e308], [1.0, 1e308]],
        }
        for name, points in cases.items():
            with pytest.raises(ValueError, match=f"view box {name} is beyond the float range"):
                render_svg([PolyLine(np.array(points), "#000000")], f)
            assert not f.exists()


@pytest.mark.parametrize("grid", [60, 720, 2880])
@pytest.mark.parametrize("kind", sorted(README_SPECS))
def test_crystal_exports_match_the_reference_writers(tmp_path, monkeypatch, capsys, kind, grid):
    spec = tmp_path / f"{kind}.json"
    spec.write_text(json.dumps(README_SPECS[kind]))
    argv = ["crystal", str(spec), "--grid", str(grid), "--out"]
    assert main([*argv, str(tmp_path / "new")]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "save_rows", save_rows_reference)
        patch.setattr(svgplot, "render_svg", render_svg_reference)
        assert main([*argv, str(tmp_path / "old")]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert len(names) == 6 and "crystal.svg" in names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes(), name
