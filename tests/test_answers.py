"""tools/answers.py on one ``query`` pass: a checkout agrees with itself, and a
perturbed answer is named."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("answers", ROOT / "tools" / "answers.py")
answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answers)

# Appended to a copy's package: every distance one ulp up.
_PERTURB = """
import math as _math
from .crystal import CrystalContext as _Context
_distance = _Context.distance
_Context.distance = lambda self, x, y: _math.nextafter(_distance(self, x, y), _math.inf)
"""


def _run(parent, change, out, capsys):
    code = answers.main([str(parent), str(change), "--workload", "query", "--seed", "1", "--passes", "1",
                         "--out", str(out)])
    return code, capsys.readouterr().out


def test_a_checkout_agrees_with_itself(tmp_path, capsys):
    code, printed = _run(ROOT, ROOT, tmp_path, capsys)
    assert code == 0, printed
    assert "answers identical" in printed
    lines = (tmp_path / "change-query-seed1.jsonl").read_text().splitlines()
    assert lines == (tmp_path / "parent-query-seed1.jsonl").read_text().splitlines()
    assert len(lines) > 1 and '"contact_point"' in lines[0]
    assert answers.compare(tmp_path / "parent-query-seed1.jsonl", tmp_path / "change-query-seed1.jsonl") == (len(lines), None)


def test_a_perturbed_answer_is_named(tmp_path, capsys):
    copy = tmp_path / "copy"
    for sub in ("src/anisogeo", "perfbench"):
        shutil.copytree(ROOT / sub, copy / sub, ignore=shutil.ignore_patterns("__pycache__", "results"))
    with (copy / "src" / "anisogeo" / "__init__.py").open("a") as fh:
        fh.write(_PERTURB)
    code, printed = _run(ROOT, copy, tmp_path / "out", capsys)
    assert code == 1
    assert "op 0 (" in printed and "differs at .answer.distance" in printed


def test_encoding_keeps_every_bit():
    import numpy as np

    got = answers.encode({"x": 0.1, "a": np.array([[-0.0, 5e-324]]), "s": "/w/cli/out", "f": np.bool_(True)}, "/w")
    assert got == {"x": (0.1).hex(), "a": {"dtype": "float64", "shape": [1, 2], "values": ["-0x0.0p+0", "0x0.0000000000001p-1022"]},
                   "s": "<workdir>/cli/out", "f": True}
    assert answers.first_difference({"a": [1, 2]}, {"a": [1, 3]}) == ".a[1]"
    assert answers.first_difference({"a": [1]}, {"a": [1], "b": 2}) == ".b"
