"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at minimal length, untraced and traced, and checks
   that the last line names exactly the end-to-end (untraced) or per-layer
   (traced) metrics of BENCHMARK.json, each with its unit, and that the
   results file carries ``fail_frac`` and the run record.
2. Perturbs real answers of each workload and checks that the gate
   counts every perturbed answer as a failed op, while the same answers
   unperturbed pass.

Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORD = {"seed", "git_commit", "nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads", "grids"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_emitted_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
            )
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            expect(set(metrics) == set(want),
                   f"{workload} trace={trace}: missing {sorted(set(want) - set(metrics))}, "
                   f"extra {sorted(set(metrics) - set(want))}")
            for name, unit in want.items():
                expect(metrics[name]["unit"] == unit, f"{name}: unit {metrics[name]['unit']!r}, want {unit!r}")
                expect(isinstance(metrics[name]["value"], (int, float)), f"{name}: value not a number")
            saved = json.loads((BENCH / "results" / f"{workload}-seed1-trace{trace}.json").read_text())
            expect(saved["metrics"]["fail_frac"]["unit"] == "ratio", f"{workload}: no fail_frac in the results file")
            expect(set(saved["record"]) == RECORD, f"{workload}: run record keys {sorted(saved['record'])}")
            print(f"ok  {workload:9s} trace={trace}: {len(metrics)} metrics named with units")


def _first(workload, kind: str, command: str | None = None):
    """A fresh case of the first stratum of the pass with this kind (and command)."""
    for i in range(workload.pass_length):
        case = workload.base_case(i)
        if case.kind == kind and (command is None or case.data.get("command") == command):
            return workload.next_case(i)
    raise SystemExit(f"selftest FAILED: no {kind} {command or ''} case in {workload.name}")


def _caught(run, workload, case, answer, what: str) -> None:
    """The gate passes the real answer and fails the perturbed one."""
    tally = run.Tally()
    tally.add(case.label, workload.check(case, answer))
    expect(tally.total("failed") == 0, f"{workload.name}: real answer fails the gate")
    tally.add(case.label, workload.check(case, PERTURB[what](answer)))
    expect(tally.total("failed") == 1, f"{workload.name}: perturbation '{what}' not counted as a failure")
    print(f"ok  {workload.name:9s} {case.label}: '{what}' counted as a failed op")


def _scale_distance(answer):
    out = copy.deepcopy(answer)
    out["distance"] *= 1.0 + 1e-4
    return out


def _bend_path(answer):
    out = copy.deepcopy(answer)
    pts = out["path"]
    mid = 0.5 * (pts[0] + pts[-1]) + 1e-3
    out["path"] = np.vstack([pts[0], mid, pts[-1]])
    return out


def _nan_in_stdout(answer):
    out = dict(answer)
    report = json.loads(answer["stdout"])
    report["results"]["distance"] = float("nan")
    out["stdout"] = json.dumps(report)
    return out


def _flip_exit(answer):
    return {**answer, "code": 1 - answer["code"]}


def _undercut_oracle(answer):
    out = copy.deepcopy(answer)
    k, gap = out["gaps"][0]
    out["gaps"][0] = (k, gap - 1e-3)
    return out


PERTURB = {
    "distance off by 1e-4": _scale_distance,
    "path bent off the geodesic": _bend_path,
    "NaN in the JSON report": _nan_in_stdout,
    "exit code flipped": _flip_exit,
    "oracle undercuts the distance": _undercut_oracle,
}


def check_perturbations() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import run
    from workloads import Cli, Query, Validate

    class SmallQuery(Query):
        kinds, per_grid, grids = ("pnorm-p", "crystalline"), {720: 1}, (720,)

    class SmallCli(Cli):
        kinds, commands = ("constant",), ("distance", "verify")

    class SmallValidate(Validate):
        kinds = ("pnorm-1",)

    work = run.RESULTS / "selftest"
    query = SmallQuery(1, work, 1)
    query.setup()
    for kind in ("pnorm-p", "crystalline"):
        case = _first(query, kind)
        _caught(run, query, case, query.run(case), "distance off by 1e-4")
    # A strictly convex cost: any bend makes the path dearer than the distance.
    case = _first(query, "pnorm-p")
    _caught(run, query, case, query.run(case), "path bent off the geodesic")

    cli = SmallCli(1, work, 1)
    cli.setup()
    case = _first(cli, "constant", "distance")
    answer = cli.run(case)
    _caught(run, cli, case, answer, "NaN in the JSON report")
    _caught(run, cli, case, answer, "exit code flipped")
    case = _first(cli, "constant", "verify")
    _caught(run, cli, case, cli.run(case), "exit code flipped")
    cli.close()

    validate = SmallValidate(1, work, 1)
    validate.setup()
    case = _first(validate, "pnorm-1")
    _caught(run, validate, case, validate.run(case), "oracle undercuts the distance")


if __name__ == "__main__":
    check_perturbations()
    check_emitted_names()
    print("selftest passed")
