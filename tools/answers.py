"""Every answer of one benchmark workload in two checkouts, compared bit for bit.

    python3 tools/answers.py PARENT CHANGE --workload query --seed 1 [--passes N] [--out DIR]

For each checkout, a child process imports that checkout's ``perfbench``
workload and its ``src/anisogeo`` (read-only: no bytecode is written), lays
the workload out as ``perfbench/run.py`` does, and for every op ``i`` of the
run calls the workload's own ``next_case(i)`` and ``run(case)``. It writes
one JSON line per op to ``DIR/<side>-<workload>-seed<seed>.jsonl``: floats as
``float.hex``, arrays with their dtype and shape, a refusal by its type and
message, each ``crystal --out`` file by its SHA-256, for ``query`` the
certificate of the answer's path (``is_geodesic(...).as_dict()``: its
contact point and flags), and the child's work
directory replaced by ``<workdir>``. The two files are then compared line
by line; the first op that differs is named, with the first field that
differs, and the exit code is 1. Identical answers exit 0.

``--passes`` defaults to the run length that the change's BENCHMARK.json
sets, converted to passes as ``perfbench/run.py`` converts ``--seconds``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKDIR = "<workdir>"


def encode(value, workdir: str):
    """A JSON-ready form of an answer that keeps every bit of it."""
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, str):
        return value.replace(workdir, WORKDIR)
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "values": [encode(v, workdir) for v in value.ravel().tolist()]}
    if isinstance(value, dict):
        return {str(k): encode(v, workdir) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v, workdir) for v in value]
    raise TypeError(f"cannot encode an answer of type {type(value).__name__}")


def _files(directory: Path, workdir: str) -> dict:
    """The SHA-256 of each file under a directory, by relative name, with the work directory normalized."""
    return {
        str(f.relative_to(directory)): hashlib.sha256(f.read_bytes().replace(workdir.encode(), WORKDIR.encode())).hexdigest()
        for f in sorted(directory.rglob("*")) if f.is_file()
    }


def passes_for(checkout: Path, workload: str, seconds: float) -> int:
    """The passes ``perfbench/run.py --seconds`` runs, from the workload's nominal pass time."""
    return max(1, round(seconds / _workload_class(checkout, workload).pass_seconds))


def _workload_class(checkout: Path, workload: str):
    sys.dont_write_bytecode = True
    for sub in ("src", "perfbench"):
        path = str(checkout.resolve() / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import anisogeo
    import workloads

    src = (checkout.resolve() / "src" / "anisogeo").resolve()
    if Path(anisogeo.__file__).resolve().parent != src:
        sys.exit(f"error: imported anisogeo from {anisogeo.__file__}, not from {src}")
    return workloads.WORKLOADS[workload]


def dump(checkout: Path, workload: str, seed: int, passes: int, out) -> None:
    """Write every op's answer as one JSON line."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as perfbench/run.py sets them
    kind = _workload_class(checkout, workload)
    import anisogeo

    with tempfile.TemporaryDirectory(prefix="answers-") as tmp:
        workdir = Path(tmp) / "work"
        work = kind(seed, workdir, passes)
        work.setup()
        work.warm_up()
        for i in range(passes * work.pass_length):
            case = work.next_case(i)
            try:
                answer = {"answer": work.run(case)}
            except Exception as exc:  # an op that raises answers with its refusal
                answer = {"raised": type(exc).__name__, "message": str(exc)}
            out_dir = case.data.get("out")
            if out_dir is not None and Path(out_dir).is_dir():
                answer["files"] = _files(Path(out_dir), str(workdir))
            if workload == "query" and "answer" in answer:  # the certificate behind the verdict
                answer["certificate"] = anisogeo.is_geodesic(case.data["ctx"], anisogeo.Path(answer["answer"]["path"])).as_dict()
            line = {"op": i, "label": case.label, **encode(answer, str(workdir))}
            out.write(json.dumps(line) + "\n")
        work.close()


def first_difference(a, b, where: str = "") -> str | None:
    """The path of the first field where two encoded answers differ, or None."""
    if type(a) is not type(b):
        return where or "."
    if isinstance(a, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{where}.{key}"
            found = first_difference(a[key], b[key], f"{where}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{where}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{where}[{min(len(a), len(b))}]"
    return None if a == b else (where or ".")


def compare(parent: Path, change: Path) -> tuple[int, str | None]:
    """(ops compared, a description of the first op that differs or None)."""
    lines = parent.read_text().splitlines(), change.read_text().splitlines()
    for la, lb in zip(*lines):
        if la != lb:
            a, b = json.loads(la), json.loads(lb)
            return a["op"] + 1, f"op {a['op']} ({a['label']}) differs at {first_difference(a, b)}"
    count = min(map(len, lines))
    if len(lines[0]) != len(lines[1]):
        return count, f"the runs have {len(lines[0])} and {len(lines[1])} ops"
    return count, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", required=True, choices=("query", "cli", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--out", type=Path, help="directory for the answer files (default: a new temporary one)")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # child mode: one checkout to stdout
    args = parser.parse_args(argv)

    if args.dump is not None:
        dump(args.dump, args.workload, args.seed, args.passes, sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    passes = args.passes
    if passes is None:
        seconds = json.loads((args.change / "BENCHMARK.json").read_text())["run_seconds"]
        passes = passes_for(args.change, args.workload, seconds)
    out = args.out or Path(tempfile.mkdtemp(prefix="answers-"))
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        files[side] = out / f"{side}-{args.workload}-seed{args.seed}.jsonl"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(checkout.resolve()),
               "--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes)]
        with files[side].open("w") as fh:
            subprocess.run(cmd, stdout=fh, check=True)
    count, difference = compare(files["parent"], files["change"])
    if difference is not None:
        print(f"{args.workload} seed {args.seed}: {difference}")
        print(f"answers: {files['parent']} {files['change']}")
        return 1
    print(f"{args.workload} seed {args.seed}: {count} answers identical ({passes} passes); answers in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
