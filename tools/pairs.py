"""Alternating benchmark pairs of two checkouts, with a verdict per metric.

    python3 tools/pairs.py PARENT CHANGE --workload query --seed 1 --pairs 10 --out BENCH_<pr>.json

Runs ``perfbench/run.py --trace 0`` in the parent and the change checkout,
``--pairs`` times each, alternating which side runs first, for the run
length that the change's BENCHMARK.json sets. It appends one entry to the
``--out`` JSON list: every run's metrics and op counts, and for each
end-to-end metric both medians, the parent's quartiles, the pairs the
change won, and a verdict (:func:`verdict`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# A gain needs at least MIN_PAIRS pairs, and the change must win WIN_SHARE
# of all pairs run; ties win nothing.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, interpolated between the runs."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's runs, ``parent[i]`` paired with ``change[i]``.

    - "better": of at least MIN_PAIRS pairs, the change wins WIN_SHARE or
      more, and its median is better than the parent's by more than the
      parent's interquartile range;
    - "worse": the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - "unresolved": neither, while the parent's runs spread wider than the
      bound and the change does not read better than every parent run;
    - "within bound": otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent) if len(parent) > 1 else (p_med, p_med)
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        label = "better"
    elif -gain > bound * abs(p_med):
        label = "worse"
    elif max(parent) - min(parent) > bound * abs(p_med) and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        label = "unresolved"
    else:
        label = "within bound"
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": [q1, q3],
        "wins": wins,
        "pairs": len(parent),
        "verdict": label,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in a checkout: the JSON object on its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def commit(checkout: Path) -> str:
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return head.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, seconds)
            runs.append({"pair": i, "side": side, "first": side == order[0], **result})
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    def values(side: str, name: str) -> list[float]:
        return [r["metrics"][name]["value"] for r in runs if r["side"] == side]

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "checkouts": {side: {"path": str(path.resolve()), "commit": commit(path)} for side, path in sides.items()},
        "runs": runs,
        "metrics": {
            m["name"]: verdict(values("parent", m["name"]), values("change", m["name"]), m["better"], m["bound"])
            for m in spec["end_to_end"]
        },
    }
    history = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps(history + [entry], indent=1) + "\n")
    for name, v in entry["metrics"].items():
        print(f"{name:12s} {v['parent_median']:.4g} -> {v['change_median']:.4g}  "
              f"{v['wins']}/{v['pairs']}  {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
