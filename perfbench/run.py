"""Benchmark entry point: one seeded workload, metrics on the last line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports ``anisogeo`` from its
``src``. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it traces calls into each module and prints the per-layer
metrics. ``--seconds`` sets the length of the run as a number of whole
passes (the workload's ``pass_seconds`` each), so a seed and a length
always give the same ops. The last line of stdout is one JSON object; a
run record with the failure breakdown goes to ``perfbench/results``. See
README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

# Single-threaded BLAS on every side of a comparison; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Violation  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3
MIN_TRACED_PASSES = 2
# The speed of the host drifts: on the machine described in README.md a
# fixed loop took from 32 to 60 ms within an hour, and thread CPU time
# moved with it. So every end-to-end time is given at a reference speed:
# a yardstick (``probe``) is timed off the clock before the first op and
# after every PROBE_EVERY_S of op time, and each time is multiplied by
# REF_PROBE_S over the latest yardstick time. Wall times are kept in the
# results file.
PROBE_EVERY_S = 0.1
REF_PROBE_S = 1.0e-3
_PROBE_ARRAY = np.arange(4096, dtype=float)


def probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work, best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(15000):
            acc += i * 1.0001
        np.sort(_PROBE_ARRAY[::-1]).sum()
        best = min(best, time.perf_counter() - start)
    return best


def _import_program() -> None:
    if not (SRC / "anisogeo" / "__init__.py").is_file():
        sys.exit(f"error: no anisogeo sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import anisogeo

    if Path(anisogeo.__file__).resolve().parent != (SRC / "anisogeo").resolve():
        sys.exit(f"error: imported anisogeo from {anisogeo.__file__}, not from {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def _cpu() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"model": model, "caches": caches}


def run_record(seed: int, workload) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "grids": list(workload.grids),
    }


class Tally:
    """Attempted and failed ops, broken out by cost family, grid and op form."""

    def __init__(self) -> None:
        self.rows = defaultdict(lambda: {"attempted": 0, "failed": 0, "unflagged": 0})
        self.examples: dict[str, list[str]] = defaultdict(list)

    def add(self, label: str, violations) -> None:
        row = self.rows[label]
        row["attempted"] += 1
        if violations:
            row["failed"] += 1
            row["unflagged"] += any(not v.flagged for v in violations)
            if len(self.examples[label]) < 3:
                self.examples[label].append("; ".join(v.reason for v in violations))

    def total(self, key: str) -> int:
        return sum(row[key] for row in self.rows.values())


def _run_op(workload, case):
    start = time.perf_counter()
    try:
        answer, error = workload.run(case), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        answer, error = None, exc
    elapsed = time.perf_counter() - start
    if error is not None:
        return elapsed, [Violation(f"raised {type(error).__name__}: {error}", True)]
    return elapsed, workload.check(case, answer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "cli", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import_wall = time.perf_counter() - _STARTED
    import_s = import_wall * REF_PROBE_S / probe()
    RESULTS.mkdir(exist_ok=True)
    # Whole passes only, at least one (two when traced: one each way).
    kind = WORKLOADS[args.workload]
    passes = max(MIN_TRACED_PASSES if args.trace else 1, round(args.seconds / kind.pass_seconds))
    workload = kind(args.seed, RESULTS / f"work-{os.getpid()}", passes)
    tracer = tracing.Tracer() if args.trace else None

    setup_times, setup_walls = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        before = probe()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        workload.setup()
        if tracer:
            tracer.uninstall()
        workload.warm_up()
        wall = time.perf_counter() - start
        setup_walls.append(wall)
        setup_times.append(wall * REF_PROBE_S / statistics.mean((before, probe())))
    setup_s = import_s + statistics.median(setup_times)

    tally = Tally()
    for label, reason in workload.setup_failures:
        tally.add(label, [Violation(f"build raised: {reason}", True)])
    pass_len = workload.pass_length
    # (position in pass, traced, seconds at the reference speed, wall seconds)
    latencies: list[tuple[int, bool, float, float]] = []
    probes: list[float] = []
    since_probe = PROBE_EVERY_S
    for i in range(passes * pass_len):
        position = i % pass_len
        traced = bool(tracer) and (i // pass_len) % 2 == 0
        if tracer:
            if position == 0:
                tracer.uninstall()
                if traced:
                    tracer.install()
            tracer.op = i
        if since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
        case = workload.next_case(i)
        elapsed, violations = _run_op(workload, case)
        since_probe += elapsed
        latencies.append((position, traced, elapsed * REF_PROBE_S / probes[-1], elapsed))
        tally.add(case.label, violations)
    if tracer:
        tracer.uninstall()

    attempted, failed = tally.total("attempted"), tally.total("failed")
    unflagged = tally.total("unflagged")
    # The timed part is the ops themselves: drawing inputs, the yardstick
    # and the correctness gate run between ops, off the clock.
    wall = _timings([w for *_, w in latencies], import_wall + statistics.median(setup_walls))
    if tracer:
        traced_ops = {k for k, (_, t, _, _) in enumerate(latencies) if t}
        count_ops = {tracing.SETUP_OP} | set(range(pass_len))
        op_wall = sum(w for _, t, _, w in latencies if t)
        metrics = tracing.layer_metrics(tracer, traced_ops, count_ops, op_wall)
        metrics.update(_overhead(latencies))
    else:
        metrics = {
            **_timings([s for _, _, s, _ in latencies], setup_s),
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    workload.close()

    # fail_frac is printed and recorded, but kept out of the metrics object:
    # "attempted" and "failed" carry it (see README.md).
    fail_frac = {"fail_frac": {"value": failed / attempted, "unit": "ratio"}}
    record = run_record(args.seed, workload)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "record": record,
        "workload": args.workload,
        "seconds": args.seconds,
        "ops": len(latencies),
        "passes": passes,
        "import_s": import_s,
        "metrics": {**metrics, **fail_frac},
        "wall_metrics": wall,
        "probe_ms": {k: 1e3 * f(probes) for k, f in (("min", min), ("median", statistics.median), ("max", max))},
        "failures": {k: dict(v) for k, v in sorted(tally.rows.items())},
        "failure_examples": dict(tally.examples),
        "setup_failures": workload.setup_failures,
    }, indent=1))
    if tracer:
        import numpy as np

        counts = sorted(tracer.counts.items())
        np.savez_compressed(
            RESULTS / f"{args.workload}-spans.npz",
            names=np.array(tracer.names),
            **tracer.arrays(),
            count_op=np.array([op for (op, _), _ in counts], dtype=np.int64),
            count_name=np.array([name for (_, name), _ in counts]),
            count_value=np.array([n for _, n in counts], dtype=np.int64),
        )

    _print_summary(args, {**metrics, **fail_frac}, tally, passes)
    print(json.dumps({
        "correct": unflagged == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _timings(times: list[float], setup_s: float) -> dict:
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "p50_ms": {"value": 1e3 * tracing.percentile(times, 50), "unit": "ms"},
        "p90_ms": {"value": 1e3 * tracing.percentile(times, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _overhead(latencies) -> dict:
    """Tracing overhead: traced minus untraced ops_per_s over the positions
    in the pass that ran both ways, so the same strata are compared."""
    by = {True: defaultdict(list), False: defaultdict(list)}
    for position, traced, seconds, _ in latencies:
        by[traced][position].append(seconds)
    both = sorted(set(by[True]) & set(by[False]))
    rate = {
        t: len(both) / sum(statistics.mean(by[t][p]) for p in both) for t in (True, False)
    }
    return {
        "trace.overhead_ops_per_s": {"value": rate[True] - rate[False], "unit": "1/s"},
        "trace.untraced_ops_per_s": {"value": rate[False], "unit": "1/s"},
    }


def _print_summary(args, metrics, tally, passes) -> None:
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={passes}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print("  failures by family/grid/op (failed/attempted, unflagged):")
    for label, row in sorted(tally.rows.items()):
        if row["failed"]:
            print(f"    {label:32s} {row['failed']}/{row['attempted']}  unflagged {row['unflagged']}")


if __name__ == "__main__":
    sys.exit(main())
