"""The three workloads: warm queries, cold command-line calls, validation.

Each workload is a closed loop with one client: the next op starts when
the previous one returns. A run is a fixed number of passes, sized from
``--seconds`` by the workload's nominal ``pass_seconds``, so the same seed
and length give the same ops, whatever the speed of the program or the
machine. Set-up lays out one pass: a fixed order of strata, one op each,
in which every cost kind and command has an equal share (each workload
states its grids). For ``query`` and ``validate`` a stratum holds several
contexts built at set-up, which take turns from pass to pass; their shape
parameters are stratified (``inputs.stratified``). ``next_case`` then
draws fresh inputs for each op from the seed (endpoint pairs, spec files,
suite seeds), so none of these repeats within a run and the same seed
gives the same sequence.
``run`` is the timed part and calls only ``anisogeo``; ``check`` is the
correctness gate and runs untimed.

A gate violation is ``flagged`` when the program itself reported the
failure (it raised, its certificate said "not a geodesic", a suite check
failed, the command exited non-zero). An unflagged violation is a wrong
answer the program gave without noticing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference as ref


@dataclass
class Case:
    kind: str
    grid: int
    spec: dict
    data: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Breakdown key for failures: cost family, grid, and the op form."""
        op = self.data.get("command", "op")
        return f"{inputs.family(self.kind)}/g{self.grid}/{op}"


@dataclass
class Violation:
    reason: str
    flagged: bool


class Workload:
    name = ""
    stream = 0  # keeps the random streams of the workloads apart
    kinds = inputs.KINDS
    grids: tuple[int, ...] = ()
    # Nominal time of one pass on the machine described in README.md; it
    # only converts --seconds into a number of passes.
    pass_seconds: float

    def __init__(self, seed: int, workdir: Path, passes: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.passes = passes
        # One pass, one op per stratum; each stratum lists the cases that
        # take turns in it. The loop runs whole passes, so every run has
        # the same mix.
        self.strata: list[list[Case]] = []
        # Builds made during setup that raised: (label, reason).
        self.setup_failures: list[tuple[str, str]] = []

    @property
    def pass_length(self) -> int:
        return len(self.strata)

    def setup(self) -> None:
        """Draw the reused inputs from the seed, build what the ops reuse,
        and restart the stream of per-op inputs. A stratum whose builds
        all raised is left out."""
        self.draws = np.random.default_rng([self.seed, self.stream, 1])
        self.setup_failures = []
        strata = self.lay_out(np.random.default_rng([self.seed, self.stream, 0]))
        self.strata = [cases for cases in strata if cases]

    def lay_out(self, rng: np.random.Generator) -> list[list[Case]]:
        raise NotImplementedError

    def base_case(self, i: int) -> Case:
        """Op ``i`` falls in stratum ``i`` mod the pass length, where the
        cases take turns from one pass to the next."""
        cases = self.strata[i % self.pass_length]
        return cases[(i // self.pass_length) % len(cases)]

    def next_case(self, i: int) -> Case:
        """Op ``i``: its base case with fresh inputs."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untraced calls that pay one-off costs before timing."""

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, answer) -> list[Violation]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _contexts(kinds, per_grid: dict[int, int], rng, failures: list) -> list[list[Case]]:
    """One stratum per kind and grid, holding ``per_grid[grid]`` seeded costs
    with a context each. Builds that raise are recorded, not retried."""
    import anisogeo as ag

    strata = []
    for kind in kinds:
        for grid, count in per_grid.items():
            cases = []
            for u in inputs.stratified(rng, count):
                spec = inputs.cost_spec(rng, kind, u)
                try:
                    ctx = ag.CrystalContext(ref.build_cost(spec), ag.SphereGrid.planar(grid))
                except (ValueError, RuntimeError) as exc:
                    failures.append((f"{inputs.family(kind)}/g{grid}/build", str(exc)))
                    continue
                cases.append(Case(kind, grid, spec, {"ctx": ctx}))
            strata.append(cases)
    return strata


class Query(Workload):
    """Warm geodesic queries on contexts built once during setup.

    Loads the per-query kernels in ``crystal`` and ``geodesics``; build
    work is paid in setup, so a build-only change moves only ``setup_s``.
    """

    name = "query"
    stream = 1
    # Contexts per stratum at each grid. Builds at 2880 take about 12 times
    # as long as at 720, so set-up holds fewer of them.
    per_grid = {720: 6, 2880: 3}
    grids = tuple(per_grid)
    pass_seconds = 0.02

    def lay_out(self, rng):
        return _contexts(self.kinds, self.per_grid, rng, self.setup_failures)

    def next_case(self, i: int) -> Case:
        base = self.base_case(i)
        x, y = inputs.endpoint_pair(self.draws)
        return Case(base.kind, base.grid, base.spec, {"ctx": base.data["ctx"], "x": x, "y": y})

    def run(self, case: Case):
        import anisogeo as ag

        ctx, x, y = case.data["ctx"], case.data["x"], case.data["y"]
        distance = ctx.distance(x, y)
        label = ag.classify(ctx, x, y)
        path = ag.construct_geodesic(ctx, x, y)
        cert = ag.is_geodesic(ctx, path)
        family = None
        if label is ag.GeodesicClass.INFINITELY_MANY:
            family = ag.geodesic_family(ctx, x, y, 0.5)
        return {
            "distance": distance,
            "unique": label is ag.GeodesicClass.UNIQUE_UP_TO_REPARAM,
            "path": path.points,
            "verdict": cert.verdict,
            "family": None if family is None else family.points,
            "tol": ctx.default_tol,
        }

    def check(self, case: Case, answer) -> list[Violation]:
        x, y, spec = case.data["x"], case.data["y"], case.spec
        d = answer["distance"]
        out = []
        exact = ref.closed_form_distance(spec, x, y)
        if exact is not None and not ref.close(d, exact, ref.CLOSED_FORM_TOL):
            out.append(Violation(f"distance {d!r} against closed form {exact!r}", False))
        flagged = not answer["verdict"]
        if flagged:
            out.append(Violation("is_geodesic rejects the constructed path", True))
        for key in ("path", "family"):
            if answer[key] is not None:
                for why in ref.path_violations(spec, answer[key], x, y, d, answer["tol"]):
                    out.append(Violation(f"{key}: {why}", flagged))
        return out


def _point(p, sep: str = ",") -> str:
    """Coordinates with every digit, as a user would paste them."""
    return sep.join(repr(float(c)) for c in p)


class Cli(Workload):
    """Cold command-line calls: each call parses its spec and rebuilds.

    Every kind and command has an equal share of the calls. Grid 720, the
    command-line default, has two shares to the one of grid 2880; see
    README.md for why. Each call gets a fresh spec file, endpoints and
    path file, written untimed just before it. Over the run, the specs of
    each stratum take stratified shape parameters, one per pass.
    """

    name = "cli"
    stream = 2
    grid_shares = {720: 2, 2880: 1}
    grids = tuple(grid_shares)
    commands = ("crystal", "distance", "verify")
    pass_seconds = 5.8

    def lay_out(self, rng):
        self.files = self.workdir / "cli"
        shutil.rmtree(self.files, ignore_errors=True)
        self.files.mkdir(parents=True)
        strata = [
            [Case(kind, grid, {}, {"command": command})]
            for kind in self.kinds
            for grid, shares in self.grid_shares.items()
            for _ in range(shares)
            for command in self.commands
        ]
        # Shape quantile of each stratum's spec, one per pass.
        self.quantiles = [inputs.stratified(rng, self.passes) for _ in strata]
        return strata

    def warm_up(self) -> None:
        # One call of each command and grid pays imports and first-call costs.
        # The draws restart afterwards, so the timed ops see the same inputs.
        seen = set()
        for i in range(self.pass_length):
            case = self.base_case(i)
            if (case.data["command"], case.grid) not in seen:
                seen.add((case.data["command"], case.grid))
                case = self.next_case(i)
                self.check(case, self.run(case))
        self.draws = np.random.default_rng([self.seed, self.stream, 1])

    def next_case(self, i: int) -> Case:
        base = self.base_case(i)
        kind, grid, command = base.kind, base.grid, base.data["command"]
        rng = self.draws
        u = self.quantiles[i % self.pass_length][(i // self.pass_length) % self.passes]
        spec = inputs.cost_spec(rng, kind, u)
        spec_file = self.files / "spec.json"
        spec_file.write_text(json.dumps(spec))
        x, y = inputs.endpoint_pair(rng)
        data = {"command": command, "x": x, "y": y}
        argv = [str(spec_file), "--grid", str(grid)]
        if command == "crystal":
            data["out"] = self.files / "out"
            shutil.rmtree(data["out"], ignore_errors=True)
            argv = ["crystal", *argv, "--out", str(data["out"])]
            data["expect"] = 0
        elif command == "distance":
            # "--" keeps argparse from reading a negative coordinate as a flag.
            argv = ["distance", *argv, "--geodesic", "--", _point(x), _point(y)]
            data["expect"] = 0
        else:
            # A straight segment cut into collinear pieces: a geodesic
            # exactly when the cost is convex, since then F is the norm.
            pieces = int(rng.integers(2, 6))
            pts = x + np.linspace(0.0, 1.0, pieces + 1)[:, None] * (y - x)
            path_file = self.files / "path.txt"
            path_file.write_text("".join(_point(p, " ") + "\n" for p in pts))
            argv = ["verify", *argv, str(path_file)]
            data["expect"] = 0 if ref.is_convex(spec) else None
        data["argv"] = argv
        return Case(kind, grid, spec, data)

    def run(self, case: Case):
        from anisogeo import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(case.data["argv"])
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, case: Case, answer) -> list[Violation]:
        code, expect = answer["code"], case.data["expect"]
        command = case.data["command"]
        if code == 2:
            return [Violation(f"usage error: {answer['stderr'].strip()}", True)]
        if expect is not None and code != expect:
            # Exit 1 with an error and no report is the program refusing;
            # a report with the wrong verdict is a wrong answer.
            refused = code == 1 and not answer["stdout"].strip()
            reason = answer["stderr"].strip() or answer["stdout"][:200]
            return [Violation(f"exit {code}, expected {expect}: {reason}", refused)]
        try:
            report = ref.strict_json(answer["stdout"])
        except ValueError as exc:
            return [Violation(f"stdout is not strict JSON: {exc}", False)]
        if report.get("pass") != (code == 0):
            return [Violation("report pass flag disagrees with the exit code", False)]
        results = report.get("results", {})
        if command == "crystal":
            files = results.get("files", {})
            missing = [k for k, f in files.items() if not Path(f).is_file()]
            if missing or len(files) < 6:
                return [Violation(f"crystal output files missing: {missing}", False)]
            return []
        if command == "distance":
            return self._check_distance(case, results, report)
        return []

    def _check_distance(self, case: Case, results: dict, report: dict) -> list[Violation]:
        x, y, spec = case.data["x"], case.data["y"], case.spec
        d = results["distance"]
        out = []
        exact = ref.closed_form_distance(spec, x, y)
        # Reports carry 12 significant digits, far inside the contract tolerance.
        if exact is not None and not ref.close(d, exact, ref.CLOSED_FORM_TOL):
            out.append(Violation(f"distance {d!r} against closed form {exact!r}", False))
        flagged = not results["certificate"]["verdict"]
        if flagged:
            out.append(Violation("certificate rejects the constructed path", True))
        tol = report["tolerances"]["verification"]
        for key in ("geodesic_breakpoints", "family_midpoint_breakpoints"):
            if key in results:
                # Reports round to 12 significant digits (README contract),
                # a relative error of up to 5e-12; allow twice that.
                pts = np.asarray(results[key], dtype=float)
                eps = 1e-11 * max(1.0, float(np.abs(pts).max()))
                for why in ref.path_violations(spec, pts, x, y, d, tol, coord_eps=eps):
                    out.append(Violation(f"{key}: {why}", flagged))
        return out

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Validate(Workload):
    """The invariant battery: ``run_suite`` plus oracle convergence.

    Smooth costs load ``planar.hausdorff_distance``; polygonal costs load
    ``oracle``, ``isoperimetry`` and repeated ``build_crystal``. Each op
    validates a cost of its own, built at set-up, with a fresh suite seed
    and the next oracle target of its stratum. The targets of a stratum
    sweep ``inputs.TARGETS`` in a seeded order, so a run of as many passes
    as there are targets meets each target once per kind. Oracle time on
    a polygonal cost grows steeply with the target, and with random
    targets the time of a run depended on how many far ones it drew.
    """

    name = "validate"
    stream = 3
    grids = (60,)
    orders = [1, 2, 3, 4]
    pass_seconds = 1.4

    def lay_out(self, rng):
        strata = _contexts(self.kinds, {self.grids[0]: self.passes}, rng, self.setup_failures)
        sweeps = -(-self.passes // len(inputs.TARGETS))
        self.targets = [np.concatenate([inputs.target_sweep(rng) for _ in range(sweeps)]) for _ in strata]
        return strata

    def next_case(self, i: int) -> Case:
        base = self.base_case(i)
        target = self.targets[i % self.pass_length][i // self.pass_length]
        seed = int(self.draws.integers(2**31))
        return Case(base.kind, base.grid, base.spec, {"ctx": base.data["ctx"], "target": target, "seed": seed})

    def run(self, case: Case):
        import anisogeo as ag
        from anisogeo.suite import run_suite

        ctx = case.data["ctx"]
        checks = run_suite(ctx, seed=case.data["seed"])
        gaps = ag.oracle_convergence(ctx, case.data["target"], self.orders)
        return {
            "checks": [(c.name, c.passed, c.measured, c.bound) for c in checks],
            "gaps": gaps,
            "slack": 1e-9 if ctx.integrand.is_convex else 1e-9 + ctx.resolution**2 * ctx.f_max,
        }

    def check(self, case: Case, answer) -> list[Violation]:
        out = [
            Violation(f"suite check {name} failed: {measured:.3g} against {bound:.3g}", True)
            for name, passed, measured, bound in answer["checks"]
            if not passed
        ]
        # Once a suite check has failed, the program has reported this cost
        # as broken, so oracle violations on it count as flagged, as path
        # violations do in ``query`` once ``is_geodesic`` rejects.
        flagged = bool(out)
        gaps = [g for _, g in answer["gaps"]]
        slack = answer["slack"]
        if min(gaps) < -slack:
            out.append(Violation(f"oracle undercuts the distance by {-min(gaps):.3g}", flagged))
        if any(b > a + slack for a, b in zip(gaps, gaps[1:])):
            out.append(Violation(f"oracle gaps grow with the stencil order: {gaps}", flagged))
        return out


WORKLOADS = {w.name: w for w in (Query, Cli, Validate)}
