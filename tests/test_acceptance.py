"""Acceptance battery: one test per criterion, one printed line per pass.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; a failing criterion fails its test loudly.
"""

import math

import numpy as np
import pytest

from anisogeo import (
    Path,
    PNorm,
    Stencil,
    classify,
    construct_geodesic,
    CrystalContext,
    double_polar,
    geodesic_ball,
    geodesic_family,
    GeodesicClass,
    hausdorff_distance,
    is_geodesic,
    isoperimetric_ratio,
    oracle_convergence,
    oracle_distance,
    polar,
    random_wulff_competitor,
    wulff_identity_check,
)
from anisogeo.planar import convex_hull_ccw

SQ2 = math.sqrt(2.0)


def _announce(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def _random_path(rng, k) -> Path:
    while True:
        pts = rng.uniform(-2.0, 2.0, size=(k, 2))
        try:
            return Path(pts)
        except ValueError:
            continue


def _subdivided(path: Path, pieces: int = 3) -> Path:
    out = [path.points[0]]
    for a, b in zip(path.points[:-1], path.points[1:]):
        for j in range(1, pieces + 1):
            out.append(a + (b - a) * j / pieces)
    return Path(np.vstack(out))


def _with_backtrack(path: Path, rng) -> Path:
    # Insert a reversal leg: strictly positive length excess for every cost.
    j = int(rng.integers(0, len(path.points) - 1))
    detour = path.points[j] + np.array([0.15, 0.0])
    pts = np.vstack([path.points[: j + 1], detour, path.points[j:]])
    return Path(pts)


def test_criterion_1_model_distances(l1_ctx):
    d11 = l1_ctx.distance((0.0, 0.0), (1.0, 1.0))
    d10 = l1_ctx.distance((0.0, 0.0), (1.0, 0.0))
    assert abs(d11 - 2.0) <= 1e-9
    assert abs(d10 - 1.0) <= 1e-9
    _announce(1, f"L1 distances (1,1)->{d11!r}, (1,0)->{d10!r} exact to 1e-9")


def test_criterion_2_multiplicity_and_family(l1_ctx):
    assert classify(l1_ctx, (0, 0), (1, 1)) is GeodesicClass.INFINITELY_MANY
    assert classify(l1_ctx, (0, 0), (1, 0)) is GeodesicClass.UNIQUE_UP_TO_REPARAM
    taus = np.linspace(0.0, 1.0, 10)
    members = [geodesic_family(l1_ctx, (0, 0), (1, 1), t) for t in taus]
    for m in members:
        assert is_geodesic(l1_ctx, m).verdict
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i].points, members[j].points
            assert a.shape != b.shape or not np.allclose(a, b, atol=1e-12)
    _announce(2, "uniqueness classes + 10 distinct verified family members")


def test_criterion_3_scalar_and_geometric_verdicts_agree(all_ctxs):
    rng = np.random.default_rng(101)
    total = 0
    for name, ctx in all_ctxs.items():
        paths = []
        while len(paths) < 200:  # generic polylines, nowhere near optimal
            paths.append(_random_path(rng, int(rng.integers(3, 7))))
        count_constructed = 0
        while count_constructed < 200:  # exact geodesics and variants
            x, y = rng.uniform(-2.0, 2.0, size=(2, 2))
            if np.linalg.norm(y - x) < 1e-3:
                continue
            g = construct_geodesic(ctx, x, y)
            paths.append(g)
            paths.append(_subdivided(g))
            if classify(ctx, x, y) is GeodesicClass.INFINITELY_MANY:
                paths.append(geodesic_family(ctx, x, y, float(rng.uniform(0.05, 0.95))))
            count_constructed += 3
        while len(paths) < 500:  # spoiled geodesics
            x, y = rng.uniform(-2.0, 2.0, size=(2, 2))
            if np.linalg.norm(y - x) < 1e-3:
                continue
            paths.append(_with_backtrack(construct_geodesic(ctx, x, y), rng))
        disagreements = 0
        for p in paths[:500]:
            cert = is_geodesic(ctx, p, tol=1e-6)
            disagreements += cert.verdict != cert.certified
        assert disagreements == 0, f"{name}: {disagreements} verdict/certificate splits"
        total += 500
    _announce(3, f"{total} polylines, scalar and geometric verdicts never split (tol 1e-6)")


def test_criterion_4_polar_duality(all_ctxs, grid):
    rng = np.random.default_rng(103)
    bound = 5.0 * grid.resolution
    worst = 0.0
    for i in range(50):
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(5, 14)), 2))
        if i % 2:
            pts += rng.uniform(0.5, 1.5, size=2)  # push the origin outside
        expected = convex_hull_ccw(np.vstack([pts, [[0.0, 0.0]]]))
        worst = max(worst, hausdorff_distance(double_polar(pts).vertices, expected))
    assert worst <= bound
    worst_dual = 0.0
    for name, ctx in all_ctxs.items():
        worst_dual = max(worst_dual, hausdorff_distance(polar(ctx.polar_body), ctx.crystal))
    assert worst_dual <= bound
    _announce(4, f"double polar worst gap {worst:.2e}, crystal duality {worst_dual:.2e} <= {bound:.2e}")


def test_criterion_5_envelope_identities(all_ctxs, grid):
    rng = np.random.default_rng(107)
    for name, ctx in all_ctxs.items():
        f_vals = ctx.integrand.values_on(grid.directions)
        bound = 2.0 * grid.resolution * ctx.f_max
        support = (grid.directions @ ctx.crystal.vertices.T).max(axis=1)
        assert np.abs(ctx.envelope.values - support).max() <= bound, name
        assert np.all(ctx.envelope.values <= f_vals + 1e-12 * ctx.f_max), name
        # Off-grid the sampled envelope carries angular-interpolation error.
        interp_slack = grid.resolution**2 * ctx.f_max
        for _ in range(500):
            theta = rng.uniform(0.0, 2 * math.pi)
            u = np.array([math.cos(theta), math.sin(theta)])
            assert ctx.envelope(u) <= ctx.integrand(u) + interp_slack, name
        if ctx.integrand.is_convex:
            assert np.abs(ctx.envelope.values - f_vals).max() <= bound, name
    _announce(5, "envelope = crystal support; envelope <= cost; convex fixed points")


def test_criterion_6_ball_polar_duality(all_ctxs):
    worst = 0.0
    for name, ctx in all_ctxs.items():
        bound = 5.0 * ctx.resolution
        ball = geodesic_ball(ctx, (0.0, 0.0), 1.0)
        gap = hausdorff_distance(polar(ball), ctx.crystal)
        assert gap <= bound, name
        worst = max(worst, gap)
    _announce(6, f"polar(unit ball) = crystal, worst Hausdorff gap {worst:.2e}")


def test_criterion_7_wulff_identity(l1_ctx, euclid_ctx, dip_ctx):
    for name, ctx, bound in (
        ("l1", l1_ctx, 1e-6),
        ("euclid", euclid_ctx, 1e-6),
        ("dip", dip_ctx, 5.0 * dip_ctx.resolution),
    ):
        report = wulff_identity_check(ctx)
        assert report.relative_difference <= bound, name
        iso_gap = abs(report.ratio - report.isotropic_constant)
        print(
            f"    {name}: perimeter {report.perimeter:.9f} vs 2*area "
            f"{2 * report.area:.9f}; isotropic constant {report.isotropic_constant:.9f} "
            f"differs from the sharp ratio by {iso_gap:.3e}"
        )
    _announce(7, "crystal perimeter = 2 * area (isotropic constant reported, not asserted)")


def test_criterion_8_isoperimetric_minimality(all_ctxs, grid):
    rng = np.random.default_rng(109)
    for name, ctx in all_ctxs.items():
        own = isoperimetric_ratio(ctx.integrand, ctx.crystal)
        for _ in range(100):
            competitor = random_wulff_competitor(grid, rng)
            assert isoperimetric_ratio(ctx.integrand, competitor) >= own - 1e-6, name
        for lam, shift in ((0.5, (0.0, 0.0)), (2.0, (1.5, -0.5))):
            homothet = ctx.crystal.scaled(lam).translated(shift)
            assert isoperimetric_ratio(ctx.integrand, homothet) == pytest.approx(
                own, rel=1e-9
            ), name
    _announce(8, "crystal beats 100 competitors per cost; homothets tie to 1e-9")


def test_criterion_9_oracle_sandwich_and_convergence(all_ctxs, euclid_ctx, l1_ctx):
    rng = np.random.default_rng(113)
    stencils = [Stencil.axis(), Stencil.order(1), Stencil.order(3)]
    for name, ctx in all_ctxs.items():
        for _ in range(10):
            target = rng.integers(-7, 8, size=2)
            if np.all(target == 0):
                continue
            d = ctx.norm(target.astype(float))
            for s in stencils:
                assert oracle_distance(ctx.integrand, target, s) >= d - 1e-9, name
    gaps = dict(oracle_convergence(euclid_ctx, (7, 3), [1, 2, 4]))
    rel = gaps[4] / euclid_ctx.norm(np.array([7.0, 3.0]))
    assert rel < 0.01
    l1_gap = oracle_distance(l1_ctx.integrand, (7, 3), Stencil.axis()) - l1_ctx.norm(
        np.array([7.0, 3.0])
    )
    assert abs(l1_gap) <= 1e-9
    _announce(9, f"oracle sandwich holds; order-4 isotropic gap {rel:.4%}; L1 axis gap {l1_gap:.1e}")


def test_criterion_10_segments_verify_for_pnorms(grid):
    rng = np.random.default_rng(127)
    for p in (1.0, 1.5, 2.0, 3.0, 40.0):
        ctx = CrystalContext(PNorm(p), grid)
        for _ in range(100):
            x, y = rng.uniform(-5.0, 5.0, size=(2, 2))
            if np.linalg.norm(y - x) < 1e-6:
                continue
            cert = is_geodesic(ctx, Path.segment(x, y), tol=1e-9)
            assert cert.verdict, (p, x, y)
    _announce(10, "100 random segments verify per p-norm (p in 1, 1.5, 2, 3, 40; tol 1e-9)")


def test_criterion_11_nonconvex_cost_bends_geodesics(dip_ctx):
    # Directions strictly inside the dip's normal-cone gap (0 to 60 degrees).
    # The margins dwarf every tolerance in play; 1e-6 resolves them cleanly.
    for deg in (20.0, 30.0, 45.0):
        v = np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])
        seg = Path.segment((0.0, 0.0), v)
        seg_cert = is_geodesic(dip_ctx, seg, tol=1e-6)
        assert not seg_cert.verdict, deg
        margin = seg_cert.achieved_length - seg_cert.target_norm
        assert margin > 1e-3, deg
        bent = construct_geodesic(dip_ctx, (0.0, 0.0), v)
        assert len(bent.points) == 3
        assert is_geodesic(dip_ctx, bent, tol=1e-6).verdict, deg
    _announce(11, "dip gap: segments fail by > 1e-3 while two-leg staircases verify")
