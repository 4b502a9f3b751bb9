"""Cross-module invariant battery, runnable against any cost spec.

Each check is a name, a measured value and the bound it is held to, and
its verdict derives from those two alone: it passes exactly when the
measured value is at most the bound (:class:`CheckResult`), so a nan
fails. A failing run points at the broken invariant instead of a generic
error. Checks are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import planar
from .crystal import CrystalContext, double_polars, hausdorff_distance, polar
from .geodesics import construct_geodesic, geodesic_ball, is_geodesic
from .integrand import support_transform, GridFunction
from .isoperimetry import _competitor_ratios, wulff_identity_check
from .oracle import Stencil, _oracle_distances


@dataclass
class CheckResult:
    """One check's measured value and the bound it is held to; it passes
    exactly when ``measured <= bound``, so a nan fails."""

    name: str
    measured: float
    bound: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound)

    @property
    def margin(self) -> float | None:
        """measured / bound, the share of its bound a check uses; None where the
        bound is 0 or the quotient is not finite, so the report stays strict JSON."""
        if self.bound == 0:
            return None
        margin = float(self.measured) / float(self.bound)
        return margin if math.isfinite(margin) else None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
        }
        if self.note:
            out["note"] = self.note
        return out


def run_suite(ctx: CrystalContext, seed: int = 0) -> list[CheckResult]:
    """The invariant battery on a context, one :class:`CheckResult` per check,
    each stated once as its measured value and bound; it passes exactly when
    the value is at most the bound.

    With res the grid resolution, maxF the cost's largest grid value and
    scale the crystal diameter, the checks and their bounds are:

    * ``polar-involution-crystal``: Hausdorff gap between the polar of the
      polar body and the crystal, at most 5 res scale.
    * ``double-polar-hull``: over 10 random 12-point clouds, the gap
      between the double polar and the hull of the cloud and the origin,
      at most 5 res.
    * ``wulff-below-cost``, ``support-above-cost``, ``envelope-below-cost``:
      W(F) <= F, A(F) >= F and the envelope <= F on the grid, each within
      1e-9 maxF, the bound each reports. The envelope is the context's:
      the crystal's support.
    * ``envelope-is-support``: the sampled A(W(F)) of the context's Wulff
      transform, an independent cross-check, against the envelope on the
      grid, at most 2 res maxF (:attr:`CrystalContext.envelope_bound`);
      ``convex-fixed-point`` (convex families only): the envelope against
      F, same bound, the gap the crystal's first read measured and kept
      (``ctx.fixed_point_gap``).
    * ``normals-in-contact``: crystal normals out of contact, 0.
    * ``non-contact-directions`` (informational, present when there are
      any): the count of grid directions where F sits above its envelope,
      against the grid size, which a subset of the grid never exceeds.
    * ``wulff-identity``: |P - 2A| / P on the crystal, at most 1e-6 for
      convex families and 5 res otherwise.
    * ``ball-polar-is-crystal``: gap between the polar of the unit ball and
      the crystal, at most 5 res scale. The unit ball at the origin is the
      polar body; when it is so vertex for vertex, its polar is the one
      ``polar-involution-crystal`` measured, and that gap is reused.
    * ``constructed-geodesics-verify``: constructed geodesics between 10
      random endpoint pairs in [-2, 2]^2 that fail to verify, 0.
    * ``oracle-sandwich``: how far the norm exceeds lattice paths on the
      axis and order-2 stencils, at most 1e-9 maxF, plus res**2 maxF for
      sampled costs.
    * ``isoperimetric-minimality``: how far the crystal's isoperimetric
      ratio exceeds that of 20 random competitor crystals, at most 1e-6.

    Everything random is drawn from ``default_rng(seed)`` in this order:
    the double-polar clouds, then the geodesic endpoints, then the
    competitors' tables, each stage in one draw that gives the numbers
    (and leaves the generator) as drawing them one by one does.

    The double-polar check is one batch (:func:`_double_polar_gaps`): one
    hull per expected region and one per double polar, every other pass on
    all ten clouds at once; its gaps are those of the one-at-a-time
    reference, bit for bit. So are the competitors' ratios
    (:func:`isoperimetry._competitor_ratios`).
    """
    rng = np.random.default_rng(seed)
    res = ctx.resolution
    scale = ctx.crystal.diameter
    checks: list[CheckResult] = []

    def check(name: str, measured: float, bound: float, note: str = "") -> None:
        checks.append(CheckResult(name, measured, bound, note))

    # Polarity: the crystal and the polar body are each other's polars.
    gap = hausdorff_distance(polar(ctx.polar_body), ctx.crystal)
    check("polar-involution-crystal", gap, 5 * res * scale)

    # Double polar of random clouds reproduces the hull with the origin added.
    check("double-polar-hull", max([0.0, *_double_polar_gaps(rng)]), 5 * res)

    # Transform inequalities on the grid, against the context's own scan.
    f_vals = ctx._f_grid
    rounding = 1e-9 * ctx.f_max
    check("wulff-below-cost", float((ctx.wulff.values - f_vals).max()), rounding)
    a_of_f = support_transform(GridFunction(ctx.grid, f_vals))
    check("support-above-cost", float((f_vals - a_of_f.values).max()), rounding)
    check("envelope-below-cost", float((ctx.envelope.values - f_vals).max()), rounding)

    # The sampled A(W(F)) agrees with the envelope at grid accuracy.
    sampled = support_transform(ctx.wulff)
    check("envelope-is-support", float(np.abs(sampled.values - ctx.envelope.values).max()), ctx.envelope_bound)

    if ctx.integrand.is_convex:  # the gap the crystal's first read measured and bounded
        check("convex-fixed-point", ctx.fixed_point_gap, ctx.envelope_bound)

    # Attained crystal normals are contact directions.
    check("normals-in-contact", float(np.count_nonzero(~ctx.in_contact_many(ctx.crystal.normals))), 0.0)

    # Informational: directions where the cost sits strictly above its envelope,
    # a subset of the grid, so always at most its size.
    dirs = ctx.grid.directions[~ctx.in_contact_many(ctx.grid.directions)]
    off = np.arctan2(dirs[:, 1], dirs[:, 0])
    if len(off):
        note = f"expected for non-convex costs; angular range [{off.min():.3f}, {off.max():.3f}] rad"
        check("non-contact-directions", float(len(off)), float(ctx.grid.size), note)

    # Crystal perimeter/area identity.
    report = wulff_identity_check(ctx)
    check("wulff-identity", report.relative_difference, 1e-6 if ctx.integrand.is_convex else 5 * res)

    # Ball duality: the unit ball's polar is the crystal. A ball that is the
    # polar body vertex for vertex has the polarity check's gap.
    ball = geodesic_ball(ctx, (0.0, 0.0), 1.0)
    if np.array_equal(ball.vertices, ctx.polar_body.vertices):
        ball_gap = gap
    else:
        ball_gap = hausdorff_distance(polar(ball), ctx.crystal)
    check("ball-polar-is-crystal", ball_gap, 5 * res * scale)

    # Constructed geodesics verify.
    fails = 0
    # Ten pairs of rng.uniform(-2.0, 2.0, size=2) draws, as one draw.
    for x, y in (-2.0 + 4.0 * rng.random((10, 4))).reshape(10, 2, 2):
        cert = is_geodesic(ctx, construct_geodesic(ctx, x, y))
        fails += not cert.verdict
    check("constructed-geodesics-verify", float(fails), 0.0)

    # Oracle sandwich: lattice paths never undercut the distance. A sampled
    # cost's norm min(F, h) reads the grid crystal, which contains the true
    # one, so inside a corner's normal cone it exceeds the true norm by
    # O(resolution^2), hence the extra slack for sampled costs.
    targets = [np.array(t) for t in [(5, 5), (7, 3), (3, -4), (-2, 5)]]
    norms = [ctx.norm(t.astype(float)) for t in targets]
    worst_under = 0.0
    for stencil in (Stencil.axis(), Stencil.order(2)):
        for d, lattice in zip(norms, _oracle_distances(ctx.integrand, targets, stencil)):
            worst_under = max(worst_under, d - lattice)
    check("oracle-sandwich", worst_under, rounding if ctx.integrand.is_convex else (1e-9 + res**2) * ctx.f_max)

    # Isoperimetric minimality against random same-fan competitors.
    ratios = _competitor_ratios(ctx.integrand, ctx.grid, rng, 20)
    check("isoperimetric-minimality", max([0.0] + [report.ratio - r for r in ratios]), 1e-6)

    return checks


def _double_polar_gaps(rng: np.random.Generator) -> list[float]:
    """For 10 random 12-point clouds, drawn from rng in turn (in one draw),
    the Hausdorff gap between the double polar and the hull of the cloud
    and the origin.

    Each expected region and each double polar takes one hull; the pruning
    of the expected hulls (:func:`planar.strictly_convex_cycles`), the
    double polars (:func:`double_polars`) and the gaps
    (:func:`planar.hausdorff_distances`) are one batch each.
    """
    # Per cloud, rng.uniform(-1.0, 1.0, size=(12, 2)) then an offset
    # rng.uniform(-0.5, 1.5, size=2): uniform is low + (high - low) times a
    # random() draw, so one draw of 26 numbers a cloud holds the same.
    draws = rng.random((10, 26))
    clouds = (-1.0 + 2.0 * draws[:, :24]).reshape(10, 12, 2) + (-0.5 + 2.0 * draws[:, 24:])[:, None, :]
    hulls, _, starts, _ = planar.strictly_convex_cycles(
        [planar.hull_cycle(np.vstack([pts, [[0.0, 0.0]]])) for pts in clouds]
    )
    return planar.hausdorff_distances(zip(double_polars(clouds), np.split(hulls, starts[1:]))).tolist()
