"""Property-based checks of the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anisogeo import (
    Constant,
    ConvexRegion,
    Crystalline,
    Dip,
    Path,
    PNorm,
    concatenate,
    hausdorff_distance,
    path_length,
    polar,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
vectors = st.tuples(finite, finite).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-6)

costs = st.one_of(
    st.floats(min_value=1.0, max_value=6.0).map(PNorm),
    st.floats(min_value=0.1, max_value=5.0).map(Constant),
    st.just(Crystalline([((1, 1), 1.0), ((-1, 1), 1.3), ((0, -1), 0.7), ((1, -1), 1.1)])),
    st.just(Dip(Constant(1.0), [((1.0, 0.0), 0.5)])),
)


@given(F=costs, x=vectors, lam=st.sampled_from([0.5, 2.0, 10.0]))
def test_positive_homogeneity(F, x, lam):
    assert F(lam * x) == pytest.approx(lam * F(x), rel=1e-12)


@given(F=costs, x=vectors)
def test_positivity_away_from_zero(F, x):
    assert F(x) > 0.0
    assert F(np.zeros(2)) == 0.0


@given(x=vectors, y=vectors, z=vectors)
@settings(max_examples=30, deadline=None)
def test_triangle_inequality_for_induced_distance(l1_ctx, x, y, z):
    assert l1_ctx.distance(x, z) <= l1_ctx.distance(x, y) + l1_ctx.distance(y, z) + 1e-9


@given(x=vectors, y=vectors)
@settings(max_examples=30, deadline=None)
def test_distance_vanishes_only_on_the_diagonal(dip_ctx, x, y):
    d = dip_ctx.distance(x, y)
    assert (d == 0.0) == np.array_equal(x, y)


@st.composite
def polygons_around_origin(draw):
    k = draw(st.integers(min_value=4, max_value=12))
    angles = np.sort([draw(st.floats(0.0, 2 * math.pi - 1e-3)) for _ in range(k)])
    radii = np.array([draw(st.floats(0.2, 3.0)) for _ in range(k)])
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts -= pts.mean(axis=0) * 0.5  # keep the origin comfortably interior
    try:
        region = ConvexRegion.from_points(pts)
    except ValueError:
        return None
    return region if region.origin_interior else None


@given(region=polygons_around_origin())
@example(region=ConvexRegion([(-0.46211013, 0.68197307), (0.15403671, -0.22732436), (0.95403671, -0.22732436)]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_polar_is_an_involution(region):
    # Each polar divides by offsets that carry an absolute rounding of order eps times the
    # magnitude, so the round trip is conditioned by kappa = magnitude / least offset (the
    # README's bound for polar). The example's origin sits 1.4e-9 from its first edge, so
    # kappa is 6.8e8; its gap of 3.7e-9 is 0.026 of eps * kappa * magnitude.
    if region is None:
        return
    kappa = region.magnitude / region.offsets.min()
    bound = 8.0 * np.finfo(float).eps * kappa * region.magnitude
    assert hausdorff_distance(polar(polar(region)), region) <= bound


@given(region=polygons_around_origin(), u=vectors, v=vectors)
@settings(max_examples=60, deadline=None)
def test_support_function_is_subadditive(region, u, v):
    if region is None:
        return
    lhs = region.support(u + v)
    rhs = region.support(u) + region.support(v)
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


@given(region=polygons_around_origin(), v=vectors, lam=st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=60, deadline=None)
def test_support_and_gauge_are_homogeneous(region, v, lam):
    if region is None:
        return
    assert region.support(lam * v) == pytest.approx(lam * region.support(v), rel=1e-12)
    assert region.gauge(lam * v) == pytest.approx(lam * region.gauge(v), rel=1e-12)


@st.composite
def polylines(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    pts = [np.array([draw(finite), draw(finite)]) / 10.0 for _ in range(k)]
    try:
        return Path(np.vstack(pts))
    except ValueError:
        return None


@given(p=polylines(), q=polylines())
@settings(max_examples=40, deadline=None)
def test_concatenation_adds_lengths(l1_ctx, p, q):
    if p is None or q is None:
        return
    total = path_length(l1_ctx.integrand, p) + path_length(l1_ctx.integrand, q)
    try:  # a segment far shorter than its breakpoints may round away when translated
        joined = concatenate([p, q])
    except ValueError as exc:
        assert "degenerate segment" in str(exc)
        return
    assert path_length(l1_ctx.integrand, joined) == pytest.approx(total, rel=1e-12)


@given(p=polylines())
@settings(max_examples=40, deadline=None)
def test_length_dominates_distance(dip_ctx, p):
    if p is None:
        return
    if np.linalg.norm(p.end - p.start) <= 1e-9:
        return
    slack = 5 * dip_ctx.resolution * dip_ctx.f_max
    lf = path_length(dip_ctx.integrand, p)
    assert lf >= dip_ctx.distance(p.start, p.end) - slack * max(1.0, lf)
