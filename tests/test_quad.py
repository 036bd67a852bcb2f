import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from freemult._quad import (
    _GAUSS_IDX,
    _WG,
    _WGK,
    adaptive_quad,
    build_edges,
    geometric_edges,
    ladder_edges,
)
from freemult.errors import NonIntegrable


def test_smooth_integrand_matches_scipy():
    f = lambda x: np.sin(x) / (1.0 + x * x)
    edges = geometric_edges(0.01, 50.0)
    val, err = adaptive_quad(f, edges, rtol=1e-12)
    ref, _ = sp_integrate.quad(lambda x: math.sin(x) / (1 + x * x),
                               0.01, 50, limit=200)
    assert abs(val - ref) < 1e-10


def test_peaked_kernel_with_ladder():
    # Lorentzian of relative width 1e-6 must converge with seeded panels
    c, w = 2.0, 2e-6
    f = lambda x: w / ((x - c) ** 2 + w * w)
    edges = build_edges(0.5, 8.0, points=(c,), scales=(w,))
    val, err = adaptive_quad(f, edges, rtol=1e-11)
    exact = math.atan((8.0 - c) / w) - math.atan((0.5 - c) / w)
    assert abs(val - exact) < 1e-9 * exact


def test_complex_integrand():
    z = 0.3 + 0.4j
    f = lambda x: 1.0 / (x - z)
    edges = geometric_edges(0.1, 5.0)
    val, _ = adaptive_quad(f, edges, rtol=1e-12)
    exact = np.log((5.0 - z) / (0.1 - z))
    assert abs(val - exact) < 1e-10


def test_genuine_singularity_raises():
    f = lambda x: 1.0 / (x - 1.0) ** 2
    edges = build_edges(0.5, 2.0, points=(1.0,), scales=(1e-9,))
    with pytest.raises(NonIntegrable):
        adaptive_quad(f, edges, rtol=1e-9, max_panels=5000)


def test_ladder_edges_clip():
    pts = ladder_edges(1.0, 1e-3, 0.5, 2.0)
    assert np.all((pts > 0.5) & (pts < 2.0))
    assert pts.size > 10


def test_ladder_anchored_at_the_point_not_the_range():
    # lambda(pi/2)'s effective support spans 23 decades; the ladder floor
    # follows the point, so the innermost edge sits within the pole's scale
    point, scale = 1e-3, 1e-12
    pts = ladder_edges(point, scale, 1.6e-12, 6.4e11)
    assert np.min(np.abs(pts[pts != point] - point)) <= 2 * scale
    # the doublings stop near the point: the geometric base takes over
    assert pts.max() <= point + 4 * point


def test_ladder_on_a_range_through_zero_spans_it():
    pts = ladder_edges(0.0, 1e-6, -10.0, 10.0)
    assert pts.min() < -5.0 and pts.max() > 5.0


def test_stall_message_prints_the_budget_tested():
    # two panels of floating-resolution width cancel to a small total, so
    # the tested budget is rtol * 0.01 * L1, not rtol * |total|
    eps = np.finfo(float).eps
    edges = np.array([1.0, 1.0 + 2 * eps, 1.0 + 4 * eps])
    bump = np.where(np.arange(15) % 2 == 1, 1.0, 0.0)
    pattern = np.concatenate([1.0 + bump, -(1.0 + bump) + 1e-3])
    rtol = 1e-9
    with pytest.raises(NonIntegrable, match="stalled") as exc:
        adaptive_quad(lambda x: pattern, edges, rtol=rtol)
    h = 0.5 * np.diff(edges)
    fv = pattern.reshape(2, 15)
    val = h * (fv @ _WGK)
    err = np.abs(val - h * (fv[:, _GAUSS_IDX] @ _WG))
    tested = rtol * max(abs(val.sum()), 0.01 * np.abs(val).sum())
    assert tested > 10 * rtol * abs(val.sum())
    printed = float(str(exc.value).split("budget ")[1].rstrip(")"))
    assert printed == pytest.approx(tested, rel=1e-3, abs=0.0)
    assert err.sum() > tested
