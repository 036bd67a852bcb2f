import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from freemult import _quad
from freemult._quad import (
    _GAUSS_IDX,
    _WG,
    _WGK,
    adaptive_quad,
    adaptive_quad_batch,
    batch_edges,
    geometric_edges,
    ladder_edges,
    merge_edges,
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
    edges = merge_edges([geometric_edges(0.5, 8.0), ladder_edges(c, w, 0.5, 8.0)])
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


def test_genuine_singularity_raises(monkeypatch):
    monkeypatch.setattr(_quad, "MAX_PANELS", 5000)
    f = lambda x: 1.0 / (x - 1.0) ** 2
    edges = merge_edges([geometric_edges(0.5, 2.0),
                         ladder_edges(1.0, 1e-9, 0.5, 2.0)])
    with pytest.raises(NonIntegrable):
        adaptive_quad(f, edges, rtol=1e-9)


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


def _peaks(u, c, w, singular, cplx):
    """Lorentzian peaks of centre c and width w, or the non-integrable pole
    1/(u - c)^2 where `singular`; times (1 + iu) where `cplx`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(singular, 1.0 / (u - c) ** 2, w / ((u - c) ** 2 + w * w))
    return f * (1.0 + 1j * u) if cplx else f


@given(st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(1.5, 1e4),
                          st.floats(0.0, 1.0), st.floats(-9.0, 0.0),
                          st.floats(-12.0, -4.0), st.booleans(),
                          st.booleans()),
                min_size=1, max_size=6),
       st.booleans())
def test_batch_matches_adaptive_quad_bitwise(specs, cplx):
    # each integral: range [lo, lo * ratio], a peak at a fraction of the way
    # in, log10 width, log10 rtol, a ladder at the peak or none, and a
    # non-integrable pole instead of the peak
    rows, params, rtols = [], [], []
    for lo, ratio, frac, logw, logrtol, ladder, singular in specs:
        hi = lo * ratio
        c, w = lo + frac * (hi - lo), 10.0 ** logw * (hi - lo)
        rows.append(merge_edges([geometric_edges(lo, hi)]
                                + ([ladder_edges(c, w, lo, hi)] if ladder else [])))
        params.append((c, w, singular))
        rtols.append(10.0 ** logrtol)
    c, w, singular = (np.array(v) for v in zip(*params))
    offsets = np.cumsum([0] + [r.size for r in rows])
    values, errors, failed = adaptive_quad_batch(
        lambda u, k: _peaks(u, c[k], w[k], singular[k], cplx),
        np.concatenate(rows), offsets, rtols, max_panels=2000)
    for k, edges in enumerate(rows):
        f = lambda u: _peaks(u, c[k], w[k], singular[k], cplx)
        try:
            # inf - inf at the pole
            with np.errstate(invalid="ignore"), \
                    mock.patch.object(_quad, "MAX_PANELS", 2000):
                val, err = adaptive_quad(f, edges, rtol=rtols[k])
        except NonIntegrable:
            assert failed[k]
            assert np.isnan(values[k]) and np.isnan(errors[k])
            continue
        assert not failed[k]
        assert values[k].tobytes() == np.asarray(val).tobytes()
        assert errors[k] == err


def test_batch_edges_equal_merge_edges_row_by_row():
    base = geometric_edges(1e-3, 50.0)
    points = np.array([1.0, np.nan, 49.999, 1e-3, 2e-3, 80.0])
    scales = np.array([1e-9, np.nan, 1e-2, 0.0, 1e-300, 1.0])
    edges, offsets = batch_edges(base, points, scales, 1e-3, 50.0)
    for k, (p, s) in enumerate(zip(points, scales)):
        ladders = [] if np.isnan(p) else [ladder_edges(p, s, 1e-3, 50.0)]
        want = merge_edges([base] + ladders)
        assert edges[offsets[k]:offsets[k + 1]].tobytes() == want.tobytes()
