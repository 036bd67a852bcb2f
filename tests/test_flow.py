import math

import numpy as np
import pytest

import freemult as fm
from freemult import flow
from freemult.errors import DomainError, EmptyVSet, InvariantViolation


def bisect_scalar(f, lo, hi, iters=200):
    """Plain bisection, used as the independent oracle for angle solves."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the implicit angle equation
# ---------------------------------------------------------------------------

def test_angle_lhs_point_mass_closed_form():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    for theta in (0.3, 1.0, 2.5):
        expect = math.sin(theta) / (4.0 * theta * math.sin(theta / 2) ** 2)
        assert fm.angle_equation_lhs(ctx, 1.0, theta) == pytest.approx(
            expect, rel=1e-14)


def test_angle_lhs_diverges_like_inverse_square():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    for theta in (1e-2, 1e-3, 1e-4):
        assert fm.angle_equation_lhs(ctx, 1.0, theta) * theta ** 2 == pytest.approx(
            1.0, rel=1e-2)


def test_angle_lhs_vanishes_at_pi():
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    assert fm.angle_equation_lhs(ctx, 0.8, math.pi - 1e-12) < 1e-11


def test_angle_lhs_domain():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    with pytest.raises(DomainError):
        fm.angle_equation_lhs(ctx, 1.0, 0.0)
    with pytest.raises(DomainError):
        fm.angle_equation_lhs(ctx, -1.0, 0.5)


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.lambda_measure(math.pi / 2),
                                fm.atomic([(0.5, 1.0), (0.5, 4.0)])])
def test_angle_lhs_dtheta_matches_central_difference(nu):
    ctx = fm.FlowContext(nu, 1.0)
    r, h = 0.7, 1e-5
    for theta in (0.4, 1.3, 2.5):
        ival = flow.poisson_kernel_integral(nu, r, math.sin(theta / 2) ** 2,
                                            rtol=ctx.tol_quad)
        fd = (fm.angle_equation_lhs(ctx, r, theta + h)
              - fm.angle_equation_lhs(ctx, r, theta - h)) / (2 * h)
        assert flow._angle_lhs_dtheta(ctx, r, theta, ival) == pytest.approx(
            fd, rel=1e-6)


def test_atomic_kernels_match_direct_sums():
    w, a = np.array([0.2, 0.3, 0.5]), np.array([0.5, 1.0, 3.0])
    nu = fm.atomic(list(zip(w, a)))
    ctx = fm.FlowContext(nu, 1.0)
    rng = np.random.default_rng(20)
    for r, theta in zip(rng.uniform(0.1, 5.0, 32), rng.uniform(0.01, 3.1, 32)):
        u = r * a
        s2 = math.sin(theta / 2) ** 2
        denom = (1.0 - u) ** 2 + 4.0 * u * s2
        assert flow.poisson_kernel_integral(nu, r, s2) == pytest.approx(
            np.sum(w * u / denom), rel=1e-14)
        terms = w * (u * u - 1.0) / denom
        assert flow._radial_exponent(ctx, r, theta) == pytest.approx(
            np.sum(terms), rel=1e-14, abs=1e-14 * np.sum(np.abs(terms)))


def test_solve_angle_against_bisection_oracle():
    # point mass at 1, t = 4, r = 1: cot(theta/2) / (2 theta) = 1/4
    oracle = bisect_scalar(
        lambda th: math.cos(th / 2) / (2 * th * math.sin(th / 2)) - 0.25,
        1e-6, math.pi - 1e-6)
    ctx = fm.FlowContext(fm.dirac(1.0), 4.0)
    assert fm.solve_angle(ctx, 1.0) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(1.7206671780387595, abs=1e-12)


def test_solve_angle_zero_off_region():
    # f(0.5) = 0.5 / 0.25 = 2 <= 10
    ctx = fm.FlowContext(fm.dirac(1.0), 0.1)
    assert fm.solve_angle(ctx, 0.5) == 0.0


def test_solve_angle_positive_at_reciprocal_atom():
    for t in (0.01, 1.0, 100.0):
        ctx = fm.FlowContext(fm.atomic([(0.4, 0.5), (0.6, 2.0)]), t)
        assert fm.solve_angle(ctx, 2.0) > 0.0
        assert fm.solve_angle(ctx, 0.5) > 0.0


def test_angle_monotone_decreasing_in_theta():
    rng = np.random.default_rng(11)
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    for _ in range(20):
        r = float(rng.uniform(0.2, 3.0))
        thetas = np.sort(rng.uniform(0.01, math.pi - 0.01, 5))
        vals = [fm.angle_equation_lhs(ctx, r, float(t)) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# blow-up region
# ---------------------------------------------------------------------------

def test_blowup_region_point_mass_boundaries():
    # f(r) = r/(1-r)^2 > 10 exactly on ((21 - sqrt(41))/20, (21 + sqrt(41))/20)
    ctx = fm.FlowContext(fm.dirac(1.0), 0.1)
    (lo, hi), = fm.blowup_region(ctx)
    assert lo == pytest.approx((21 - math.sqrt(41)) / 20, rel=1e-9)
    assert hi == pytest.approx((21 + math.sqrt(41)) / 20, rel=1e-9)


@pytest.mark.parametrize("t", [0.01, 1.0, 50.0])
def test_blowup_region_contains_reciprocal_atom(t):
    ctx = fm.FlowContext(fm.dirac(1.0), t)
    intervals = fm.blowup_region(ctx)
    assert any(lo < 1.0 < hi for lo, hi in intervals)


def test_blowup_region_cascade_disconnected():
    nu, _spec = fm.build_counterexample(30)
    ctx = fm.FlowContext(nu, 1.0)
    assert len(fm.blowup_region(ctx)) >= 2


def test_blowup_region_empty_window():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    with pytest.raises(EmptyVSet):
        fm.blowup_region(ctx, window=(100.0, 200.0))


# ---------------------------------------------------------------------------
# the radial homeomorphism
# ---------------------------------------------------------------------------

def test_radial_map_fixed_point():
    for t in (0.1, 1.0, 4.0):
        ctx = fm.FlowContext(fm.dirac(1.0), t)
        assert fm.radial_map(ctx, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_radial_map_closed_form_off_region():
    # below the blow-up boundary the angle vanishes and
    # Lambda(r) = r exp((t/2) (r + 1)/(r - 1)) for a unit point mass
    ctx = fm.FlowContext(fm.dirac(1.0), 0.1)
    r = 0.7295
    expect = r * math.exp(0.05 * (r + 1) / (r - 1))
    assert fm.radial_map(ctx, r) == pytest.approx(expect, rel=1e-13)


def test_radial_map_dilation_rule():
    # Lambda for a point mass at c is (1/c) Lambda_{point mass at 1}(c r)
    c, t = 2.5, 0.8
    ctx_c = fm.FlowContext(fm.dirac(c), t)
    ctx_1 = fm.FlowContext(fm.dirac(1.0), t)
    for r in (0.1, 0.3, 1.0 / c, 2.0):
        assert fm.radial_map(ctx_c, r) == pytest.approx(
            fm.radial_map(ctx_1, c * r) / c, rel=1e-12)


def test_radial_map_inverse_fixed_point():
    ctx = fm.FlowContext(fm.dirac(1.0), 4.0)
    assert fm.radial_map_inverse(ctx, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_radial_map_round_trip():
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    for y in np.geomspace(0.1, 10, 200):
        r = fm.radial_map_inverse(ctx, float(y))
        assert abs(fm.radial_map(ctx, r) - y) <= 1e-8 * y


def test_radial_map_inverse_of_closed_form():
    ctx = fm.FlowContext(fm.dirac(1.0), 0.1)
    r = 0.7295
    y = r * math.exp(0.05 * (r + 1) / (r - 1))
    assert fm.radial_map_inverse(ctx, y) == pytest.approx(r, rel=1e-10)


# ---------------------------------------------------------------------------
# density and curves
# ---------------------------------------------------------------------------

def test_density_chained_oracle():
    # q(1) = u(1) / (4 pi) with u(1) from the closed-form bisection oracle
    oracle = bisect_scalar(
        lambda th: math.cos(th / 2) / (2 * th * math.sin(th / 2)) - 0.25,
        1e-6, math.pi - 1e-6)
    ctx = fm.FlowContext(fm.dirac(1.0), 4.0)
    assert fm.density(ctx, 1.0) == pytest.approx(oracle / (4 * math.pi), rel=1e-10)


def test_density_zero_off_support():
    ctx = fm.FlowContext(fm.dirac(1.0), 0.1)
    assert fm.density(ctx, 100.0) == 0.0
    assert fm.density(ctx, 0.01) == 0.0


def test_density_dilation_pointwise():
    ctx1 = fm.FlowContext(fm.dirac(1.0), 1.0)
    ctx2 = fm.FlowContext(fm.dirac(2.0), 1.0)
    for x in np.geomspace(0.1, 10, 25):
        assert abs(fm.density(ctx2, float(2 * x))
                   - 0.5 * fm.density(ctx1, float(x))) < 1e-6


def test_curve_mass_and_support():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=512)
    assert len(curve.support) == 1
    lo, hi = curve.support.intervals[0]
    assert lo < 1.0 < hi
    assert curve.mass() == pytest.approx(1.0, abs=1e-4)
    assert np.all(curve.q >= 0)
    assert np.all(np.diff(curve.x) > 0)


def test_curve_mean_identity():
    # first moment evolves by e^{t/2} (the semigroup transform at the origin
    # is e^{-t/2}, so the mean gains the reciprocal factor)
    nu = fm.uniform_interval(1, 2)
    ctx = fm.FlowContext(nu, 0.5)
    curve = fm.density_curve(ctx, points=512)
    expect = nu.mean() * math.exp(0.25)
    assert curve.mean() == pytest.approx(expect, rel=1e-3)


def test_curve_log_symmetry_for_symmetric_measure():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    worst = 0.0
    for x in np.geomspace(0.3, 3.0, 40):
        g = float(x) * fm.density(ctx, float(x))
        g_mirror = (1.0 / float(x)) * fm.density(ctx, 1.0 / float(x))
        worst = max(worst, abs(g - g_mirror))
    assert worst < 1e-3


def test_curve_inversion_equivariance():
    nu = fm.uniform_interval(1, 2)
    t = 1.0
    ctx = fm.FlowContext(nu, t)
    ctx_inv = fm.FlowContext(fm.invert_measure(nu), t)
    worst = 0.0
    for x in np.geomspace(0.2, 5.0, 30):
        a = fm.density(ctx_inv, float(x))
        b = fm.density(ctx, 1.0 / float(x)) / float(x) ** 2
        worst = max(worst, abs(a - b))
    assert worst < 1e-3


def test_curve_cascade_components_and_zero_gaps():
    nu, _spec = fm.build_counterexample(10)
    ctx = fm.FlowContext(nu, 1.0)
    curve = fm.density_curve(ctx, points=256)
    assert len(curve.support) >= 2
    # gap markers carry exact zeros
    gaps = [i for i in range(curve.x.size)
            if not curve.support.contains(float(curve.x[i]))]
    assert gaps and all(curve.q[i] == 0.0 for i in gaps)


def test_curve_empty_region_yields_zero_curve():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=128, r_window=(100.0, 200.0))
    assert len(curve.support) == 0
    assert np.all(curve.q == 0.0)
    assert "empty blow-up region: zero curve" in curve.metadata["warnings"][0]


def test_curve_window_clips():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=256, window=(0.8, 1.2))
    assert curve.x[0] >= 0.8 - 1e-12
    assert curve.x[-1] <= 1.2 + 1e-12
    assert len(curve.support) == 1


def test_curve_metadata_records_tolerances():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=128)
    md = curve.metadata
    assert md["t"] == 1.0
    assert md["measure"]["kind"] == "named"
    assert set(md["tolerances"]) == {"tol_root", "tol_quad", "tol_int"}
    assert "mass" in md


def test_curve_point_count_floor():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    with pytest.raises(DomainError):
        fm.density_curve(ctx, points=32)


def test_flow_context_validation():
    with pytest.raises(InvariantViolation):
        fm.FlowContext(fm.dirac(1.0), -1.0)
    with pytest.raises(InvariantViolation):
        fm.FlowContext(fm.dirac(1.0), 1.0, tol_root=0.0)


def test_residual_contract_sampled():
    for nu, t in ((fm.dirac(1.0), 4.0), (fm.uniform_interval(1, 2), 0.7),
                  (fm.atomic([(0.5, 1.0), (0.5, 4.0)]), 2.0)):
        ctx = fm.FlowContext(nu, t)
        for r in np.geomspace(0.2, 5.0, 12):
            u = fm.solve_angle(ctx, float(r))
            if u > 0.0:
                resid = abs(fm.angle_equation_lhs(ctx, float(r), u) - 1.0 / t)
                assert resid <= ctx.tol_root / t


def test_support_set_invariants():
    with pytest.raises(InvariantViolation):
        fm.SupportSet(((1.0, 2.0), (1.5, 3.0)))
    with pytest.raises(InvariantViolation):
        fm.SupportSet(((-1.0, 2.0),))
    s = fm.SupportSet(((0.5, 1.0), (2.0, 3.0)))
    assert len(s) == 2
    assert s.contains(0.7) and not s.contains(1.5)
