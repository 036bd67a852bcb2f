import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import freemult as fm
from freemult import flow, measures
from freemult.errors import (
    BracketFailure,
    DomainError,
    EmptyVSet,
    InvariantViolation,
)


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
        lhs = fm.level_function(ctx.nu, theta, 1.0, rtol=ctx.tol_quad)
        assert lhs == pytest.approx(expect, rel=1e-14)


def test_angle_lhs_diverges_like_inverse_square():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    for theta in (1e-2, 1e-3, 1e-4):
        lhs = fm.level_function(ctx.nu, theta, 1.0, rtol=ctx.tol_quad)
        assert lhs * theta ** 2 == pytest.approx(1.0, rel=1e-2)


def test_angle_lhs_vanishes_at_pi():
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    assert fm.level_function(ctx.nu, math.pi - 1e-12, 0.8,
                             rtol=ctx.tol_quad) < 1e-11


def test_angle_lhs_domain():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    with pytest.raises(DomainError):
        fm.level_function(ctx.nu, 0.0, 1.0, rtol=ctx.tol_quad)
    with pytest.raises(DomainError):
        fm.level_function(ctx.nu, 0.5, -1.0, rtol=ctx.tol_quad)


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.lambda_measure(math.pi / 2),
                                fm.atomic([(0.5, 1.0), (0.5, 4.0)])])
def test_angle_lhs_dtheta_matches_central_difference(nu):
    ctx = fm.FlowContext(nu, 1.0)
    r, h = 0.7, 1e-5
    for theta in (0.4, 1.3, 2.5):
        ival = flow.poisson_kernel_integral(nu, r, math.sin(theta / 2) ** 2,
                                            rtol=ctx.tol_quad)
        fd = (fm.level_function(nu, theta + h, r, rtol=ctx.tol_quad)
              - fm.level_function(nu, theta - h, r, rtol=ctx.tol_quad)) / (2 * h)
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


def _atoms(weights, locations):
    w = np.asarray(weights) / np.sum(weights)
    return fm.atomic(list(zip(w, locations)))


_START_MEASURES = st.one_of(
    st.integers(2, 5).flatmap(lambda n: st.builds(
        _atoms, st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n,
                 unique_by=lambda a: round(a, 6)))),
    st.builds(fm.gamma_measure, st.floats(0.5, 5.0), st.floats(0.2, 5.0)),
    st.builds(fm.log_normal, st.floats(-1.0, 1.0), st.floats(0.1, 1.5)),
    st.builds(lambda lo, d: fm.uniform_interval(lo, lo * (1 + d)),
              st.floats(0.1, 10.0), st.floats(1e-2, 4.0)),
)


@given(nu=_START_MEASURES, t=st.floats(0.05, 20.0), pick=st.floats(0.0, 1.0),
       where=st.floats(0.0, 1.0),
       guess=st.floats(1e-9, math.pi, exclude_min=True, exclude_max=True))
def test_solve_angle_any_guess_meets_contract(nu, t, pick, where, guess):
    ctx = fm.FlowContext(nu, t)
    intervals = fm.blowup_region(ctx)
    lo, hi = intervals[min(int(pick * len(intervals)), len(intervals) - 1)]
    r = lo * (hi / lo) ** where
    u = fm.solve_angle(ctx, r, guess=guess)
    cold = fm.solve_angle(ctx, r)
    assert (u == 0.0) == (cold == 0.0)
    if u == 0.0:
        return
    # below about 1e-6 the kernel quadrature itself is only accurate to
    # noise = 1e-16/u relative, and the residual with it
    noise = max(ctx.tol_quad, 1e-16 / u)
    lhs = fm.level_function(ctx.nu, u, r, rtol=ctx.tol_quad)
    assert abs(lhs - 1.0 / t) <= max(ctx.tol_root, noise) / t
    # the noise moves the root by kappa * noise relative, kappa the
    # condition number |d log theta / d log LHS|; it is huge at component
    # edges, where LHS ~ f(r) - A theta^2 and f(r) ~ 1/t
    ival = flow.poisson_kernel_integral(nu, r, math.sin(cold / 2) ** 2,
                                        rtol=ctx.tol_quad)
    kappa = 1.0 / (t * cold * abs(flow._angle_lhs_dtheta(ctx, r, cold, ival)))
    assert u == pytest.approx(cold, rel=1e-10 + 10.0 * kappa * noise)


def test_solve_angle_needs_a_sign_change_below_pi():
    # sin(theta)/theta/4 bounds the LHS at pi - 1e-14 by 8e-16 < 1/t
    assert fm.solve_angle(fm.FlowContext(fm.dirac(1.0), 1e14), 1.0) > 0.0
    with pytest.raises(BracketFailure):
        fm.solve_angle(fm.FlowContext(fm.dirac(1.0), 1e16), 1.0)


@pytest.mark.parametrize("nu, parent_calls", [
    (fm.gamma_measure(2.0, 1.0), 16149), (fm.lambda_measure(math.pi / 2), 16786)])
def test_curve_continuation_halves_quadratures(monkeypatch, nu, parent_calls):
    # parent_calls: adaptive quadratures of the same curve when every sample
    # was solved cold by a bracketing solver
    calls = []
    quad = measures.adaptive_quad
    monkeypatch.setattr(measures, "adaptive_quad",
                        lambda *a, **k: calls.append(1) or quad(*a, **k))
    fm.density_curve(fm.FlowContext(nu, 1.0), points=512)
    assert 0 < len(calls) <= parent_calls // 2


def _count_passes(monkeypatch) -> list[int]:
    """Integrand passes of each adaptive quadrature made from now on."""
    passes = []
    quad = measures.adaptive_quad

    def counted(f, edges, *args, **kwargs):
        passes.append(0)

        def g(x):
            passes[-1] += 1
            return f(x)
        return quad(g, edges, *args, **kwargs)
    monkeypatch.setattr(measures, "adaptive_quad", counted)
    return passes


@pytest.mark.parametrize("nu", [
    fm.lambda_measure(math.pi / 2), fm.boolean_stable(0.5),
    fm.marchenko_pastur(), fm.marchenko_pastur_inverse()],
    ids=["lambda", "boolean_stable", "marchenko_pastur", "mp_inverse"])
def test_blowup_scan_converges_in_the_seed_pass(monkeypatch, nu):
    # ladders anchored at the pole 1/r resolve the floor-angle Lorentzian
    # on heavy-tailed and square-root-edged starts without refinement
    passes = _count_passes(monkeypatch)
    fm.blowup_region(fm.FlowContext(nu, 1.0))
    assert len(passes) > 1000
    assert set(passes) == {1}


def test_heavy_tailed_curve_barely_refines(monkeypatch):
    passes = _count_passes(monkeypatch)
    fm.density_curve(fm.FlowContext(fm.lambda_measure(math.pi / 2), 1.0),
                     points=128)
    assert sum(passes) <= 1.25 * len(passes)


@pytest.mark.parametrize("x, parent_calls, value", [
    (0.5, 131, 0.4138499976053504), (2.0, 119, 0.12488123023335011),
    (8.0, 135, 0.024049212701594103)])
def test_density_reuses_the_inversion_angles(monkeypatch, x, parent_calls,
                                             value):
    # parent_calls and value: the same point when every angle solve of the
    # inversion started cold and the root's angle was solved again
    passes = _count_passes(monkeypatch)
    radii = []
    solve = flow.solve_angle
    monkeypatch.setattr(flow, "solve_angle",
                        lambda ctx, r, **kw: radii.append(r) or solve(ctx, r, **kw))
    ctx = fm.FlowContext(fm.gamma_measure(2.0, 1.0), 1.0)
    assert fm.density(ctx, x) == pytest.approx(value, rel=ctx.tol_root)
    assert len(passes) <= 0.6 * parent_calls
    assert len(set(radii)) == len(radii)  # no radius is solved twice


def test_angle_monotone_decreasing_in_theta():
    rng = np.random.default_rng(11)
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    for _ in range(20):
        r = float(rng.uniform(0.2, 3.0))
        thetas = np.sort(rng.uniform(0.01, math.pi - 0.01, 5))
        vals = [fm.level_function(ctx.nu, float(t), r, rtol=ctx.tol_quad)
                for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_flow_kernels_take_their_limits_where_the_denominator_overflows():
    # r * xi = 1e205: (1 - r*xi)^2 overflows, and the radial kernel tends
    # to 1 and the angle-slope kernel to 0 there
    ctx = fm.FlowContext(fm.dirac(1e200), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert flow._radial_exponent(ctx, 1e5, 0.5) == 1.0
        assert flow._angle_lhs_dtheta(ctx, 1e5, 0.5, 0.0) == 0.0


# ---------------------------------------------------------------------------
# blow-up predicate
# ---------------------------------------------------------------------------

def test_capped_blowup_point_mass_values():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    assert flow.capped_blowup(ctx, 0.5) == pytest.approx(2.0, rel=1e-15)
    # at the atom's pole the floor angle caps f near 1/ANGLE_FLOOR^2
    at_pole = flow.capped_blowup(ctx, 1.0)
    assert 1e17 < at_pole < math.inf


def test_capped_blowup_positive_and_finite_off_poles():
    ctx = fm.FlowContext(fm.atomic([(0.5, 1.0), (0.5, 4.0)]), 1.0)
    for r in (0.01, 0.3, 3.0, 100.0):
        v = flow.capped_blowup(ctx, r)
        assert 0.0 < v < math.inf


def test_capped_blowup_saturates_at_interior_pole():
    for nu, r in ((fm.uniform_interval(1, 2), 1.0 / 1.5),
                  (fm.lambda_measure(2.0), 1.0)):
        v = flow.capped_blowup(fm.FlowContext(nu, 1.0), r)
        assert 1e8 < v < math.inf


def test_capped_blowup_cascade_midpoint_bound():
    # partial-sum bound: f(b_k) <= 2 a_k a_{k+1} (a_k + a_{k+1})
    #                            / (a_k - a_{k+1})^2 * sum w_n / a_n
    nu, spec = fm.build_counterexample(30)
    ctx = fm.FlowContext(nu, 1.0)
    s = sum(w / a for w, a in zip(spec.weights, spec.locations))
    for k in (1, 2, 5, 10):
        a_k, a_k1 = spec.locations[k - 1], spec.locations[k]
        bound = 2 * a_k * a_k1 * (a_k + a_k1) / (a_k - a_k1) ** 2 * s
        assert flow.capped_blowup(ctx, spec.midpoints[k - 1]) <= bound


def test_capped_blowup_domain():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    for r in (0.0, -1.0):
        with pytest.raises(DomainError):
            flow.capped_blowup(ctx, r)


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


def test_curve_mass_measures_the_curve():
    # trapezoid rule over log x; over x it read 1.0045 for this curve
    curve = fm.density_curve(fm.FlowContext(fm.gamma_measure(2.0, 1.0), 1.0),
                             points=128)
    assert curve.mass() == pytest.approx(0.99926, abs=1e-5)
    assert curve.metadata["mass"] == curve.mass()


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
    ctx_inv = fm.FlowContext(nu.invert(), t)
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


@pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, 1.0), (-1.0, 2.0),
                                    (0.5, math.inf), (2.0, 1.0), (1.0, 1.0)])
def test_curve_rejects_bad_window(window):
    with pytest.raises(DomainError, match="bad window"):
        fm.density_curve(fm.FlowContext(fm.dirac(1.0), 1.0), window=window)


def test_curve_metadata_records_tolerances():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=128)
    md = curve.metadata
    assert md["t"] == 1.0
    assert md["measure"]["kind"] == "atomic"
    assert set(md["tolerances"]) == {"tol_root", "tol_quad"}
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
                lhs = fm.level_function(ctx.nu, u, float(r), rtol=ctx.tol_quad)
                resid = abs(lhs - 1.0 / t)
                assert resid <= ctx.tol_root / t


def test_support_set_invariants():
    with pytest.raises(InvariantViolation):
        fm.SupportSet(((1.0, 2.0), (1.5, 3.0)))
    with pytest.raises(InvariantViolation):
        fm.SupportSet(((-1.0, 2.0),))
    s = fm.SupportSet(((0.5, 1.0), (2.0, 3.0)))
    assert len(s) == 2
    assert s.contains(0.7) and not s.contains(1.5)
