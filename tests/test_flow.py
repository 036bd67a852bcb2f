import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def bisect_angle(nu, t, r):
    """The angle u(r) by plain bisection of log theta on the level function
    over the solve's bracket: 0 where the LHS at the floor angle does not
    exceed 1/t."""
    def f(log_theta):
        return fm.level_function(nu, math.exp(log_theta), r) - 1.0 / t
    lo, hi = math.log(flow.ANGLE_FLOOR), math.log(math.pi - 1e-14)
    if f(lo) <= 0.0:
        return 0.0
    return math.exp(bisect_scalar(f, lo, hi, iters=60))


def assert_angle_contract(ctx, r, u, ref):
    """The nonzero angle u at r meets the residual contract and agrees with
    the reference angle ref within the quadrature noise's conditioning."""
    t = ctx.t
    # below about 1e-6 the kernel quadrature itself is only accurate to
    # noise = 1e-16/u relative, and the residual with it
    noise = max(flow._KERNEL_SUM_RTOL, 1e-16 / u)
    lhs = fm.level_function(ctx.nu, u, r, rtol=flow._KERNEL_SUM_RTOL)
    assert abs(lhs - 1.0 / t) <= max(flow._ANGLE_RESIDUAL, noise) / t
    # the noise moves the root by kappa * noise relative, kappa the
    # condition number |d log theta / d log LHS|; it is huge at component
    # edges, where LHS ~ f(r) - A theta^2 and f(r) ~ 1/t
    ival = flow.poisson_kernel_integral(ctx.nu, r, math.sin(ref / 2) ** 2,
                                        rtol=flow._KERNEL_SUM_RTOL)
    der = flow._angle_lhs_dtheta(ctx, np.array([r]), np.array([ref]), ival)[0]
    kappa = 1.0 / (t * ref * abs(der))
    assert u == pytest.approx(ref, rel=1e-10 + 10.0 * kappa * noise)


# ---------------------------------------------------------------------------
# the implicit angle equation
# ---------------------------------------------------------------------------

def test_angle_lhs_point_mass_closed_form():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    for theta in (0.3, 1.0, 2.5):
        expect = math.sin(theta) / (4.0 * theta * math.sin(theta / 2) ** 2)
        lhs = fm.level_function(ctx.nu, theta, 1.0)
        assert lhs == pytest.approx(expect, rel=1e-14)


def test_angle_lhs_diverges_like_inverse_square():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    for theta in (1e-2, 1e-3, 1e-4):
        lhs = fm.level_function(ctx.nu, theta, 1.0)
        assert lhs * theta ** 2 == pytest.approx(1.0, rel=1e-2)


def test_angle_lhs_vanishes_at_pi():
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    assert fm.level_function(ctx.nu, math.pi - 1e-12, 0.8) < 1e-11


def test_angle_lhs_domain():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    with pytest.raises(DomainError):
        fm.level_function(ctx.nu, 0.0, 1.0)
    with pytest.raises(DomainError):
        fm.level_function(ctx.nu, 0.5, -1.0)


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.lambda_measure(math.pi / 2),
                                fm.atomic([(0.5, 1.0), (0.5, 4.0)])])
def test_angle_lhs_dtheta_matches_central_difference(nu):
    ctx = fm.FlowContext(nu, 1.0)
    r, h = 0.7, 1e-5
    for theta in (0.4, 1.3, 2.5):
        ival = flow.poisson_kernel_integral(nu, r, math.sin(theta / 2) ** 2)
        fd = (fm.level_function(nu, theta + h, r)
              - fm.level_function(nu, theta - h, r)) / (2 * h)
        assert flow._angle_lhs_dtheta(
            ctx, np.array([r]), np.array([theta]), ival)[0] == pytest.approx(
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
        assert flow._radial_exponent(
            ctx, np.array([r]), np.array([theta]))[0] == pytest.approx(
            np.sum(terms), rel=1e-14, abs=1e-14 * np.sum(np.abs(terms)))


@given(logs=st.lists(st.integers(-300, 300), min_size=1, max_size=5,
                    unique=True),
       weights=st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
       pick=st.integers(0, 4), log_rel=st.floats(-12.0, -6.0),
       below=st.booleans(), log_theta=st.floats(-9.0, 0.0))
def test_atomic_poisson_kernel_near_the_pole_meets_the_mpmath_sum(
        logs, weights, pick, log_rel, below, log_theta):
    # r lies within 1e-12 to 1e-6 relative of a reciprocal atom, where
    # (1 - r*xi)^2 cancels; the 50-digit sum over the same floats bounds
    # the error by the kernel's own floor
    mpmath = pytest.importorskip("mpmath")
    w = np.array(weights[:len(logs)])
    nu = fm.atomic(list(zip(w / w.sum(), np.exp(np.array(logs) / 100))))
    w, a = nu.atoms()
    rel = (-1.0 if below else 1.0) * 10.0 ** log_rel
    r = float(1.0 / a[pick % a.size] * (1.0 + rel))
    s2 = math.sin(0.5 * 10.0 ** log_theta) ** 2
    with mpmath.workdps(50):
        u = [mpmath.mpf(r) * float(ak) for ak in a]
        exact = mpmath.fsum(float(wk) * uk / ((1 - uk) ** 2 + 4 * uk * s2)
                            for wk, uk in zip(w, u))
        err = abs(flow.poisson_kernel_integral(nu, r, s2) - exact) / exact
    assert err <= flow._kernel_rtol(1e-12, s2)


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


_DENSITY_STARTS = (
    st.builds(fm.gamma_measure, st.floats(0.5, 5.0), st.floats(0.2, 5.0)),
    st.builds(fm.log_normal, st.floats(-1.0, 1.0), st.floats(0.1, 1.5)),
    st.builds(lambda lo, d: fm.uniform_interval(lo, lo * (1 + d)),
              st.floats(0.1, 10.0), st.floats(1e-2, 4.0)),
)
_START_MEASURES = st.one_of(
    st.integers(2, 5).flatmap(lambda n: st.builds(
        _atoms, st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n,
                 unique_by=lambda a: round(a, 6)))),
    *_DENSITY_STARTS,
)


@given(nu=_START_MEASURES, t=st.floats(0.05, 20.0), pick=st.floats(0.0, 1.0),
       where=st.floats(0.0, 1.0),
       guess=st.floats(1e-9, math.pi, exclude_min=True, exclude_max=True))
def test_solve_angle_any_guess_meets_contract(nu, t, pick, where, guess):
    ctx = fm.FlowContext(nu, t)
    intervals = fm.blowup_region(ctx)
    lo, hi = intervals[min(int(pick * len(intervals)), len(intervals) - 1)]
    r = lo * (hi / lo) ** where
    u = float(flow._radial_points(ctx, np.array([r]), guess)[1][0])
    cold = fm.solve_angle(ctx, r)
    assert (u == 0.0) == (cold == 0.0)
    if u != 0.0:
        assert_angle_contract(ctx, r, u, cold)


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


@pytest.mark.parametrize("nu, parent_calls", [
    (fm.gamma_measure(2.0, 1.0), 2671), (fm.lambda_measure(math.pi / 2), 2569)],
    ids=["gamma", "lambda"])
def test_curve_levels_make_no_more_quadratures(monkeypatch, nu, parent_calls):
    # parent_calls: the same 128-point curve when each sample's angle solve
    # started from the extrapolation of the previous two along its component
    passes = _count_passes(monkeypatch)
    fm.density_curve(fm.FlowContext(nu, 1.0), points=128)
    assert 0 < len(passes) <= parent_calls


@pytest.mark.parametrize("nu, parent_calls", [
    (fm.gamma_measure(2.0, 1.0), 6683), (fm.lambda_measure(math.pi / 2), 6737)],
    ids=["gamma", "lambda"])
def test_curve_rows_stop_at_their_kernel_tolerance(monkeypatch, nu,
                                                   parent_calls):
    # parent_calls: the same 512-point curve when every density row asked
    # for the 1e-12 Newton step, which rows below theta ~ 1e-7 cannot meet
    # under the kernel's 1e-16/theta floor and ended on the bracket width
    passes = _count_passes(monkeypatch)
    solved = []
    solve = flow._radial_points

    def recorded(ctx, rs, guess=None):
        solved.append((rs, *solve(ctx, rs, guess)))
        return solved[-1][1:]
    monkeypatch.setattr(flow, "_radial_points", recorded)
    ctx = fm.FlowContext(nu, 1.0)
    fm.density_curve(ctx, points=512)
    assert 0 < len(passes) <= 0.75 * parent_calls
    # the residual each angle meets: max(_ANGLE_RESIDUAL, tau) / t, tau the
    # tolerance of the kernel sums at that angle
    for rs, _lam, us in solved:
        for r, u in zip(rs.tolist(), us.tolist()):
            if u > 0.0:
                tau = flow._kernel_rtol(flow._KERNEL_SUM_RTOL,
                                        math.sin(0.5 * u) ** 2)
                lhs = fm.level_function(nu, u, r, rtol=flow._KERNEL_SUM_RTOL)
                assert abs(lhs - 1.0 / ctx.t) <= max(flow._ANGLE_RESIDUAL,
                                                     tau) / ctx.t


@pytest.mark.parametrize("nu", [
    fm.lambda_measure(math.pi / 2), fm.boolean_stable(0.5),
    fm.marchenko_pastur(), fm.marchenko_pastur_inverse()],
    ids=["lambda", "boolean_stable", "marchenko_pastur", "mp_inverse"])
def test_blowup_scan_converges_in_the_seed_pass(monkeypatch, nu):
    # ladders anchored at the pole 1/r resolve the floor-angle Lorentzian
    # on heavy-tailed and square-root-edged starts without refinement: at
    # every radius of the scan, and at each quadrature the region still
    # makes where the pole term does not decide
    passes = _count_passes(monkeypatch)
    ctx = fm.FlowContext(nu, 1.0)
    flow.capped_blowup(ctx, _scan_radii(nu))
    assert len(passes) > 1000
    assert set(passes) == {1}
    passes.clear()
    fm.blowup_region(ctx)
    assert passes and set(passes) == {1}


def test_heavy_tailed_curve_barely_refines(monkeypatch):
    # 509 passes past the first: a quarter of the 2037 quadratures the
    # curve made when its blow-up scan ran one a radius
    passes = _count_passes(monkeypatch)
    fm.density_curve(fm.FlowContext(fm.lambda_measure(math.pi / 2), 1.0),
                     points=128)
    assert sum(passes) - len(passes) <= 509


@pytest.mark.parametrize("nu, most", [
    (fm.gamma_measure(2.0, 1.0), 1650), (fm.lambda_measure(math.pi / 2), 1300)],
    ids=["gamma", "lambda"])
def test_curve_region_tests_skip_far_inside_radii(monkeypatch, nu, most):
    # the pole term decides the scan radii and curve samples far inside the
    # blow-up region; 2167 and 2037 quadratures when each took one
    passes = _count_passes(monkeypatch)
    fm.density_curve(fm.FlowContext(nu, 1.0), points=128)
    assert 0 < len(passes) <= most


@pytest.mark.parametrize("x, parent_calls, value", [
    (0.5, 131, 0.4138499976053504), (2.0, 119, 0.12488123023335011),
    (8.0, 135, 0.024049212701594103)])
def test_density_reuses_the_inversion_angles(monkeypatch, x, parent_calls,
                                             value):
    # parent_calls and value: the same point when every angle solve of the
    # inversion started cold and the root's angle was solved again
    passes = _count_passes(monkeypatch)
    radii = []
    solve = flow._radial_points
    monkeypatch.setattr(flow, "_radial_points", lambda ctx, rs, guess=None: (
        radii.extend(rs.tolist()) or solve(ctx, rs, guess)))
    ctx = fm.FlowContext(fm.gamma_measure(2.0, 1.0), 1.0)
    assert fm.density(ctx, x) == pytest.approx(value, rel=1e-10)
    assert len(passes) <= 0.6 * parent_calls
    assert radii and len(set(radii)) == len(radii)  # none is solved twice


@given(n=st.integers(1, 12), decades=st.floats(0.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.05, 20.0))
def test_lockstep_angles_meet_the_scalar_contract(n, decades, seed, t):
    rng = np.random.default_rng(seed)
    locs = np.unique(10.0 ** (decades * (rng.random(n) - 0.5)))
    nu = _atoms(rng.uniform(0.05, 1.0, locs.size), locs)
    ctx = fm.FlowContext(nu, t)
    # every component's ends and interior, and radii off the region
    wlo, whi = flow.default_window(nu)
    rs = np.concatenate([np.geomspace(lo, hi, 7)
                         for lo, hi in fm.blowup_region(ctx)]
                        + [np.geomspace(wlo, whi, 5)])
    _lam, us = flow._radial_points(ctx, rs)
    for r, u in zip(rs.tolist(), us.tolist()):
        ref = bisect_angle(nu, t, r)
        assert (u == 0.0) == (ref == 0.0)
        if u != 0.0:
            assert_angle_contract(ctx, r, u, ref)


@given(nu=st.one_of(*_DENSITY_STARTS), t=st.floats(0.05, 20.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_density_lockstep_from_any_guesses_meets_the_contract(nu, t, seed):
    # each row starts from its own random guess, as the rows of a curve's
    # later levels start from their own interpolated angles
    rng = np.random.default_rng(seed)
    ctx = fm.FlowContext(nu, t)
    rs = np.concatenate([lo * (hi / lo) ** rng.random(3)
                         for lo, hi in fm.blowup_region(ctx)])
    guess = np.exp(rng.uniform(math.log(1e-9), math.log(math.pi), rs.size))
    _lam, us = flow._radial_points(ctx, rs, guess)
    for r, u in zip(rs.tolist(), us.tolist()):
        ref = bisect_angle(nu, t, r)
        assert (u == 0.0) == (ref == 0.0)
        if u != 0.0:
            assert_angle_contract(ctx, r, u, ref)


def test_lockstep_rows_are_independent(monkeypatch):
    # 3 rows of 30 atoms a chunk: the grid's atom sums span many chunks
    monkeypatch.setattr(measures, "_BATCH_NODES", 90)
    ctx = fm.FlowContext(fm.build_counterexample(30)[0], 1.0)
    lo, hi = fm.blowup_region(ctx)[-1]
    rs = np.concatenate([np.geomspace(lo, hi, 29), np.geomspace(1e-3, 1e8, 11)])
    lam, u = flow._radial_points(ctx, rs)
    assert np.count_nonzero(u) > 29
    for k, r in enumerate(rs.tolist()):
        alone = flow._radial_points(ctx, np.array([r]))
        assert (alone[0][0].tobytes(), alone[1][0].tobytes()) == (
            lam[k].tobytes(), u[k].tobytes())
        assert fm.solve_angle(ctx, r) == u[k]
        assert fm.radial_map(ctx, r) == lam[k]


def test_density_lockstep_rows_are_independent():
    # each row keeps its own guess: a radius solved alone from its guess is
    # bitwise the radius solved among others, as in a curve's later levels
    ctx = fm.FlowContext(fm.gamma_measure(2.0, 1.0), 1.0)
    (lo, hi), = fm.blowup_region(ctx)
    rs = np.geomspace(lo, hi, 7)
    guess = np.array([1.0, 0.3, 2.0, 1e-3, 0.7, 2.9, 0.05])
    lam, u = flow._radial_points(ctx, rs, guess)
    assert np.count_nonzero(u) >= 5
    for k, r in enumerate(rs.tolist()):
        alone = flow._radial_points(ctx, np.array([r]), float(guess[k]))
        assert (alone[0][0].tobytes(), alone[1][0].tobytes()) == (
            lam[k].tobytes(), u[k].tobytes())


def test_atomic_curve_makes_no_per_sample_atom_sum(monkeypatch):
    # solved one radius at a time, the 512 samples made about 9 scalar atom
    # sums each; now the region takes 36 batches, and the ends and the
    # samples one lockstep each, of 2 batches an iteration (49 here)
    calls, batches = [], []
    one, many = measures.Measure.integrate, measures.Atomic.integrate_rows
    monkeypatch.setattr(measures.Measure, "integrate",
                        lambda *a, **k: calls.append(1) or one(*a, **k))
    monkeypatch.setattr(measures.Atomic, "integrate_rows",
                        lambda *a, **k: batches.append(1) or many(*a, **k))
    curve = fm.density_curve(fm.FlowContext(fm.dirac(1.0), 1.0), points=512)
    assert curve.x.size == 512
    assert calls == []
    assert 0 < len(batches) <= 250


@pytest.mark.parametrize("nu, points", [
    (fm.build_counterexample(30)[0], 512), (fm.dirac(1.0), 512),
    (fm.gamma_measure(2.0, 1.0), 128), (fm.lambda_measure(math.pi / 2), 128)],
    ids=["cascade30", "dirac", "gamma", "lambda"])
def test_curve_support_holds_every_positive_sample(nu, points):
    curve = fm.density_curve(fm.FlowContext(nu, 1.0), points=points)
    outside = [x for x, q in zip(curve.x.tolist(), curve.q.tolist())
               if q > 0.0 and not curve.support.contains(x)]
    assert outside == []


def test_angle_monotone_decreasing_in_theta():
    rng = np.random.default_rng(11)
    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    for _ in range(20):
        r = float(rng.uniform(0.2, 3.0))
        thetas = np.sort(rng.uniform(0.01, math.pi - 0.01, 5))
        vals = [fm.level_function(ctx.nu, float(t), r)
                for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_flow_kernels_take_their_limits_where_the_denominator_overflows():
    # r * xi = 1e205: (1 - r*xi)^2 overflows, and the radial kernel tends
    # to 1 and the angle-slope kernel to 0 there
    ctx = fm.FlowContext(fm.dirac(1e200), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        r, theta = np.array([1e5]), np.array([0.5])
        assert flow._radial_exponent(ctx, r, theta)[0] == 1.0
        assert flow._angle_lhs_dtheta(ctx, r, theta, 0.0)[0] == 0.0


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


def _scan_radii(nu):
    """The radii `blowup_region` scanned when it took one quadrature a
    radius: 1024 log-spaced over the window, and the reciprocal atoms or 17
    log-spaced over the reciprocal support."""
    wlo, whi = flow.default_window(nu)
    at = nu.atoms()
    if at is None:
        mlo, mhi = nu.effective_support()
        plo, phi = max(1.0 / mhi, wlo), min(1.0 / mlo, whi)
        extra = np.geomspace(plo, phi, 17) if plo < phi else np.empty(0)
    else:
        extra = 1.0 / at[1]
        extra = extra[(extra > wlo) & (extra < whi)]
    return np.unique(np.concatenate([
        np.geomspace(wlo, whi, flow._SCAN_POINTS), extra]))


def _scalar_blowup_region(ctx):
    """Reference: the scan of `blowup_region` with one `capped_blowup` a
    radius (a scalar call each over atoms, one array call over a density,
    each value bitwise the scalar one), and each boundary bisected on its
    own."""
    wlo, whi = flow.default_window(ctx.nu)
    target = 1.0 / ctx.t
    scan = _scan_radii(ctx.nu)
    if ctx.nu.atoms() is None:
        above = (flow.capped_blowup(ctx, scan) > target).tolist()
    else:
        above = [flow.capped_blowup(ctx, float(r)) > target for r in scan]

    def refine(a, b, rising):
        lo, hi = float(a), float(b)
        for _ in range(200):
            if hi - lo <= 1e-12 * hi:
                break
            mid = math.sqrt(lo * hi)
            if (flow.capped_blowup(ctx, mid) > target) == rising:
                hi = mid
            else:
                lo = mid
        return hi if rising else lo

    bounds = [wlo] if above[0] else []
    for k in range(scan.size - 1):
        if above[k] != above[k + 1]:
            bounds.append(refine(scan[k], scan[k + 1], above[k + 1]))
    if above[-1]:
        bounds.append(whi)
    return list(zip(bounds[0::2], bounds[1::2]))


@given(n=st.integers(1, 12), decades=st.floats(0.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.05, 20.0))
def test_blowup_region_of_atoms_equals_the_scalar_scan(n, decades, seed, t):
    rng = np.random.default_rng(seed)
    locs = np.unique(10.0 ** (decades * (rng.random(n) - 0.5)))
    ctx = fm.FlowContext(_atoms(rng.uniform(0.05, 1.0, locs.size), locs), t)
    assert fm.blowup_region(ctx) == _scalar_blowup_region(ctx)


# every named family, and gapped grids: a zero run between jumps, and two
# bumps that fall to zero a decade apart
_NAMED_STARTS = {
    "lambda": fm.lambda_measure(math.pi / 2),
    "boolean_stable": fm.boolean_stable(0.5),
    "marchenko_pastur": fm.marchenko_pastur(),
    "mp_inverse": fm.marchenko_pastur_inverse(),
    "half_normal": fm.half_normal(1.0),
    "gamma": fm.gamma_measure(2.0, 1.0),
    "beta": fm.beta_measure(2.0, 2.0),
    "uniform": fm.uniform_interval(1.0, 1.1),
    "log_normal": fm.log_normal(0.0, 0.5),
}
_JUMP_GRID = fm.GridDensity([1.0, 1.5, 1.50001, 3.0, 3.00001, 4.0],
                            [1.0, 1.0, 0.0, 0.0, 1.0, 1.0], normalize=True)
_DENSITY_STARTS = {
    **_NAMED_STARTS,
    "jump_grid": _JUMP_GRID,
    "bump_grid": fm.GridDensity([0.5, 0.6, 0.7, 5.0, 6.0, 7.0],
                                [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                                normalize=True),
}


@pytest.mark.parametrize("t", [1e-3, 0.25, 1.0, 4.0, 50.0])
@pytest.mark.parametrize("nu", _DENSITY_STARTS.values(), ids=_DENSITY_STARTS)
def test_blowup_region_of_densities_equals_the_quadrature_scan(nu, t):
    ctx = fm.FlowContext(nu, t)
    assert fm.blowup_region(ctx) == _scalar_blowup_region(ctx)


_PREDICATE_STARTS = [*_NAMED_STARTS.values(), fm.beta_measure(0.5, 0.5),
                     _JUMP_GRID]


@settings(max_examples=50)
@given(start=st.integers(0, len(_PREDICATE_STARTS) - 1),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       t=st.floats(1e-3, 50.0))
def test_pole_term_decides_as_the_quadrature(start, where, t):
    # the region test that lets the pole term decide far-inside radii is
    # the floor-angle quadrature's, at random radii of the scan window, at
    # the reciprocal support ends and knots, and 1e-12 and 1e-7 from them:
    # within and well past the Lorentzian's half-width 1e-9
    nu = _PREDICATE_STARTS[start]
    lo, hi = flow.default_window(nu)
    ends = [*nu.effective_support(), *nu.math_support()]
    if isinstance(nu, fm.GridDensity):
        ends += nu.x.tolist()
    recips = 1.0 / np.array([e for e in ends if 0.0 < e < math.inf])
    rs = np.concatenate([lo * (hi / lo) ** np.array(where), recips,
                         *(recips * (1.0 + d) for d in (-1e-7, -1e-12, 1e-12,
                                                        1e-7))])
    ctx = fm.FlowContext(nu, t)
    assert (flow._in_blowup_region(ctx, rs).tolist()
            == (flow.capped_blowup(ctx, rs) > 1.0 / t).tolist())


def test_pole_term_near_a_singular_end_defers_to_the_quadrature():
    # within 1e-14 of beta(1/2, 1/2)'s singular end the density varies
    # across the Lorentzian, and p(1/r) alone overstates the floor-angle
    # sum 2.2e13 up to a thousandfold: the window's smallest density decides
    nu, t = fm.beta_measure(0.5, 0.5), 1e-14
    rs = 1.0 / np.array([1.0 - 1.9e-15, 1.0 - 3e-15, 1.0 - 1e-14])
    ctx = fm.FlowContext(nu, t)
    assert np.all(math.pi / flow.ANGLE_FLOOR / rs * nu.density(1.0 / rs)
                  > flow._POLE_TERM_MARGIN / t)
    assert not (flow.capped_blowup(ctx, rs) > 1.0 / t).any()
    assert not flow._in_blowup_region(ctx, rs).any()


def _radius_functions(ctx):
    """The five functions of one radius or an array of radii, at ctx."""
    return (lambda r: flow.capped_blowup(ctx, r),
            lambda r: fm.solve_angle(ctx, r),
            lambda r: fm.radial_map(ctx, r),
            lambda r: flow.poisson_kernel_integral(ctx.nu, r, 0.3),
            lambda r: fm.level_function(ctx.nu, 1.0, r))


@pytest.mark.parametrize("nu", [
    fm.build_counterexample(30)[0], fm.gamma_measure(2.0, 1.0),
    fm.GridDensity(np.linspace(1.0, 3.0, 41), np.full(41, 0.5))],
    ids=["atomic", "named", "grid"])
@given(where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       picks=st.lists(st.integers(0, 29), min_size=1, max_size=2),
       t=st.floats(0.2, 5.0))
def test_batched_blowup_predicate_is_the_scalar_one(nu, where, picks, t):
    # each radius function over an array is bitwise its scalar calls, which
    # return floats; radii span the scan window and reach the reciprocal
    # atoms (the support's ends for a density)
    at = nu.atoms()
    ends = np.array(nu.effective_support()) if at is None else at[1]
    lo, hi = flow.default_window(nu)
    rs = np.concatenate([lo * (hi / lo) ** np.array(where),
                         1.0 / ends[np.array(picks) % ends.size]])
    with pytest.MonkeyPatch.context() as mp:
        # 3 rows of 30 atoms a chunk: the atomic batch spans several chunks
        mp.setattr(measures, "_BATCH_NODES", 90)
        for fn in _radius_functions(fm.FlowContext(nu, t)):
            one = [fn(float(r)) for r in rs]
            assert all(type(v) is float for v in one)
            assert fn(rs).tobytes() == np.array(one).tobytes()


@pytest.mark.parametrize("fn", range(5), ids=[
    "capped_blowup", "solve_angle", "radial_map", "poisson_kernel_integral",
    "level_function"])
def test_radius_functions_reject_the_same_radii(fn):
    call = _radius_functions(fm.FlowContext(fm.dirac(1.0), 1.0))[fn]
    for bad in (math.nan, math.inf, 0.0, -1.0, np.array([1.0, math.nan])):
        with pytest.raises(DomainError, match="positive and finite"):
            call(bad)


@pytest.mark.parametrize("name, value", [
    ("x", 0.0), ("x", -1.0), ("x", math.inf), ("x", math.nan),
    ("x", 1e-320), ("y", 0.0), ("y", -1.0), ("y", math.inf), ("y", math.nan)])
def test_density_and_inverse_name_the_callers_value(name, value):
    # a subnormal x has no finite reciprocal radius
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    call = fm.density if name == "x" else fm.radial_map_inverse
    with pytest.raises(DomainError, match=rf"^{name} must be positive and "
                                          rf"finite.*, got {value}$"):
        call(ctx, value)


@pytest.mark.parametrize("c", [1e-200, 1e-160, 1e160, 1e200])
def test_blowup_region_scales_with_the_point_mass(c):
    # the midpoint of a bisection stays in range where lo * hi does not
    (lo1, hi1), = fm.blowup_region(fm.FlowContext(fm.dirac(1.0), 1.0))
    (lo, hi), = fm.blowup_region(fm.FlowContext(fm.dirac(c), 1.0))
    assert lo * c == pytest.approx(lo1, rel=1e-11)
    assert hi * c == pytest.approx(hi1, rel=1e-11)


def test_huge_point_mass_runs_without_overflow_warnings():
    # r*xi = 1e205 at r = 1e5: the kernels take their limits silently, and
    # the map is exactly r * e^{t/2} off the region
    ctx = fm.FlowContext(fm.dirac(1e200), 1.0)
    assert flow.radial_map(ctx, 1e5) == 1e5 * math.exp(0.5)
    one = fm.FlowContext(fm.dirac(1.0), 1.0)
    assert fm.density(ctx, 1e200) == pytest.approx(
        fm.density(one, 1.0) / 1e200, rel=1e-9)
    (lo, hi), = fm.blowup_region(ctx)
    assert lo < 1e-200 < hi


def test_public_calls_on_a_huge_point_mass_run_without_warnings():
    # r*xi = 1e205: (1 - r*xi)^2 overflows inside each call
    ctx = fm.FlowContext(fm.dirac(1e200), 1.0)
    assert fm.solve_angle(ctx, 1e5) == 0.0
    assert 0.0 <= flow.poisson_kernel_integral(ctx.nu, 1e5, 0.1) < 1e-200
    assert 0.0 <= flow.capped_blowup(ctx, 1e5) < 1e-200


def test_atoms_308_decades_apart_keep_both_components():
    # r*xi overflows to inf near r = 1e200, where the Poisson kernel tends
    # to 0 and the atom at 1e-200 alone gives f = r*1e-200 / (1 - r*1e-200)^2
    nu = fm.atomic([(0.5, 1e-200), (0.5, 1e200)])
    (lo1, hi1), (lo2, hi2) = fm.blowup_region(fm.FlowContext(nu, 1.0))
    assert (lo1, hi1) == pytest.approx((5e-201, 2e-200), rel=1e-11)
    assert (lo2, hi2) == pytest.approx((5e199, 2e200), rel=1e-11)
    cert = fm.gap_certificate(nu, 1.0, 1)
    assert cert.midpoint == pytest.approx(5e199, rel=1e-15)
    assert cert.f_value == pytest.approx(1.0, rel=1e-15)


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



def test_density_at_a_large_time_raises_no_overflow_warning():
    # the bracket probes of Lambda^-1 overflow to inf far from the root; the
    # test settings make a freemult RuntimeWarning an error
    ctx = fm.FlowContext(fm.atomic([(0.5, 1.0), (0.5, 16.0)]), 1e4)
    assert fm.density(ctx, 1.0) == 9.993753903743486e-05


@pytest.mark.parametrize("t", [100.0, 400.0])
def test_density_far_inside_the_support_at_large_times(t):
    # Lambda(r)/r reaches about e^{+-t/2}, so the root lies up to
    # t/(2 ln 2) doublings beyond the time-0 bracket budget of 60; dirac(1)
    # is log-symmetric, x q(x) = (1/x) q(1/x)
    ctx = fm.FlowContext(fm.dirac(1.0), t)
    hi = 1e20 * fm.density(ctx, 1e20)
    assert hi > 0.0
    assert 1e-20 * fm.density(ctx, 1e-20) == pytest.approx(hi, rel=1e-15)


def test_density_of_dirac_at_time_one_is_pinned():
    # the larger bracket budget leaves a bracket found within 60 doublings,
    # and so the value, bitwise as it was
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    assert fm.density(ctx, 1.0) == 0.30563761117075666


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_bracket_search_stops_typed_at_the_float_range(sign):
    # g keeps one sign: the doublings (halvings) reach inf (0), which is a
    # BracketFailure, and no probe outside the positive floats is solved
    probes = []
    with pytest.raises(BracketFailure, match="float range"):
        flow._expand_bracket(lambda r: probes.append(r) or sign, 1.0, 5000)
    assert all(0.0 < r < math.inf for r in probes) and len(probes) > 1000


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


@pytest.mark.parametrize("t", [0.1, 0.12])
def test_curve_samples_each_component_of_a_split_support(t):
    # the components of 1/2 delta_1 + 1/2 delta_2 are 0.03 (t = 0.1) and
    # 4e-4 (t = 0.12) apart in x; each takes its own radii, however narrow
    # the gap
    ctx = fm.FlowContext(fm.atomic([(0.5, 1.0), (0.5, 2.0)]), t)
    curve = fm.density_curve(ctx, points=128)
    assert len(curve.support) == len(fm.blowup_region(ctx)) == 2
    assert curve.mass() == pytest.approx(1.0, abs=2e-3)


@example(atoms=[(0.5, 1.0), (0.5, 2.0)], t=0.1)
@example(atoms=[(0.5, 1.0), (0.5, 2.0)], t=0.12)
@given(atoms=st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(1.0, 8.0)),
                      min_size=2, max_size=4, unique_by=lambda p: p[1]),
       t=st.floats(0.01, 1.0))
def test_curve_has_a_component_for_each_blowup_component(atoms, t):
    total = sum(w for w, _ in atoms)
    ctx = fm.FlowContext(fm.atomic([(w / total, a) for w, a in atoms]), t)
    curve = fm.density_curve(ctx, points=256)
    assert len(curve.support) == len(fm.blowup_region(ctx))
    assert curve.mass() == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("nu, t", [(fm.dirac(1.0), 1e-20),
                                  (fm.gamma_measure(2.0, 1.0), 1e-10)],
                         ids=["dirac", "gamma"])
def test_curve_of_an_empty_blow_up_region_is_a_numeric_failure(nu, t):
    # the true region is never empty for t > 0: the floor-angle predicate
    # saturates near 1e18 for atoms and far lower for densities, so an
    # empty scan is a failure of the instrument, not a zero density
    with pytest.raises(EmptyVSet):
        fm.density_curve(fm.FlowContext(nu, t), points=128)


def test_curve_mass_and_mean_skip_the_support_gaps():
    # at t = 1e-6 the 30 components are narrow and x*q at their end samples
    # is large: trapezoids from an end sample to a gap's zero read 1.0116
    # for the mass and 0.7% over e^{t/2} mean(nu) for the mean
    nu, _spec = fm.build_counterexample(30)
    t = 1e-6
    curve = fm.density_curve(fm.FlowContext(nu, t), points=512)
    assert len(curve.support) == 30
    assert curve.mass() == pytest.approx(1.0, abs=1e-3)
    assert curve.mean() == pytest.approx(math.exp(t / 2) * nu.mean(), rel=1e-3)


def test_curve_point_count_floor():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    with pytest.raises(DomainError):
        fm.density_curve(ctx, points=32)


def test_flow_context_validation():
    with pytest.raises(InvariantViolation):
        fm.FlowContext(fm.dirac(1.0), -1.0)
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(InvariantViolation):
            fm.FlowContext(fm.dirac(1.0), t)


def test_residual_contract_sampled():
    for nu, t in ((fm.dirac(1.0), 4.0), (fm.uniform_interval(1, 2), 0.7),
                  (fm.atomic([(0.5, 1.0), (0.5, 4.0)]), 2.0)):
        ctx = fm.FlowContext(nu, t)
        for r in np.geomspace(0.2, 5.0, 12):
            u = fm.solve_angle(ctx, float(r))
            if u > 0.0:
                lhs = fm.level_function(ctx.nu, u, float(r),
                                        rtol=flow._KERNEL_SUM_RTOL)
                resid = abs(lhs - 1.0 / t)
                assert resid <= flow._ANGLE_RESIDUAL / t


def test_support_set_invariants():
    with pytest.raises(InvariantViolation):
        fm.SupportSet(((1.0, 2.0), (1.5, 3.0)))
    with pytest.raises(InvariantViolation):
        fm.SupportSet(((-1.0, 2.0),))
    s = fm.SupportSet(((0.5, 1.0), (2.0, 3.0)))
    assert len(s) == 2
    assert s.contains(0.7) and not s.contains(1.5)
