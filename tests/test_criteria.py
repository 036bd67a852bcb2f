import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import freemult as fm
from freemult import criteria, flow
from freemult.errors import (
    DomainError,
    HypothesisViolated,
    IndexOutOfRange,
)


# ---------------------------------------------------------------------------
# level function and solution counting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", [flow, criteria], ids=["flow", "criteria"])
def test_no_public_function_takes_a_time(module):
    # the time of a marginal enters through its FlowContext, which checks it
    # once; a function taking (nu, t) would need a time check of its own
    public = [f for name, f in inspect.getmembers(module, inspect.isfunction)
              if not name.startswith("_") and f.__module__ == module.__name__]
    assert public
    takes_t = [f.__name__ for f in public
               if "t" in inspect.signature(f).parameters]
    assert takes_t == []


def test_level_function_point_mass_peak():
    # sin(R)/R * r/(1 + r^2 - 2 r cos R); at R = pi/2, r = 1 this is 1/pi
    val = fm.level_function(fm.dirac(1.0), math.pi / 2, 1.0)
    assert val == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_level_function_vanishes_at_both_ends():
    nu = fm.uniform_interval(1, 2)
    assert fm.level_function(nu, 1.0, 1e-7) < 1e-6
    assert fm.level_function(nu, 1.0, 1e7) < 1e-6


def test_count_solutions_two_roots():
    # level 1/(2 pi) is below the peak 1/pi: roots at 2 +- sqrt(3)
    ctx = fm.FlowContext(fm.dirac(1.0), 2 * math.pi)
    sol = fm.count_level_solutions(ctx, math.pi / 2)
    assert sol.count == 2
    assert not sol.boundary
    assert sol.roots[0] == pytest.approx(2 - math.sqrt(3), rel=1e-9)
    assert sol.roots[1] == pytest.approx(2 + math.sqrt(3), rel=1e-9)


def test_count_solutions_no_roots():
    sol = fm.count_level_solutions(fm.FlowContext(fm.dirac(1.0), 2.0),
                                   math.pi / 2)
    assert sol.count == 0
    assert sol.effective_count == 0


def test_count_solutions_tangency():
    # peak value exactly equals the level: one location, flagged boundary,
    # conservatively worth two solutions
    sol = fm.count_level_solutions(fm.FlowContext(fm.dirac(1.0), math.pi),
                                   math.pi / 2)
    assert sol.count == 1
    assert sol.boundary
    assert sol.effective_count == 2
    assert sol.roots[0] == pytest.approx(1.0, abs=1e-6)


def test_count_solutions_polishes_a_pair_between_grid_neighbours():
    # dirac(1) at R = pi/2 just above t = pi: both roots c -+ sqrt(c^2 - 1)
    # lie within one grid step of the peak, which the profile sees below
    # the level; the tangency pass brackets and polishes each of them
    t = math.pi * (1.0 + 1e-7)
    sol = fm.count_level_solutions(fm.FlowContext(fm.dirac(1.0), t),
                                   math.pi / 2)
    c = t / math.pi
    assert (sol.count, sol.effective_count, sol.boundary) == (2, 2, False)
    assert sol.roots == pytest.approx((c - math.sqrt(c * c - 1),
                                       c + math.sqrt(c * c - 1)), rel=1e-9)


def test_count_solutions_polishes_a_pair_a_coarse_grid_samples_below():
    # dirac(1) at R = pi/2, t = pi (1 + 1e-3), grid 64: the sampled maximum
    # lies 1.6e-3 relative below the level, beyond the 1e-5/t screen, but
    # within twice the rise of the parabola through it and its neighbours
    t = math.pi * (1.0 + 1e-3)
    sol = fm.count_level_solutions(fm.FlowContext(fm.dirac(1.0), t),
                                   math.pi / 2, grid=64)
    c = t / math.pi
    assert (sol.count, sol.effective_count, sol.boundary) == (2, 2, False)
    assert sol.roots == pytest.approx((c - math.sqrt(c * c - 1),
                                       c + math.sqrt(c * c - 1)), rel=1e-9)


@pytest.mark.parametrize("grid", [4096, 16384])
def test_count_solutions_in_a_narrow_four_root_band(grid):
    # 1/2 delta_1 + 1/2 delta_13.9 at 0.99 t*: R is the middle of a band of
    # angles 2.2e-11 wide with four roots.  The profile's three extrema sit
    # within _TANGENT_TOL of the level, but each lies on the crossing side
    # with its pair beyond its grid neighbours, found by the flips: none
    # adds a root or a tangency
    nu = fm.atomic([(0.5, 1.0), (0.5, 13.9)])
    sol = fm.count_level_solutions(fm.FlowContext(nu, 251.045334153251),
                                   3.06830292268131, grid=grid)
    assert (sol.count, sol.effective_count, sol.boundary) == (4, 4, False)


@pytest.mark.parametrize("t, window", [(200.0, (0.0025, 400.0)),
                                       (1000.0, (0.000625, 1600.0))],
                         ids=["t200", "t1000"])
def test_count_solutions_widens_the_default_window(t, window):
    # dirac(1) at R = pi/2: the level (2/pi) r / (1 + r^2) = 1/t is met at
    # r = t/pi +- sqrt(t^2/pi^2 - 1), beyond the default window (0.01, 100),
    # which widens by 4 a step
    sol = fm.count_level_solutions(fm.FlowContext(fm.dirac(1.0), t),
                                   math.pi / 2)
    assert sol.window == window
    assert sol.count == 2
    c = t / math.pi
    assert sol.roots == pytest.approx((c - math.sqrt(c * c - 1),
                                       c + math.sqrt(c * c - 1)), rel=1e-9)


@pytest.mark.parametrize("R", [0.0, -1.0, math.pi, 4.0, math.nan])
@pytest.mark.parametrize("nu", [fm.dirac(1.0), fm.gamma_measure(2, 1)],
                         ids=["dirac", "gamma"])
def test_count_solutions_rejects_angles_outside_the_domain(nu, R, monkeypatch):
    # the angle is checked where it enters, before any profile is built
    monkeypatch.setattr(criteria, "_level_profile", _per_point)
    ctx = fm.FlowContext(nu, 1.0)
    with pytest.raises(DomainError, match=r"R must be in \(0, pi\)"):
        fm.count_level_solutions(ctx, R)
    with pytest.raises(DomainError, match=r"R must be in \(0, pi\)"):
        fm.sweep_level_counts(ctx, angles=[1.0, R])
    with pytest.raises(DomainError, match=r"R must be in \(0, pi\)"):
        fm.level_function(nu, R, 1.0)


def test_level_profiles_reject_coarse_grids():
    nu = fm.uniform_interval(1, 1.1)
    for grid in (63, 1, 0, -5):
        with pytest.raises(DomainError):
            fm.count_level_solutions(fm.FlowContext(nu, 22.0), 1.0, grid=grid)


def _profile_matches_level_function(nu, R, picks):
    wlo, whi = criteria._default_level_window(nu)
    r, vals = criteria._level_profile(nu, R, wlo, whi, 4096)
    # the lattice covers the window with at least `grid` points
    assert r.size >= 4096 and r[0] == wlo and r[-1] >= whi * (1 - 1e-12)
    assert np.all(np.diff(np.log(r)) <= math.log(whi / wlo) / 4095 * (1 + 1e-9))
    idx = (np.asarray(picks) * (r.size - 1)).astype(int)
    ref = np.array([fm.level_function(nu, R, float(r[i])) for i in idx])
    assert np.max(np.abs(vals[idx] - ref)) <= 1e-9 * np.max(vals)


_LATTICE_MEASURES = st.one_of(
    st.builds(lambda lo, d: fm.uniform_interval(lo, lo * (1 + d)),
              st.floats(0.1, 10.0), st.floats(1e-3, 1.0)),
    st.builds(fm.log_normal, st.floats(-2.0, 2.0), st.floats(0.1, 1.5)),
    st.builds(fm.gamma_measure, st.floats(2.0, 5.0), st.floats(0.2, 5.0)),
)


@given(nu=_LATTICE_MEASURES, R=st.floats(0.01, math.pi - 0.01),
       picks=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_lattice_profile_matches_level_function(nu, R, picks):
    _profile_matches_level_function(nu, R, picks)


def _per_point(*args, **kwargs):
    raise AssertionError("per-point route taken")


def test_narrow_support_profile_sums_directly(monkeypatch):
    # uniform(1, 1 + d) below d of about 0.01: the direct sum over the 513
    # Simpson nodes is cheaper than the FFT over the radii's lattice, which
    # for d in [0.00225, 0.0045) holds more than 2^20 samples
    calls = []
    sums = criteria._direct_sums
    monkeypatch.setattr(criteria, "_direct_sums",
                        lambda *a: calls.append(a[0].size) or sums(*a))
    monkeypatch.setattr(criteria, "level_function", _per_point)
    for d in (0.001, 0.003, 0.005):
        for R in (0.01, 1.0, math.pi - 0.01):
            _profile_matches_level_function(fm.uniform_interval(1, 1 + d), R,
                                            (0.0, 0.4997, 0.5, 0.61, 1.0))
    assert len(calls) == 9 and min(calls) >= 4096
    # a wider support goes through the FFT correlation
    _profile_matches_level_function(fm.uniform_interval(1, 1.1), 1.0, (0.5,))
    assert len(calls) == 9


def test_wide_support_profile_stays_on_lattice(monkeypatch):
    # lambda(1) spans about 53 in log xi, so at R = 0.01 the profile needs
    # 53401 Simpson nodes: the lattice holds them, no point is solved alone
    monkeypatch.setattr(criteria, "level_function", _per_point)
    _profile_matches_level_function(fm.lambda_measure(1.0), 0.01,
                                    (0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0))


def test_profile_beyond_the_node_cap_solves_each_radius(monkeypatch):
    # lambda(1) at R = 1e-5 needs 5.3e7 Simpson nodes, beyond _LATTICE_MAX:
    # one level_function call solves all the radii
    calls = []
    monkeypatch.setattr(criteria, "level_function",
                        lambda nu, R, r, rtol: calls.append(r) or np.ones(r.size))
    r, vals = criteria._level_profile(fm.lambda_measure(1.0), 1e-5, 0.5, 2.0, 64)
    assert len(calls) == 1 and calls[0].tolist() == r.tolist()
    assert r.size == 64 and np.all(vals == 1.0)


def test_count_solutions_evaluates_each_radius_once(monkeypatch):
    radii = []
    level = criteria.level_function
    monkeypatch.setattr(criteria, "level_function",
                        lambda nu, R, r, **kw: radii.append(r) or level(nu, R, r, **kw))
    sol = criteria.count_level_solutions(
        fm.FlowContext(fm.uniform_interval(1, 1.1), 22.0), 1.0)
    assert sol.count == 2
    assert radii and len(radii) == len(set(radii))


def test_profile_rejects_overflowing_kernel_arguments():
    # boolean_stable(0.055) reaches 1.4e218, and its window 4e165: r * xi
    # leaves the float range, where the profile would read nan
    nu = fm.boolean_stable(0.055)
    with pytest.raises(DomainError, match="overflows"):
        criteria.count_level_solutions(fm.FlowContext(nu, 1.0), 1.0)


def test_profile_of_a_support_wider_than_the_float_ratio():
    # boolean_stable(0.07) spans [4e-172, 2e171]: hi / lo overflows, the
    # difference of the logs does not
    nu = fm.boolean_stable(0.07)
    lo, hi = nu.effective_support()
    assert hi / lo == math.inf
    _profile_matches_level_function(nu, 1.0, (0.3, 0.5, 0.7))


def test_default_angle_sweep_shape():
    angles = fm.criteria.default_angle_sweep()
    assert angles.size == 64
    assert np.all((angles > 0) & (angles < math.pi))


def test_angle_sweep_has_the_count_asked_for():
    for n in range(2, 66):
        angles = fm.criteria.default_angle_sweep(n)
        assert angles.size == n
        assert np.all((angles > 0) & (angles < math.pi))
        assert np.allclose(math.pi - angles[::-1], angles, rtol=0, atol=1e-15)


def test_angle_sweep_needs_two_angles():
    assert fm.criteria.default_angle_sweep(2).size == 2
    for n in (1, 0):
        with pytest.raises(DomainError):
            fm.criteria.default_angle_sweep(n)
    with pytest.raises(DomainError):
        fm.sweep_level_counts(fm.FlowContext(fm.dirac(1.0), 1.0), angles=[])


def test_sweep_counts_symmetric_measure():
    report = fm.sweep_level_counts(fm.FlowContext(fm.dirac(1.0), 1.0),
                                   angles=np.linspace(0.2, math.pi - 0.2, 12))
    assert report.log_unimodal
    assert all(c <= 2 for c in report.effective_counts)


# ---------------------------------------------------------------------------
# interval time threshold
# ---------------------------------------------------------------------------

def test_time_threshold_value():
    lo, hi = 1.0, 1.1
    direct = 2 * hi ** 2 * (lo + hi) ** 2 * math.pi / math.sqrt(
        4 * lo ** 6 * hi ** 2 - (3 * lo ** 4 - hi ** 4) ** 2)
    assert fm.time_threshold(1.0, 1.1) == pytest.approx(direct, rel=1e-15)
    assert direct == pytest.approx(21.2857749734, rel=1e-9)


def test_time_threshold_hypothesis():
    with pytest.raises(HypothesisViolated):
        fm.time_threshold(1.0, 2.0)  # 16 - 3 = 13 >= 4
    # (hi/lo)^4 would overflow, hi^4 and lo^4 do, and hi/lo itself does
    for lo, hi in ((1.0, 1e100), (1e200, 1e201), (1e-300, 1e300)):
        with pytest.raises(HypothesisViolated):
            fm.time_threshold(lo, hi)
    with pytest.raises(DomainError):
        fm.time_threshold(1.1, 1.0)


@given(lo=st.floats(0.5, 2.0), rho=st.floats(1.01, 1.5),
       c=st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e))
def test_time_threshold_depends_on_the_support_ratio_alone(lo, rho, c):
    # hi/lo fixes the threshold, at any scale of the support a float holds
    want = fm.time_threshold(lo, lo * rho)
    assert fm.time_threshold(c * lo, c * (lo * rho)) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(1e60, 1.1e60), (1e-60, 1.1e-60),
                                    (1e-100, 1.1e-100), (3.0, 3.3)])
def test_time_threshold_at_scales_beyond_the_fourth_power(lo, hi):
    # lo^6 hi^2 overflows at 1e60, underflows to 0 at 1e-60, and every
    # term underflows at 1e-100: the ratio 1.1 gives the threshold of (1, 1.1)
    assert fm.time_threshold(lo, hi) == pytest.approx(
        fm.time_threshold(1.0, 1.1), rel=1e-14)
    with pytest.raises(HypothesisViolated):
        fm.time_threshold(lo, 2 * hi)


def test_time_threshold_diverges_at_hypothesis_boundary():
    # hi^4 - 3 lo^4 -> 2 lo^3 hi from below sends the bound to infinity
    def hi_at(margin):
        from scipy import optimize
        return optimize.brentq(
            lambda b: b ** 4 - 3.0 - 2.0 * b * (1 - margin), 1.0, 2.0)

    vals = [fm.time_threshold(1.0, hi_at(m)) for m in (0.1, 0.001, 1e-5)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 50 * vals[0]


def test_reciprocal_interval_check_at_threshold():
    nu = fm.uniform_interval(1.0, 1.1)
    assert fm.reciprocal_interval_check(
        fm.FlowContext(nu, fm.time_threshold(1.0, 1.1)))
    assert fm.reciprocal_interval_check(fm.FlowContext(nu, 22.0))


def test_reciprocal_interval_check_degenerate_support():
    # equal endpoints: no angle passes the cosine cut, vacuously true
    assert fm.reciprocal_interval_check(fm.FlowContext(fm.dirac(1.0), 5.0))
    # an unbounded support has no reciprocal block
    for nu in (fm.gamma_measure(2, 1), fm.log_normal(0, 1)):
        with pytest.raises(DomainError, match="bounded interval"):
            fm.reciprocal_interval_check(fm.FlowContext(nu, 1.0))


def test_reciprocal_interval_check_fails_at_a_small_time():
    # at t = 0.1 the level 1/t = 10 lies above Theta_R on the reciprocal
    # block, which the check reports; by t = 30 it lies below
    nu = fm.uniform_interval(1.0, 1.1)
    assert fm.reciprocal_interval_check(fm.FlowContext(nu, 0.1)) is False
    assert fm.reciprocal_interval_check(fm.FlowContext(nu, 30.0)) is True


def test_reciprocal_interval_check_at_any_scale():
    # the cosine cut depends on hi/lo alone
    for c in (1e-100, 1e60):
        nu = fm.uniform_interval(c, 1.1 * c)
        assert fm.reciprocal_interval_check(fm.FlowContext(nu, 22.0))
        assert not fm.reciprocal_interval_check(fm.FlowContext(nu, 0.1))
    # (hi/lo)^4 overflows: every angle passes the cut
    wide = fm.atomic([(0.5, 1.0), (0.5, 1e100)])
    assert isinstance(fm.reciprocal_interval_check(fm.FlowContext(wide, 1.0)),
                      bool)


def test_reciprocal_interval_check_below_threshold_is_raw():
    # one-directional statement: below the threshold the raw boolean is
    # whatever the grid says; it must at least be a bool
    out = fm.reciprocal_interval_check(
        fm.FlowContext(fm.uniform_interval(1, 1.1), 2.0))
    assert isinstance(out, bool)


# ---------------------------------------------------------------------------
# classical multiplicative convolution
# ---------------------------------------------------------------------------

def test_convolve_unit_atom_is_identity():
    nu = fm.gamma_measure(2, 1)
    assert fm.mult_convolve(nu, fm.dirac(1.0)) is nu
    assert fm.mult_convolve(fm.dirac(1.0), nu) is nu


def test_convolve_atoms():
    out = fm.mult_convolve(fm.dirac(2.0), fm.dirac(3.0))
    assert [v.tolist() for v in out.atoms()] == [[1.0], [6.0]]
    two = fm.mult_convolve(fm.atomic([(0.5, 1.0), (0.5, 2.0)]),
                           fm.atomic([(0.5, 2.0), (0.5, 4.0)]))
    assert [v.tolist() for v in two.atoms()] == [[0.25, 0.5, 0.25], [2.0, 4.0, 8.0]]


def test_convolve_lognormals_closed_form():
    out = fm.mult_convolve(fm.log_normal(0, 1), fm.log_normal(0, 1))
    ref = fm.log_normal(0.0, math.sqrt(2.0))
    xs = out.x
    sup = float(np.max(np.abs(np.asarray(out.density(xs))
                              - np.asarray(ref.density(xs)))))
    assert sup <= 1e-3 * float(np.max(np.asarray(ref.density(xs))))


def test_convolve_symmetric_unimodal_fixtures():
    for mu, nu in ((fm.lambda_measure(2.0), fm.lambda_measure(math.pi / 2)),
                   (fm.log_normal(0, 1), fm.lambda_measure(1.0))):
        out = fm.mult_convolve(mu, nu)
        assert fm.is_mult_symmetric(out, 1e-3)
        assert fm.is_log_unimodal(out).verdict == "unimodal"


def test_convolve_atom_mixture_with_density():
    out = fm.mult_convolve(fm.atomic([(0.5, 1.0), (0.5, 2.0)]),
                           fm.uniform_interval(1, 2))
    assert out.kind == "grid"
    # mixture of dilations: 0.5 * u(x) + 0.25 * u(x/2) with u = 1 on [1, 2]
    assert float(out.density(1.7)) == pytest.approx(0.5, rel=1e-3)
    assert float(out.density(2.5)) == pytest.approx(0.25, rel=1e-3)
    assert float(out.density(1.5)) == pytest.approx(0.5, rel=1e-3)


# ---------------------------------------------------------------------------
# the convolution-route left-hand side
# ---------------------------------------------------------------------------

def test_scaled_convolution_identity():
    rng = np.random.default_rng(17)
    nus = [fm.uniform_interval(1, 2), fm.lambda_measure(math.pi / 2), fm.dirac(1.0)]
    for i in range(9):
        nu = nus[i % 3]
        t = float(rng.uniform(0.3, 3.0))
        a = float(rng.uniform(0.05, 0.95)) / t * 1.0
        r = float(rng.uniform(0.2, 3.0))
        B = a * math.pi * t
        lhs = fm.scaled_convolution_density(fm.FlowContext(nu, t), a, r)
        rhs = fm.level_function(nu, B, r) * B / math.sin(B)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_scaled_convolution_matches_log_grid_convolution():
    # independent route: realize the convolution on the log grid and compare
    # its density against the kernel-integral form
    nu = fm.uniform_interval(1, 2)
    a, t = 0.25, 2.0
    B = a * math.pi * t
    c_b = math.sin(B) / (math.pi - B)
    conv = fm.mult_convolve(fm.lambda_measure(B), nu.invert())
    ctx = fm.FlowContext(nu, t)
    worst = 0.0
    for r in np.geomspace(0.2, 5.0, 40):
        via_kernel = fm.scaled_convolution_density(ctx, a, float(r))
        via_grid = float(r) / c_b * float(conv.density(float(r)))
        worst = max(worst, abs(via_kernel - via_grid))
    assert worst <= 2e-3


def test_scaled_convolution_domain():
    with pytest.raises(DomainError):
        fm.scaled_convolution_density(fm.FlowContext(fm.dirac(1.0), 2.0),
                                      2.0, 1.0)  # B >= pi


def test_solution_count_equality_of_both_routes():
    # the convolution-route equation and the level equation have identical
    # solution sets
    rng = np.random.default_rng(23)
    nus = [fm.uniform_interval(1, 2), fm.dirac(1.0)]
    for i in range(6):
        nu = nus[i % 2]
        t = float(rng.uniform(0.5, 4.0))
        a = float(rng.uniform(0.1, 0.9)) / t
        B = a * math.pi * t
        ctx = fm.FlowContext(nu, t)
        sol = fm.count_level_solutions(ctx, B, grid=2048)
        level2 = a * math.pi / math.sin(B)
        r = np.geomspace(sol.window[0], sol.window[1], 2048)
        vals2 = np.array([fm.scaled_convolution_density(ctx, a, float(rr))
                          for rr in r]) - level2
        count2 = int(np.sum(np.sign(vals2[:-1]) * np.sign(vals2[1:]) < 0))
        assert count2 == sol.count


# ---------------------------------------------------------------------------
# counterexample builder and gap certificates
# ---------------------------------------------------------------------------

def test_build_counterexample_quantities():
    nu, spec = fm.build_counterexample(30)
    assert spec.n_atoms == 30
    assert spec.partial_sum_w_over_a < 315.0 / (2.0 * math.pi ** 4)
    assert spec.ratios_decreasing
    assert spec.ratios[-1] < spec.ratios[0] < 0.1
    assert nu.atoms()[0].sum() == pytest.approx(1.0, abs=1e-12)
    # midpoints sit between consecutive reciprocal locations
    locs = spec.locations
    for k in range(1, 29):
        assert 1.0 / locs[k - 1] < spec.midpoints[k - 1] < 1.0 / locs[k]
    for n in (2, 0):
        with pytest.raises(DomainError, match="at least 3 atoms"):
            fm.build_counterexample(n)


def test_build_counterexample_ratio_example():
    _nu, spec = fm.build_counterexample(12)
    a10, a11 = 10.0 ** -4, 11.0 ** -4
    expect = a10 * a11 * (a10 + a11) / (a10 - a11) ** 2
    assert spec.ratios[9] == pytest.approx(expect, rel=1e-12)


def test_build_counterexample_inverted_variant():
    nu, _spec = fm.build_counterexample(8)
    inv = nu.invert()
    locations = inv.atoms()[1].tolist()
    assert locations == [float(k) ** 4 for k in range(1, 9)]


def test_gap_certificates():
    nu, _spec = fm.build_counterexample(30)
    for t in (0.5, 1.0, 2.0, 100.0):
        ctx = fm.FlowContext(nu, t)
        found = False
        for k in range(1, 30):
            cert = fm.gap_certificate(ctx, k)
            if cert.below:
                found = True
                assert cert.f_value < 1.0 / t
                # the region still contains the adjacent reciprocal atoms
                for a in _spec.locations[k - 1:k + 1]:
                    assert flow.capped_blowup(ctx, 1.0 / a) > 1.0 / t
                break
        assert found


@pytest.mark.parametrize("n", [5, 12, 30])
def test_gap_certificates_agree_with_blowup_region(n):
    # certificates and the blow-up region evaluate one predicate: a certified
    # midpoint lies in no component, the adjacent reciprocal atoms in some
    nu, spec = fm.build_counterexample(n)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        ctx = fm.FlowContext(nu, t)
        comps = fm.blowup_region(ctx)
        inside = lambda r: any(lo < r < hi for lo, hi in comps)
        certified = [c for c in (fm.gap_certificate(ctx, k)
                                 for k in range(1, n)) if c.below]
        assert certified
        for cert in certified:
            assert not inside(cert.midpoint)
            assert inside(1.0 / spec.locations[cert.k - 1])
            assert inside(1.0 / spec.locations[cert.k])


def test_cascade_level_counts_exceed_two():
    # the disconnected-support fixture must fail the at-most-two criterion
    # at some angle, matching the not-unimodal curve verdict
    nu, _spec = fm.build_counterexample(10)
    ctx = fm.FlowContext(nu, 1.0)
    counts = [fm.count_level_solutions(ctx, R, grid=4096).effective_count
              for R in (0.05, 0.1, 0.2)]
    assert max(counts) > 2


def test_gap_certificate_index_bounds():
    single = fm.atomic([(1.0, 1.0)])
    with pytest.raises(IndexOutOfRange):
        fm.gap_certificate(fm.FlowContext(single, 1.0), 1)
    nu, _ = fm.build_counterexample(5)
    with pytest.raises(IndexOutOfRange):
        fm.gap_certificate(fm.FlowContext(nu, 1.0), 5)
    with pytest.raises(DomainError):
        fm.gap_certificate(fm.FlowContext(fm.uniform_interval(1, 2), 1.0), 1)
