import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import freemult as fm
from freemult import criteria
from freemult.errors import (
    DomainError,
    GridUnderflow,
    HypothesisViolated,
    IndexOutOfRange,
    WindowTooNarrow,
)


# ---------------------------------------------------------------------------
# level function and solution counting
# ---------------------------------------------------------------------------

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
    sol = fm.count_level_solutions(fm.dirac(1.0), math.pi / 2, 2 * math.pi)
    assert sol.count == 2
    assert not sol.boundary
    assert sol.roots[0] == pytest.approx(2 - math.sqrt(3), rel=1e-9)
    assert sol.roots[1] == pytest.approx(2 + math.sqrt(3), rel=1e-9)


def test_count_solutions_no_roots():
    sol = fm.count_level_solutions(fm.dirac(1.0), math.pi / 2, 2.0)
    assert sol.count == 0
    assert sol.effective_count == 0


def test_count_solutions_tangency():
    # peak value exactly equals the level: one location, flagged boundary,
    # conservatively worth two solutions
    sol = fm.count_level_solutions(fm.dirac(1.0), math.pi / 2, math.pi)
    assert sol.count == 1
    assert sol.boundary
    assert sol.effective_count == 2
    assert sol.roots[0] == pytest.approx(1.0, abs=1e-6)


def test_count_solutions_pinned_window_raises():
    with pytest.raises(WindowTooNarrow):
        fm.count_level_solutions(fm.dirac(1.0), math.pi / 2, 2 * math.pi,
                                 window=(0.5, 1.5))


@pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, 1.0), (2.0, 1.0),
                                    (0.5, math.inf), (0.5, math.nan)])
def test_count_solutions_rejects_bad_window(window):
    with pytest.raises(DomainError, match="bad window"):
        fm.count_level_solutions(fm.dirac(1.0), 1.0, 1.0, window=window)


def test_level_profiles_reject_coarse_grids():
    nu = fm.uniform_interval(1, 1.1)
    for grid in (63, 1, 0, -5):
        with pytest.raises(DomainError):
            fm.count_level_solutions(nu, 1.0, 22.0, grid=grid)
    with pytest.raises(DomainError):
        fm.reciprocal_interval_check(nu, 22.0, n_r=1)


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


def test_narrow_support_profile_sums_directly(monkeypatch):
    # uniform(1, 1.001): the lattice step m exceeds the node count n, so the
    # kernel windows do not overlap and the profile is a direct sum
    calls = []
    sums = criteria._kernel_sums
    monkeypatch.setattr(criteria, "_kernel_sums",
                        lambda *a: calls.append(a[0].size) or sums(*a))
    for R in (0.01, 1.0, math.pi - 0.01):
        _profile_matches_level_function(fm.uniform_interval(1, 1.001), R,
                                        (0.0, 0.4997, 0.5, 0.61, 1.0))
    assert len(calls) == 3 and min(calls) >= 4096
    # a wider support overlaps and goes through the FFT correlation
    _profile_matches_level_function(fm.uniform_interval(1, 1.1), 1.0, (0.5,))
    assert len(calls) == 3


def test_wide_support_profile_stays_on_lattice(monkeypatch):
    # lambda(1) spans about 53 in log xi, so at R = 0.01 the profile needs
    # 53401 Simpson nodes: the lattice holds them, no point is solved alone
    def per_point(*args, **kwargs):
        raise AssertionError("per-point route taken")

    monkeypatch.setattr(criteria, "level_function", per_point)
    _profile_matches_level_function(fm.lambda_measure(1.0), 0.01,
                                    (0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0))


def test_default_angle_sweep_shape():
    angles = fm.criteria.default_angle_sweep()
    assert angles.size == 64
    assert np.all((angles > 0) & (angles < math.pi))


def test_angle_sweep_needs_two_angles():
    assert fm.criteria.default_angle_sweep(2).size == 2
    for n in (1, 0):
        with pytest.raises(DomainError):
            fm.criteria.default_angle_sweep(n)
    with pytest.raises(DomainError):
        fm.sweep_level_counts(fm.dirac(1.0), 1.0, angles=[])


def test_sweep_counts_symmetric_measure():
    report = fm.sweep_level_counts(fm.dirac(1.0), 1.0,
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
    with pytest.raises(DomainError):
        fm.time_threshold(1.1, 1.0)


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
    assert fm.reciprocal_interval_check(nu, fm.time_threshold(1.0, 1.1))
    assert fm.reciprocal_interval_check(nu, 22.0)


def test_reciprocal_interval_check_degenerate_support():
    # equal endpoints: no angle passes the cosine cut, vacuously true
    assert fm.reciprocal_interval_check(fm.dirac(1.0), 5.0)


def test_reciprocal_interval_check_below_threshold_is_raw():
    # one-directional statement: below the threshold the raw boolean is
    # whatever the grid says; it must at least be a bool
    out = fm.reciprocal_interval_check(fm.uniform_interval(1, 1.1), 2.0)
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


def test_convolve_grid_floor():
    with pytest.raises(GridUnderflow):
        fm.mult_convolve(fm.log_normal(0, 1), fm.log_normal(0, 1), n=8)


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
        lhs = fm.scaled_convolution_density(nu, a, t, r)
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
    worst = 0.0
    for r in np.geomspace(0.2, 5.0, 40):
        via_kernel = fm.scaled_convolution_density(nu, a, t, float(r))
        via_grid = float(r) / c_b * float(conv.density(float(r)))
        worst = max(worst, abs(via_kernel - via_grid))
    assert worst <= 2e-3


def test_scaled_convolution_domain():
    with pytest.raises(DomainError):
        fm.scaled_convolution_density(fm.dirac(1.0), 2.0, 2.0, 1.0)  # B >= pi


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
        sol = fm.count_level_solutions(nu, B, t, grid=2048)
        level2 = a * math.pi / math.sin(B)
        r = np.geomspace(sol.window[0], sol.window[1], 2048)
        vals2 = np.array([fm.scaled_convolution_density(nu, a, t, float(rr))
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


def test_build_counterexample_ratio_example():
    _nu, spec = fm.build_counterexample(12)
    a10, a11 = 10.0 ** -4, 11.0 ** -4
    expect = a10 * a11 * (a10 + a11) / (a10 - a11) ** 2
    assert spec.ratios[9] == pytest.approx(expect, rel=1e-12)


def test_build_counterexample_custom_rules():
    nu, spec = fm.build_counterexample(
        5, rule="custom", weight_rule=lambda k: 2.0 ** -k,
        location_rule=lambda k: 3.0 ** -k)
    assert spec.locations == pytest.approx((1 / 3, 1 / 9, 1 / 27, 1 / 81, 1 / 243))
    with pytest.raises(HypothesisViolated):
        fm.build_counterexample(5, rule="custom",
                                weight_rule=lambda k: 1.0,
                                location_rule=lambda k: float(k))


def test_build_counterexample_inverted_variant():
    nu, _spec = fm.build_counterexample(8)
    inv = nu.invert()
    locations = inv.atoms()[1].tolist()
    assert locations == [float(k) ** 4 for k in range(1, 9)]


def test_gap_certificates():
    nu, _spec = fm.build_counterexample(30)
    for t in (0.5, 1.0, 2.0, 100.0):
        found = False
        for k in range(1, 30):
            cert = fm.gap_certificate(nu, t, k)
            if cert.below:
                found = True
                assert cert.f_value < 1.0 / t
                # the region still contains the adjacent reciprocal atoms
                assert fm.f_blowup(nu, 1.0 / _spec.locations[k - 1]) == math.inf
                break
        assert found


def test_cascade_level_counts_exceed_two():
    # the disconnected-support fixture must fail the at-most-two criterion
    # at some angle, matching the not-unimodal curve verdict
    nu, _spec = fm.build_counterexample(10)
    counts = [fm.count_level_solutions(nu, R, 1.0, grid=4096).effective_count
              for R in (0.05, 0.1, 0.2)]
    assert max(counts) > 2


def test_gap_certificate_index_bounds():
    single = fm.atomic([(1.0, 1.0)])
    with pytest.raises(IndexOutOfRange):
        fm.gap_certificate(single, 1.0, 1)
    nu, _ = fm.build_counterexample(5)
    with pytest.raises(IndexOutOfRange):
        fm.gap_certificate(nu, 1.0, 5)
    with pytest.raises(DomainError):
        fm.gap_certificate(fm.uniform_interval(1, 2), 1.0, 1)
