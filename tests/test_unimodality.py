import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freemult as fm
from freemult.errors import AtomicHasNoDensity, DegenerateInput, DomainError
from freemult import analytic, measures, unimodality
from freemult.unimodality import ModeReport
from freemult.errors import InvariantViolation, NonIntegrable


def _points(re, im):
    """The grid re x im in the upper half-plane, row-major over im, as
    `analytic.half_plane_grid` lays out its own."""
    rr, ii = np.meshgrid(re, im)
    return (rr + 1j * ii).ravel()


@pytest.fixture
def small_grid(monkeypatch):
    """The pick check on a 24 x 24 grid over the default's ranges."""
    zs = _points(np.linspace(-10.0, 10.0, 24), np.geomspace(1e-3, 10.0, 24))
    monkeypatch.setattr(unimodality, "half_plane_grid", lambda: zs)


# ---------------------------------------------------------------------------
# count_modes
# ---------------------------------------------------------------------------

def test_tent_is_unimodal():
    x = np.linspace(0.1, 2.0, 101)
    y = 1.0 - np.abs(x - 1.0)
    rep = fm.count_modes(x, y)
    assert rep.verdict == "unimodal"
    assert rep.num_local_maxima == 1
    assert rep.modes[0] == pytest.approx(1.0, abs=rep.resolution)


def test_two_bumps_not_unimodal():
    x = np.linspace(0.0, 10.0, 401)
    y = np.exp(-4 * (x - 2) ** 2) + 0.7 * np.exp(-4 * (x - 7) ** 2)
    rep = fm.count_modes(x, y)
    assert rep.verdict == "not_unimodal"
    assert rep.num_local_maxima == 2
    assert rep.modes[0] == pytest.approx(2.0, abs=0.05)
    assert rep.modes[1] == pytest.approx(7.0, abs=0.05)


def test_sub_hysteresis_wiggles_suppressed():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 10.0, 801)
    y = np.exp(-0.5 * (x - 5) ** 2)
    y = y + 2e-5 * rng.standard_normal(x.size) * y.max()
    rep = fm.count_modes(x, y, hysteresis=1e-3)
    assert rep.verdict == "unimodal"
    assert rep.num_local_maxima == 1


def test_borderline_feature_inconclusive():
    x = np.linspace(0.0, 10.0, 801)
    # secondary bump with prominence between eps/2 and eps
    y = np.exp(-2 * (x - 3) ** 2) + 7.0e-4 * np.exp(-40 * (x - 8) ** 2)
    rep = fm.count_modes(x, y, hysteresis=1e-3)
    assert rep.verdict == "inconclusive"


def test_monotone_curve_has_edge_mode():
    x = np.linspace(0.1, 1.0, 101)
    rep = fm.count_modes(x, x ** 2)
    assert rep.verdict == "unimodal"
    assert rep.num_local_maxima == 1
    assert rep.modes[0] == pytest.approx(1.0, abs=rep.resolution)


def test_degenerate_and_domain_errors():
    x = np.linspace(0.1, 1.0, 101)
    with pytest.raises(DegenerateInput):
        fm.count_modes(x, np.zeros_like(x))
    with pytest.raises(DomainError):
        fm.count_modes(x[:10], x[:10])
    with pytest.raises(DomainError):
        fm.count_modes(x, x, hysteresis=0.5)


def test_mode_report_invariant():
    with pytest.raises(InvariantViolation):
        ModeReport("unimodal", 2, (1.0, 2.0), 0.1)
    with pytest.raises(InvariantViolation):
        ModeReport("maybe", 0, (), 0.1)


def _level_sweep_verdict(y, hysteresis):
    """Reference mode count that also sweeps 50 horizontal levels: the
    verdict and the indices of the maxima."""
    def extrema(eps):
        maxima, skeleton = [], [float(y[0])]
        direction, i_max = 0, 0
        v_max = v_min = float(y[0])
        for i in range(1, y.size):
            v = float(y[i])
            if v > v_max:
                v_max, i_max = v, i
            if v < v_min:
                v_min = v
            if direction >= 0 and v < v_max - eps:
                maxima.append(i_max)
                skeleton.append(v_max)
                direction, v_min = -1, v
            elif direction <= 0 and v > v_min + eps:
                skeleton.append(v_min)
                direction, v_max, i_max = 1, v, i
        if direction >= 0 and v_max > skeleton[-1] + (eps if direction == 0
                                                      else 0.0):
            maxima.append(i_max)
            skeleton.append(v_max)
        skeleton.append(float(y[-1]))
        return maxima, skeleton

    vmax = float(y.max())
    maxima, skeleton = extrema(hysteresis * vmax)
    maxima_half, _ = extrema(0.5 * hysteresis * vmax)
    crossings = max(sum(a < level < b for a, b in zip(skeleton, skeleton[1:]))
                    for level in np.linspace(0.0, vmax, 52)[1:-1])
    if len(maxima) >= 2 or crossings >= 2:
        verdict = "not_unimodal"
    elif len(maxima_half) != len(maxima):
        verdict = "inconclusive"
    else:
        verdict = "unimodal"
    return verdict, maxima


@settings(max_examples=50)
@given(noise=st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=128),
       center=st.floats(0.0, 1.0), width=st.floats(0.01, 1.0),
       amplitude=st.floats(0.0, 0.2),
       hysteresis=st.floats(0.0, 0.1, exclude_min=True, exclude_max=True))
def test_count_modes_matches_a_level_sweep(noise, center, width, amplitude,
                                           hysteresis):
    # a noisy bump; two up-crossings of one level need two maxima, so the
    # sweep never changes the verdict that the maxima give
    x = np.linspace(0.0, 1.0, len(noise))
    y = np.abs(np.exp(-((x - center) / width) ** 2)
               + amplitude * np.array(noise))
    assume(y.max() > 0.0)
    rep = fm.count_modes(x, y, hysteresis)
    verdict, maxima = _level_sweep_verdict(y, hysteresis)
    assert rep.verdict == verdict
    assert rep.num_local_maxima == len(maxima)
    assert rep.modes == tuple(sorted(unimodality._parabolic_refine(x, y, i)
                                     for i in maxima))


# ---------------------------------------------------------------------------
# is_log_unimodal
# ---------------------------------------------------------------------------

MODE_TABLE = [
    (fm.half_normal(4.0), 2.0),
    (fm.gamma_measure(2.0, 1.0), 2.0),
    (fm.beta_measure(2.0, 3.0), 0.5),
    (fm.marchenko_pastur(), 2.0),
    (fm.marchenko_pastur_inverse(), 0.5),
    (fm.boolean_stable(0.5), 1.0),
    (fm.lambda_measure(1.0), 1.0),
    (fm.log_normal(0.3, 1.0), math.exp(0.3)),
]


@pytest.mark.parametrize("nu,mode", MODE_TABLE,
                         ids=[m.family for m, _ in MODE_TABLE])
def test_named_family_modes(nu, mode):
    rep = fm.is_log_unimodal(nu)
    assert rep.verdict == "unimodal"
    assert abs(rep.modes[0] - mode) <= rep.resolution


def test_inversion_duality_of_modes():
    rep = fm.is_log_unimodal(fm.gamma_measure(2, 1))
    rep_inv = fm.is_log_unimodal(fm.gamma_measure(2, 1).invert())
    assert rep.verdict == rep_inv.verdict == "unimodal"
    assert rep_inv.modes[0] == pytest.approx(1.0 / rep.modes[0], rel=5e-3)


def test_atomic_rejected():
    with pytest.raises(AtomicHasNoDensity):
        fm.is_log_unimodal(fm.atomic([(0.5, 1.0), (0.5, 4.0)]))


def test_accepts_xy_pair():
    x = np.geomspace(0.01, 100, 512)
    f = np.asarray(fm.gamma_measure(2, 1).density(x))
    rep = fm.count_modes(x, x * f)
    assert rep.verdict == "unimodal"


# ---------------------------------------------------------------------------
# half-plane checks
# ---------------------------------------------------------------------------

def test_pick_check_point_mass_own_mode():
    rep = fm.pick_inequality_check(fm.dirac(3.0), 3.0)
    assert rep.holds
    assert rep.violations == ()


def test_pick_check_two_atoms_never_unimodal():
    nu = fm.atomic([(0.5, 1.0), (0.5, 4.0)])
    for c in np.geomspace(0.5, 5.0, 20):
        rep = fm.pick_inequality_check(nu, float(c))
        assert not rep.holds
        assert rep.violations


def test_pick_check_gamma_small_grid(small_grid):
    rep = fm.pick_inequality_check(fm.gamma_measure(2, 1), 2.0)
    assert rep.holds


def test_pick_check_of_several_modes_evaluates_psi_prime_once(monkeypatch):
    zs = _points(np.linspace(-1.0, 2.0, 4), np.geomspace(0.01, 1.0, 3))
    monkeypatch.setattr(unimodality, "half_plane_grid", lambda: zs)
    real = unimodality.psi_prime
    calls = []
    monkeypatch.setattr(unimodality, "psi_prime",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    modes = [0.5, 2.0, 1.0]
    for nu in (fm.gamma_measure(2, 1), fm.atomic([(0.5, 1.0), (0.5, 4.0)])):
        calls.clear()
        reports = fm.pick_inequality_check(nu, modes)
        # one call covering all of zs
        assert len(calls) == 1
        assert np.asarray(calls[0]).tobytes() == zs.tobytes()
        # the per-mode products of the single-mode check, point by point
        for c, rep in zip(modes, reports):
            vals = np.array([z * (1.0 - c * z) * real(nu, z, rtol=1e-8)
                             for z in zs])
            assert rep.scale == float(np.max(np.abs(vals)))
            assert rep.violations == tuple((complex(z), float(v))
                                           for z, v in zip(zs, vals.imag)
                                           if v < -rep.tolerance)
        assert reports == [fm.pick_inequality_check(nu, c) for c in modes]
        assert [r.holds for r in reports] == [False, True, True]


class _Rippled(measures.Named):
    """A named family whose density carries a ripple no panel resolves, so
    its psi' quadratures can meet 1e-6 but stall short of 1e-8."""

    def density(self, x):
        x = np.asarray(x, float)
        return super().density(x) * (1.0 + 3e-7 * np.sin(1e9 * x))


def test_pick_check_counts_the_grid_points_whose_psi_prime_was_relaxed(
        monkeypatch):
    zs = _points(np.array([-2.0, 2.0]), np.array([0.5, 2.0]))
    monkeypatch.setattr(unimodality, "half_plane_grid", lambda: zs)
    assert fm.pick_inequality_check(fm.gamma_measure(2, 1),
                                    2.0).relaxed_points == 0
    nu = _Rippled("gamma", p=2.0, theta=1.0)
    reports = fm.pick_inequality_check(nu, [1.0, 2.0])
    assert [r.relaxed_points for r in reports] == [1, 1]
    # the relaxed point gets the value of its own quadrature at 100 rtol
    values, relaxed = fm.psi_prime(nu, zs, rtol=1e-8, full_output=True)
    (k,) = np.flatnonzero(relaxed)
    z = complex(zs[k])
    pts, scl = analytic._pole_seeds(zs[k:k + 1], *nu.effective_support())
    rtol = float(analytic._half_plane_rtol(zs[k:k + 1], 1e-8)[0])
    kernel = lambda x: x / (1.0 - x * z) ** 2
    edges, _offsets = nu._seed_edges(pts, scl)
    with pytest.raises(NonIntegrable):
        nu.integrate(kernel, edges, rtol=rtol)
    assert values[k] == nu.integrate(kernel, edges, rtol=100 * rtol)


def test_pick_check_rejects_bad_mode():
    with pytest.raises(DomainError):
        fm.pick_inequality_check(fm.dirac(1.0), -2.0)
    for bad in (math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(DomainError):
            fm.pick_inequality_check(fm.dirac(1.0), bad)


@pytest.mark.parametrize("nu,mode", MODE_TABLE[:6],
                         ids=[m.family for m, _ in MODE_TABLE[:6]])
def test_checker_agreement_on_named_families(small_grid, nu, mode):
    # both routes agree on the designated fixtures: the half-plane check
    # holds at the known mode and mode counting says unimodal
    assert fm.pick_inequality_check(nu, mode).holds
    assert fm.is_log_unimodal(nu).verdict == "unimodal"


# ---------------------------------------------------------------------------
# lambda-family strong check
# ---------------------------------------------------------------------------

def test_strong_check_negative_cosine():
    rep = fm.lambda_strong_check(2.0)
    assert rep.strongly_log_unimodal
    assert rep.witness is None
    xs = np.linspace(-20, 20, 2001)
    assert np.max(rep.g_second(xs)) <= 0.0


def test_strong_check_boundary_angle():
    assert fm.lambda_strong_check(math.pi / 2).strongly_log_unimodal


def test_strong_check_witness():
    rep = fm.lambda_strong_check(1.0)
    assert not rep.strongly_log_unimodal
    assert rep.witness == math.acosh(1.0 / math.cos(1.0)) + 1e-3
    assert float(rep.g_second(rep.witness)) > 0.0
    # witnesses live where cosh x exceeds 1/cos b
    assert math.cosh(rep.witness) > 1.0 / math.cos(1.0)


def test_strong_check_matches_cosine_sign():
    for b in np.linspace(0.03, math.pi - 0.03, 100):
        assert (fm.lambda_strong_check(float(b)).strongly_log_unimodal
                == (math.cos(float(b)) <= 0.0))


def test_curvature_formula_against_finite_differences():
    # independent route: differentiate log of the log-pushforward density
    for b in (0.7, 2.2):
        cb = math.sin(b) / (math.pi - b)
        g = lambda x: math.log(cb) + x - math.log(
            1 - 2 * math.exp(x) * math.cos(b) + math.exp(2 * x))
        g2 = fm.lambda_strong_check(b).g_second
        h = 1e-5
        for x in (-2.0, -0.3, 0.4, 1.7):
            fd = (g(x + h) - 2 * g(x) + g(x - h)) / (h * h)
            assert float(g2(x)) == pytest.approx(fd, abs=1e-5)


def test_strong_check_domain():
    with pytest.raises(DomainError):
        fm.lambda_strong_check(0.0)
    with pytest.raises(DomainError):
        fm.lambda_strong_check(math.pi)
