"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math

import numpy as np
import pytest

import freemult as fm


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. flow pipeline sanity on a unit point mass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_criterion_01_point_mass_pipeline(t):
    ctx = fm.FlowContext(fm.dirac(1.0), t)
    curve = fm.density_curve(ctx, points=1024)

    mass_ok = abs(curve.mass() - 1.0) <= 1e-4
    mean_expect = math.exp(t / 2.0)
    mean_ok = abs(curve.mean() - mean_expect) <= 1e-3 * mean_expect

    # evenness of the log-pushforward: x q(x) must equal its mirror at 1/x
    defect = 0.0
    for x in np.geomspace(0.4, 2.5, 41):
        g = float(x) * fm.density(ctx, float(x))
        g_mirror = (1.0 / float(x)) * fm.density(ctx, 1.0 / float(x))
        defect = max(defect, abs(g - g_mirror))
    even_ok = defect <= 1e-3

    rep = fm.is_log_unimodal(curve)
    mode_ok = (rep.verdict == "unimodal"
               and abs(rep.modes[0] - 1.0) <= rep.resolution)

    _report(f"1. point-mass pipeline t={t}",
            mass_ok and mean_ok and even_ok and mode_ok,
            f"mass={curve.mass():.6f}, mean rel "
            f"{abs(curve.mean() - mean_expect) / mean_expect:.2e}, "
            f"evenness {defect:.2e}, mode {rep.modes[0]:.6f}")


# ---------------------------------------------------------------------------
# 2. dilation law
# ---------------------------------------------------------------------------

def test_criterion_02_dilation():
    ctx1 = fm.FlowContext(fm.dirac(1.0), 1.0)
    ctx2 = fm.FlowContext(fm.dirac(2.0), 1.0)
    sup = 0.0
    for x in np.geomspace(0.05, 20.0, 80):
        q2 = fm.density(ctx2, float(2.0 * x))
        q1 = fm.density(ctx1, float(x))
        sup = max(sup, abs(q2 - 0.5 * q1))
    _report("2. dilation law", sup <= 1e-6, f"sup defect {sup:.2e}")


# ---------------------------------------------------------------------------
# 3. named-family mode table
# ---------------------------------------------------------------------------

MODE_TABLE = [
    ("half_normal(4)", fm.half_normal(4.0), 2.0),
    ("gamma(2,1)", fm.gamma_measure(2.0, 1.0), 2.0),
    ("beta(2,3)", fm.beta_measure(2.0, 3.0), 0.5),
    ("marchenko_pastur", fm.marchenko_pastur(), 2.0),
    ("marchenko_pastur_inverse", fm.marchenko_pastur_inverse(), 0.5),
    ("boolean_stable(0.5)", fm.boolean_stable(0.5), 1.0),
]


@pytest.mark.parametrize("name,nu,mode", MODE_TABLE, ids=[c[0] for c in MODE_TABLE])
def test_criterion_03_mode_table(name, nu, mode):
    rep = fm.is_log_unimodal(nu)
    ok = rep.verdict == "unimodal" and abs(rep.modes[0] - mode) <= rep.resolution
    _report(f"3. mode of {name}", ok,
            f"mode {rep.modes[0]:.6f} vs {mode}, step {rep.resolution:.2e}")


# ---------------------------------------------------------------------------
# 4. symmetric log-unimodal start stays log-unimodal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_criterion_04_symmetric_start(t):
    ctx = fm.FlowContext(fm.lambda_measure(math.pi / 2), t)
    curve = fm.density_curve(ctx, points=256)
    rep = fm.is_log_unimodal(curve)
    _report(f"4. lambda(pi/2) start t={t}", rep.verdict == "unimodal",
            f"verdict {rep.verdict}, modes {rep.modes}")


# ---------------------------------------------------------------------------
# 5. interval-supported start past the time threshold
# ---------------------------------------------------------------------------

def test_criterion_05_interval_threshold():
    nu = fm.uniform_interval(1.0, 1.1)
    threshold = fm.time_threshold(1.0, 1.1)
    thr_ok = abs(threshold - 21.29) < 0.01

    t = 22.0
    block_ok = fm.reciprocal_interval_check(nu, t)
    sweep = fm.sweep_level_counts(nu, t)
    counts_ok = all(c <= 2 for c in sweep.effective_counts)
    assert len(sweep.angles) == 64

    ctx = fm.FlowContext(nu, t)
    rep = fm.is_log_unimodal(fm.density_curve(ctx, points=512))
    verdict_ok = rep.verdict == "unimodal"

    _report("5. interval start past threshold",
            thr_ok and block_ok and counts_ok and verdict_ok,
            f"threshold {threshold:.4f}, block {block_ok}, "
            f"max count {max(sweep.effective_counts)}, verdict {rep.verdict}")


# ---------------------------------------------------------------------------
# 6. collapsing atomic cascade is never log-unimodal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_criterion_06_atomic_cascade(t):
    nu, spec = fm.build_counterexample(30)
    partial_ok = spec.partial_sum_w_over_a < 315.0 / (2.0 * math.pi ** 4)

    cert = None
    for k in range(1, 30):
        c = fm.gap_certificate(nu, t, k)
        if c.below:
            cert = c
            break
    ctx = fm.FlowContext(nu, t)
    curve = fm.density_curve(ctx, points=512)
    components_ok = len(curve.support) >= 2
    rep = fm.is_log_unimodal(curve)

    _report(f"6. atomic cascade t={t}",
            partial_ok and cert is not None and components_ok
            and rep.verdict == "not_unimodal",
            f"cert k={getattr(cert, 'k', None)}, "
            f"components {len(curve.support)}, verdict {rep.verdict}, "
            f"partial sum {spec.partial_sum_w_over_a:.5f}")


# ---------------------------------------------------------------------------
# 7. the two solution-count routes agree
# ---------------------------------------------------------------------------

def test_criterion_07_route_equivalence():
    rng = np.random.default_rng(42)
    pool = [fm.uniform_interval(1, 2), fm.lambda_measure(math.pi / 2), fm.dirac(1.0)]
    identity_worst = 0.0
    counts_ok = True
    for i in range(20):
        nu = pool[i % 3]
        t = float(rng.uniform(0.4, 4.0))
        a = float(rng.uniform(0.08, 0.92)) / t
        r = float(rng.uniform(0.2, 4.0))
        B = a * math.pi * t

        lhs = fm.scaled_convolution_density(nu, a, t, r)
        rhs = fm.level_function(nu, B, r) * B / math.sin(B)
        identity_worst = max(identity_worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))

        if not isinstance(nu, fm.Named) or nu.family != "lambda":
            sol = fm.count_level_solutions(nu, B, t, grid=2048)
            grid = np.geomspace(sol.window[0], sol.window[1], 2048)
            level2 = a * math.pi / math.sin(B)
            vals2 = np.array([fm.scaled_convolution_density(nu, a, t, float(rr))
                              for rr in grid]) - level2
            count2 = int(np.sum(np.sign(vals2[:-1]) * np.sign(vals2[1:]) < 0))
            counts_ok &= count2 == sol.count

    _report("7. route equivalence",
            counts_ok and identity_worst <= 1e-10,
            f"identity worst {identity_worst:.2e}, counts agree {counts_ok}")


# ---------------------------------------------------------------------------
# 8. strong log-unimodality of the lambda family
# ---------------------------------------------------------------------------

def test_criterion_08_strong_check():
    xs = np.linspace(-20.0, 20.0, 10000)
    neg_ok = all(float(np.max(fm.lambda_strong_check(b).g_second(xs))) <= 0.0
                 for b in (2.0, 2.5, 3.0))
    wit_ok = True
    for b in (0.5, 1.0):
        rep = fm.lambda_strong_check(b)
        wit_ok &= (not rep.strongly_log_unimodal and rep.witness is not None
                   and float(rep.g_second(rep.witness)) > 0.0)
    verdicts_ok = all(
        fm.lambda_strong_check(float(b)).strongly_log_unimodal
        == (math.cos(float(b)) <= 0.0)
        for b in np.linspace(0.03, math.pi - 0.03, 100))
    _report("8. lambda strong check", neg_ok and wit_ok and verdicts_ok,
            f"curvature {neg_ok}, witnesses {wit_ok}, verdicts {verdicts_ok}")


# ---------------------------------------------------------------------------
# 9. half-plane inequality checks
# ---------------------------------------------------------------------------

def test_criterion_09_half_plane_checks():
    gamma_ok = fm.pick_inequality_check(fm.gamma_measure(2, 1), 2.0).holds
    dirac_ok = fm.pick_inequality_check(fm.dirac(3.0), 3.0).holds
    two = fm.atomic([(0.5, 1.0), (0.5, 4.0)])
    sweep_ok = all(not fm.pick_inequality_check(two, float(c)).holds
                   for c in np.geomspace(0.5, 5.0, 20))
    _report("9. half-plane checks", gamma_ok and dirac_ok and sweep_ok,
            f"gamma {gamma_ok}, point mass {dirac_ok}, two-atom sweep {sweep_ok}")


# ---------------------------------------------------------------------------
# 10. classical multiplicative convolution fixtures
# ---------------------------------------------------------------------------

def test_criterion_10_convolution_fixtures():
    ok = True
    details = []
    for mu, nu in ((fm.lambda_measure(2.0), fm.lambda_measure(math.pi / 2)),
                   (fm.log_normal(0, 1), fm.lambda_measure(1.0))):
        out = fm.mult_convolve(mu, nu)
        sym = fm.is_mult_symmetric(out, 1e-3)
        verdict = fm.is_log_unimodal(out).verdict
        ok &= sym and verdict == "unimodal"
        details.append(f"sym {sym} verdict {verdict}")

    conv = fm.mult_convolve(fm.log_normal(0, 1), fm.log_normal(0, 1))
    ref = fm.log_normal(0.0, math.sqrt(2.0))
    xs = conv.x
    sup = float(np.max(np.abs(np.asarray(conv.density(xs))
                              - np.asarray(ref.density(xs)))))
    close = sup <= 1e-3 * float(np.max(np.asarray(ref.density(xs))))
    ok &= close
    _report("10. convolution fixtures", ok,
            "; ".join(details) + f"; lognormal sup {sup:.2e}")


# ---------------------------------------------------------------------------
# 11. solver contracts
# ---------------------------------------------------------------------------

def test_criterion_11_solver_contracts():
    resid_ok = True
    for nu, t in ((fm.dirac(1.0), 4.0), (fm.uniform_interval(1, 2), 0.7),
                  (fm.atomic([(0.5, 1.0), (0.5, 4.0)]), 2.0)):
        ctx = fm.FlowContext(nu, t)
        for r in np.geomspace(0.15, 6.0, 20):
            u = fm.solve_angle(ctx, float(r))
            if u > 0.0:
                lhs = fm.level_function(ctx.nu, u, float(r), rtol=ctx.tol_quad)
                resid = abs(lhs - 1.0 / t)
                resid_ok &= resid <= 1e-10 / t

    ctx = fm.FlowContext(fm.uniform_interval(1, 2), 1.0)
    round_ok = True
    for y in np.geomspace(0.1, 10.0, 200):
        r = fm.radial_map_inverse(ctx, float(y))
        round_ok &= abs(fm.radial_map(ctx, r) - y) <= 1e-8 * y

    rng = np.random.default_rng(5)
    mono_ok = True
    for _ in range(100):
        r = float(rng.uniform(0.2, 3.0))
        th = np.sort(rng.uniform(0.02, math.pi - 0.02, 2))
        lo, hi = (fm.level_function(ctx.nu, float(th[0]), r, rtol=ctx.tol_quad),
                  fm.level_function(ctx.nu, float(th[1]), r, rtol=ctx.tol_quad))
        mono_ok &= lo > hi

    _report("11. solver contracts", resid_ok and round_ok and mono_ok,
            f"residuals {resid_ok}, round-trip {round_ok}, monotone {mono_ok}")
