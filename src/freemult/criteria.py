"""Solution-count criteria, classical multiplicative convolution, and the
atomic counterexample builder.

Log-unimodality of the time-t marginal is equivalent to the level equation

    Theta_R(r) := sin(R)/R * int r*xi / (1 + r^2 xi^2 - 2 r xi cos R) d nu
                = 1/t

having at most two solutions in r for every angle R in (0, pi).  The same
equation arises as the rescaled density of the classical multiplicative
convolution of a lambda-family member with the inverted measure, which gives
an independent cross-check route.

For a measure supported on [lo, hi] with hi^4 - 3 lo^4 < 2 lo^3 hi there is
a closed-form time threshold beyond which the marginal is log-unimodal; and
for atomic measures whose locations collapse fast enough, midpoint gap
certificates prove the blow-up region disconnected at every time, so the
marginals are never log-unimodal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from ._roots import bounded_minimum, brentq
from .errors import (
    DomainError,
    GridUnderflow,
    HypothesisViolated,
    IndexOutOfRange,
    WindowTooNarrow,
)
from .flow import (
    FlowContext,
    capped_blowup,
    check_points,
    kernel_denominator,
    poisson_kernel_integral,
)
from .measures import Atomic, GridDensity, Measure, pushforward_log

_TANGENT_TOL = 1e-9
# Simpson nodes a level profile may sum at once: beyond them, at angles R
# below about 1e-5 times the support's log-width, each radius is solved
# alone.  The FFT's lattice may hold four times as many samples.
_LATTICE_MAX = 2 ** 20
# samples of a density result of mult_convolve
_CONVOLVE_POINTS = 4096


def level_function(nu: Measure, R: float, r, rtol: float = 1e-12):
    """Theta_R(r): the angle-equation integral at fixed angle R as a function
    of the radial variable, at one radius r (a float) or at each of an array
    of radii."""
    if not (0.0 < R < math.pi):
        raise DomainError(f"R must be in (0, pi), got {R}")
    s2 = math.sin(0.5 * R) ** 2
    return math.sin(R) / R * poisson_kernel_integral(nu, r, s2, rtol=rtol)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    # n odd
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * h / 3.0


def _direct_sums(r: np.ndarray, xi: np.ndarray, wts: np.ndarray, s2: float,
                 pref: float) -> np.ndarray:
    """pref * sum_j wts_j K(r_i xi_j) for every r_i, in chunks of about 4e6
    kernel values."""
    out = np.empty(r.size)
    chunk = max(1, int(4e6 // xi.size))
    for i in range(0, r.size, chunk):
        u = r[i:i + chunk, None] * xi[None, :]
        out[i:i + chunk] = pref * (u / kernel_denominator(u, s2)) @ wts
    return out


@np.errstate(over="ignore")  # K -> 0 where (1 - u)^2 overflows
def _level_profile(nu: Measure, R: float, wlo: float, whi: float,
                   grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Theta_R on a log grid of at least `grid` points covering [wlo, whi]:
    returns (r, values).  Used to locate sign structure; individual roots
    are polished with the scalar adaptive route.

    The nodes are the atoms, or the Simpson nodes xi_j = lo * e^{j h} of
    the density in log xi; the direct sum takes them at the radii
    geomspace(wlo, whi, grid).  At r_i = wlo * e^{i m h}, on the nodes'
    lattice, Theta_R(r_i) = pref * sum_j w_j K_{i m + j}, K_k the kernel at
    u = wlo * lo * e^{k h}: a correlation, done by FFT where it is cheaper."""
    s2 = math.sin(0.5 * R) ** 2
    pref = math.sin(R) / R
    r = np.geomspace(wlo, whi, grid)
    at = nu.atoms()
    lo, hi = (at[1][0], at[1][-1]) if at is not None else nu.effective_support()
    y0, y1 = math.log(lo), math.log(hi)
    wspan = math.log(whi) - math.log(wlo)
    dr = wspan / (grid - 1)
    # r * xi and r / wlo, a grid step past the window, must be floats
    if max(wspan, math.log(whi) + y1) + dr >= np.log(np.finfo(float).max):
        raise DomainError(f"r * xi overflows a float on the window [{wlo:.6g}, "
                          f"{whi:.6g}] for a support reaching {hi:.6g}")
    if at is not None:
        return r, _direct_sums(r, at[1], at[0], s2, pref)
    # node step no coarser than a tenth of the kernel's log-width R, nor
    # than the grid step dr
    n = max(513, math.ceil(10.0 * (y1 - y0) / R), math.ceil((y1 - y0) / dr) + 1)
    n += 1 - n % 2
    if n > _LATTICE_MAX:
        return r, level_function(nu, R, r, rtol=1e-9)
    h = (y1 - y0) / (n - 1)
    xi = np.exp(np.linspace(y0, y1, n))
    wts = _simpson_weights(n, h) * xi * nu.density(xi)
    m = max(1, int(dr // h))
    n_r = math.ceil(wspan / (m * h)) + 1
    size = (n_r - 1) * m + n
    # per angle the direct sum costs about 12 ns per kernel value and the FFT
    # about 3.5 ns per size*log2(size); measured direct vs FFT: uniform(1,
    # 1.005) 51 vs 85 ms, uniform(1, 1.01) 28 vs 32, uniform(1, 1.02) 24 vs
    # 15, uniform(1, 1.1) 25 vs 3, gamma(2, 1) at R = 0.01 808 vs 3 ms
    if size * math.log2(size) >= 4 * grid * n or size > 4 * _LATTICE_MAX:
        return r, _direct_sums(r, xi, wts, s2, pref)
    u = np.exp((math.log(wlo) + y0) + h * np.arange(size))
    kern = u / kernel_denominator(u, s2)
    nfft = sp_fft.next_fast_len(size, real=True)
    corr = sp_fft.irfft(sp_fft.rfft(kern, nfft)
                        * np.conj(sp_fft.rfft(wts, nfft)), nfft)
    return (wlo * np.exp((m * h) * np.arange(n_r)),
            pref * corr[:(n_r - 1) * m + 1:m])


@dataclass(frozen=True)
class LevelSolutions:
    """Roots of Theta_R(r) = 1/t inside the window.

    `count` is the number of distinct solution locations; tangential
    (double) roots are flagged `boundary` and each adds one to
    `effective_count` on top of `count`, so the at-most-two verdict treats
    them conservatively."""

    count: int
    roots: tuple[float, ...]
    boundary: bool
    effective_count: int
    window: tuple[float, float]


def _default_level_window(nu: Measure) -> tuple[float, float]:
    lo, hi = nu.effective_support(1e-9)
    return 1e-2 / hi, 1e2 / lo


def count_level_solutions(nu: Measure, R: float, t: float,
                          grid: int = 4096) -> LevelSolutions:
    """Count solutions of Theta_R(r) = 1/t.

    Sign changes on a log grid are polished by bracketed root finding; local
    extrema that touch the level within tolerance are reported as boundary
    (tangency) cases.  While the level function is still above 1/t at an
    end of the window, starting from the default one, that end is widened;
    WindowTooNarrow is raised when it cannot be."""
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    check_points(grid)
    target = 1.0 / t
    wlo, whi = _default_level_window(nu)

    for _ in range(80):
        r, vals = _level_profile(nu, R, wlo, whi, grid)
        vals = vals - target
        lo_clipped = vals[0] >= 0.0
        hi_clipped = vals[-1] >= 0.0
        if not (lo_clipped or hi_clipped):
            break
        if lo_clipped:
            wlo /= 4.0
        if hi_clipped:
            whi *= 4.0
    else:
        raise WindowTooNarrow("could not expand the window below the level")

    # each radius is evaluated once: brentq evaluates the bracket ends again
    g = functools.cache(lambda rr: level_function(nu, R, rr) - target)
    roots: list[float] = []
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    for i in flips:
        a, b = float(r[i]), float(r[i + 1])
        if g(a) * g(b) > 0:
            continue  # profile artifact finer than the scalar route
        roots.append(brentq(g, a, b, 1e-300, 1e-12, 100))
    roots.extend(r[vals == 0.0].tolist())

    # tangency sweep: interior extrema of the profile that touch the level
    n_tangent = 0
    tol_t = _TANGENT_TOL * target
    interior = np.arange(1, r.size - 1)
    is_max = (vals[interior] > vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    is_min = (vals[interior] < vals[interior - 1]) & (vals[interior] <= vals[interior + 1])
    ext_i = interior[is_max | is_min]
    y0, y1, y2 = vals[ext_i - 1], vals[ext_i], vals[ext_i + 1]
    # the radii are equally spaced in log r, and the parabola through an
    # extremum and its neighbours rises (y2 - y0)^2 / (8 |y0 - 2 y1 + y2|)
    # beyond it: an extremum within twice that rise of the level is polished
    # (a second difference that rounds to 0 reads inf or nan; fmax drops nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = (y2 - y0) ** 2 / (8.0 * np.abs(y0 - 2.0 * y1 + y2))
    for i in ext_i[np.abs(y1) < np.fmax(1e-5 * target, 2.0 * rise)]:
        a, b = float(r[i - 1]), float(r[i + 1])
        if any(a < rt < b for rt in roots):
            continue
        sign = 1.0 if is_max[i - 1] else -1.0
        r_ext, neg = bounded_minimum(lambda rr: -sign * g(rr), a, b, 1e-14 * b)
        ext = -neg * sign
        # an extremum on the crossing side of the level is a pair of
        # crossings; those between its grid neighbours are polished here,
        # those beyond them the flips polished already
        inner = ([(aa, bb) for aa, bb in ((a, r_ext), (r_ext, b))
                  if g(aa) * g(bb) <= 0] if sign * ext > 0 else [])
        if abs(ext) <= tol_t and (sign * ext <= 0 or len(inner) == 2):
            roots.append(r_ext)
            n_tangent += 1
        else:
            roots.extend(brentq(g, aa, bb, 1e-300, 1e-12, 100)
                         for aa, bb in inner)

    roots = sorted(set(roots))
    merged: list[float] = []
    for rt in roots:
        if not merged or rt - merged[-1] > 1e-9 * rt:
            merged.append(rt)
    return LevelSolutions(len(merged), tuple(merged), n_tangent > 0,
                          len(merged) + n_tangent, (wlo, whi))


def default_angle_sweep(n: int = 64) -> np.ndarray:
    """n angles in (0, pi), symmetric about pi/2 and log-spaced toward both
    ends where the criterion transitions live; an odd n adds pi/2."""
    if n < 2:
        raise DomainError(f"need at least 2 angles, got {n}")
    half = np.geomspace(0.01, math.pi / 2, n // 2 + 1)[:-1]
    mid = [math.pi / 2] if n % 2 else []
    return np.unique(np.concatenate([half, mid, math.pi - half]))


@dataclass(frozen=True)
class CriterionReport:
    angles: tuple[float, ...]
    counts: tuple[int, ...]
    effective_counts: tuple[int, ...]
    roots: tuple[tuple[float, ...], ...]
    boundary_flags: tuple[bool, ...]
    log_unimodal: bool


def sweep_level_counts(nu: Measure, t: float, angles=None,
                       grid: int = 4096) -> CriterionReport:
    """Run the solution count across an angle sweep; the marginal at time t
    is log-unimodal exactly when every count is at most two."""
    angles = default_angle_sweep() if angles is None else np.asarray(angles, float)
    if angles.size == 0:
        raise DomainError("need at least one angle")
    sols = [count_level_solutions(nu, float(R), t, grid=grid) for R in angles]
    eff = tuple(s.effective_count for s in sols)
    return CriterionReport(tuple(float(R) for R in angles),
                           tuple(s.count for s in sols), eff,
                           tuple(s.roots for s in sols),
                           tuple(s.boundary for s in sols),
                           all(c <= 2 for c in eff))


def time_threshold(lo: float, hi: float) -> float:
    """Closed-form time bound: beyond it, the marginal of any measure
    supported on [lo, hi] is log-unimodal.  Requires hi^4 - 3 lo^4 <
    2 lo^3 hi."""
    if not (0.0 < lo < hi):
        raise DomainError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if hi ** 4 - 3.0 * lo ** 4 >= 2.0 * lo ** 3 * hi:
        raise HypothesisViolated(
            f"hi^4 - 3 lo^4 = {hi ** 4 - 3 * lo ** 4:.6g} is not below "
            f"2 lo^3 hi = {2 * lo ** 3 * hi:.6g}")
    disc = 4.0 * lo ** 6 * hi ** 2 - (3.0 * lo ** 4 - hi ** 4) ** 2
    return 2.0 * hi ** 2 * (lo + hi) ** 2 * math.pi / math.sqrt(disc)


def reciprocal_interval_check(nu: Measure, t: float) -> bool:
    """Verify the level function stays above 1/t on the reciprocal-support
    block for all angles with cos R above the interval threshold.

    For such angles the level equation then has no solutions between 1/hi
    and 1/lo, which closes the at-most-two count for times past the
    threshold.  Vacuously true when no angle qualifies.  The check runs 64
    angles, each over at least 64 radial samples of [1/hi, 1/lo]."""
    lo, hi = nu.math_support()
    if not (0.0 < lo) or math.isinf(hi):
        raise DomainError("measure must be supported on a bounded interval")
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    thr = (3.0 * lo ** 4 - hi ** 4) / (2.0 * lo ** 3 * hi)
    angles = np.linspace(1e-3, math.pi - 1e-3, 64)
    angles = angles[np.cos(angles) > thr]
    if angles.size == 0:
        return True
    target = 1.0 / t
    for R in angles:
        _r, vals = _level_profile(nu, float(R), 1.0 / hi, 1.0 / lo, 64)
        if np.min(vals) <= target:
            return False
    return True


# ---------------------------------------------------------------------------
# classical multiplicative convolution
# ---------------------------------------------------------------------------

def mult_convolve(mu: Measure, nu: Measure) -> Measure:
    """Classical multiplicative convolution: the law of a product of
    independent draws.

    Atomic (*) atomic stays atomic; atomic (*) density is the finite mixture
    of dilations; density (*) density goes through additive convolution of
    the log-pushforwards on a shared uniform log grid.  Both density routes
    size their log grid by _CONVOLVE_POINTS."""
    mu_at, nu_at = mu.atoms(), nu.atoms()
    if mu_at is not None and nu_at is not None:
        # products that coincide exactly merge into one atom
        locs, idx = np.unique(np.outer(mu_at[1], nu_at[1]), return_inverse=True)
        return Atomic(np.bincount(idx.ravel(),
                                  weights=np.outer(mu_at[0], nu_at[0]).ravel()),
                      locs)
    if mu_at is not None or nu_at is not None:
        (w, a), dens = (mu_at, nu) if mu_at is not None else (nu_at, mu)
        if a.size == 1 and abs(a[0] - 1.0) < 1e-15:
            return dens  # convolving with a unit point mass is the identity
        slo, shi = dens.effective_support(1e-9)
        x = np.geomspace(a[0] * slo, a[-1] * shi, _CONVOLVE_POINTS)
        f = np.zeros_like(x)
        for wk, ak in zip(w, a):
            f += wk * dens.density(x / ak) / ak
        return GridDensity(x, f, normalize=True)

    l1, h1 = (math.log(v) for v in mu.effective_support(1e-9))
    l2, h2 = (math.log(v) for v in nu.effective_support(1e-9))
    span = (h1 - l1) + (h2 - l2)
    h = span / (_CONVOLVE_POINTS - 1)
    m1 = int(math.ceil((h1 - l1) / h)) + 1
    m2 = int(math.ceil((h2 - l2) / h)) + 1
    # both grids share the exact spacing h so the discrete convolution is a
    # true Riemann sum of the additive convolution of the log-pushforwards
    y1, p1 = pushforward_log(mu, l1, l1 + h * (m1 - 1), m1)
    y2, p2 = pushforward_log(nu, l2, l2 + h * (m2 - 1), m2)
    conv = np.convolve(p1, p2) * h
    y = (l1 + l2) + h * np.arange(conv.size)
    x = np.exp(y)
    f = conv / x
    mass = float(np.trapezoid(f, x))
    if mass < 0.99:
        raise GridUnderflow(
            f"log-grid convolution captured only {mass:.4f} of the mass; "
            f"the supports are too separated for {_CONVOLVE_POINTS} points")
    return GridDensity(x, f, normalize=True)


def scaled_convolution_density(nu: Measure, a: float, t: float,
                               r: float) -> float:
    """(r / c_B) times the density of (lambda-family at angle B = a*pi*t)
    multiplicatively convolved with the inverted measure, evaluated at r.

    Computed by the direct kernel integral obtained from substituting
    xi = 1/s in the convolution density; equals the level function at angle
    B rescaled by B / sin(B).  The kernel and its seed point are written
    out here rather than taken from `flow`: this algebraic form is the
    independent route that `level_function` is checked against.  Its one
    `integrate_rows` row is retried at 100 * rtol like every kernel sum."""
    if t <= 0 or r <= 0:
        raise DomainError("need t > 0 and r > 0")
    B = a * math.pi * t
    if not (0.0 < B < math.pi):
        raise DomainError(f"a*pi*t = {B} must lie in (0, pi)")
    c_b = math.sin(B) / (math.pi - B)
    s2 = math.sin(0.5 * B) ** 2

    def kernel(xi, _k):
        return c_b * xi / ((1.0 - r * xi) ** 2 + 4.0 * r * xi * s2)

    xs = 1.0 / r
    total, _relaxed = nu.integrate_rows(
        kernel, [xs], [max(2.0 * math.sqrt(s2) * xs, xs * 1e-14)], 1e-12)
    return r / c_b * float(total[0])


# ---------------------------------------------------------------------------
# atomic counterexamples
# ---------------------------------------------------------------------------

_ZETA6 = math.pi ** 6 / 945.0


@dataclass(frozen=True)
class CounterexampleSpec:
    """Derived quantities of a truncated atomic cascade.

    `partial_sum_w_over_a` uses the raw weights (before renormalization to
    total mass one) so it can be compared with the closed-form full-series
    value.  `midpoints` are the reciprocal-gap midpoints b_k used by the gap
    certificates."""

    n_atoms: int
    locations: tuple[float, ...]          # decreasing, as generated
    weights: tuple[float, ...]            # renormalized
    partial_sum_w_over_a: float
    ratios: tuple[float, ...]             # a_k a_{k+1} (a_k + a_{k+1}) / (a_k - a_{k+1})^2
    ratios_decreasing: bool
    midpoints: tuple[float, ...]          # b_k = (1/a_{k+1} + 1/a_k) / 2
    truncated_mass: float                 # raw weight mass beyond the truncation


def build_counterexample(n_atoms: int):
    """Truncated zeta6 cascade, whose marginals are never log-unimodal: the
    k-th atom has weight k^-6 / zeta(6) at location k^-4.

    Returns (measure, spec): the measure has weights renormalized to total
    mass one; the spec records the raw quantities and certificates inputs.
    """
    if n_atoms < 3:
        raise DomainError(f"need at least 3 atoms, got {n_atoms}")
    ks = range(1, n_atoms + 1)
    w_raw = np.array([1.0 / (_ZETA6 * k ** 6) for k in ks])
    locs = np.array([float(k) ** -4 for k in ks])

    ratios = locs[:-1] * locs[1:] * (locs[:-1] + locs[1:]) / (locs[:-1] - locs[1:]) ** 2
    mids = 0.5 * (1.0 / locs[1:] + 1.0 / locs[:-1])
    weights = w_raw / w_raw.sum()
    measure = Atomic(weights[::-1], locs[::-1])
    spec = CounterexampleSpec(
        n_atoms=n_atoms,
        locations=tuple(locs.tolist()),
        weights=tuple(weights.tolist()),
        partial_sum_w_over_a=float(np.sum(w_raw / locs)),
        ratios=tuple(ratios.tolist()),
        ratios_decreasing=bool(np.all(np.diff(ratios) < 0)),
        midpoints=tuple(mids.tolist()),
        truncated_mass=float(max(1.0 - w_raw.sum(), 0.0)),
    )
    return measure, spec


@dataclass(frozen=True)
class GapCertificate:
    k: int
    midpoint: float
    f_value: float
    below: bool


def gap_certificate(nu: Measure, t: float, k: int) -> GapCertificate:
    """Evaluate the blow-up integral at the k-th reciprocal-gap midpoint,
    by the predicate `blowup_region` scans with (`flow.capped_blowup`, the
    angle kernel at the floor angle).

    `below=True` certifies that the blow-up region excludes the midpoint
    while containing the reciprocals of the two adjacent atoms (poles of
    the integral), hence is disconnected and the time-t marginal is not
    log-unimodal."""
    at = nu.atoms()
    if at is None:
        raise DomainError("gap certificates need an atomic measure")
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    locs = at[1][::-1]
    if not (1 <= k <= locs.size - 1):
        raise IndexOutOfRange(
            f"k={k} needs atoms k and k+1; measure has {locs.size} atoms")
    a_k, a_k1 = float(locs[k - 1]), float(locs[k])
    b_k = 0.5 * (1.0 / a_k1 + 1.0 / a_k)
    f_val = capped_blowup(FlowContext(nu, t), b_k)
    return GapCertificate(k, b_k, f_val, f_val < 1.0 / t)
