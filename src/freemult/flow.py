"""Density of the free positive multiplicative Brownian flow at time t.

For a starting measure nu on the positive half-line, the marginal at time
t > 0 is absolutely continuous and its density q satisfies

    x * q(x) = u(Lambda^-1(1/x)) / (pi * t),

where u(r) is the unique angle in (0, pi) solving the implicit equation

    sin(theta)/theta * int r*xi / (1 + r^2 xi^2 - 2 r xi cos theta) d nu = 1/t

whenever the blow-up integral f(r) = int r*xi/(1 - r*xi)^2 d nu exceeds 1/t
(and u(r) = 0 otherwise), and Lambda is the radial homeomorphism

    Lambda(r) = r * exp( (t/2) int (r^2 xi^2 - 1) / |1 - r xi e^{i u(r)}|^2 d nu ).

The denominators are evaluated in the cancellation-free form
(1 - r*xi)^2 + 4 r*xi sin^2(theta/2).

The support of the marginal is the closure of the image of the blow-up
region {f > 1/t} under r -> 1/Lambda(r); the density curve is sampled
parametrically in r inside each component (exact values, no interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from scipy import optimize

from ._quad import relaxed_retry
from .errors import (
    BracketFailure,
    DomainError,
    EmptyVSet,
    InvariantViolation,
)
from .measures import Measure

_THETA_EDGE = 1e-14
# Angles below this floor are reported as 0: their density contribution is
# u/(pi t x) < 1e-9, far below every curve tolerance, while the kernel peak
# they would require resolving has relative width below the floor.  The
# in-region predicate evaluates the angle kernel AT the floor, which equals
# the blow-up integral away from poles and regularizes it near them.
ANGLE_FLOOR = 1e-9
_S2_FLOOR = math.sin(0.5 * ANGLE_FLOOR) ** 2
_DENOM_FLOOR = 1e-280
# relative Newton step and bracket width that end an angle solve
_ANGLE_STEP = 1e-12
_ANGLE_MAX_ITER = 100
# radial-map bracket doublings and blow-up boundary bisections at most
_MAX_BRACKET_EXPANSIONS = 60
_BOUNDARY_MAX_ITER = 200
# log-spaced radii of the blow-up scan, besides the reciprocal atoms or
# support
_SCAN_POINTS = 1024


@dataclass(frozen=True)
class FlowContext:
    """Immutable bundle of a starting measure, a time, and solver knobs.

    tol_root is the relative residual target of the angle and inversion
    solves; tol_quad is the quadrature tolerance used inside the solver
    (tighter than the public integration default so root residuals are not
    limited by quadrature noise).
    """

    nu: Measure
    t: float
    tol_root: float = 1e-10
    tol_quad: float = 1e-12

    def __post_init__(self):
        if not (self.t > 0):
            raise InvariantViolation("flow.t", f"time must be positive, got {self.t}")
        if self.tol_root <= 0 or self.tol_quad <= 0:
            raise InvariantViolation("flow.tol", "tolerances must be positive")


def _kernel_rtol(rtol: float, sin_half_sq: float) -> float:
    """Achievable tolerance for the angle kernels: the cancellation noise of
    (1 - r*xi)^2 close to the pole floors the relative accuracy at roughly
    1e-16 / theta."""
    theta = max(2.0 * math.sqrt(sin_half_sq), ANGLE_FLOOR)
    return max(rtol, 1e-16 / theta)


def kernel_denominator(u, s2: float):
    """(1 - u)^2 + 4u*s2 with u = r*xi and s2 = sin^2(theta/2), floored
    away from zero: the denominator of every flow and level kernel."""
    return np.maximum((1.0 - u) ** 2 + 4.0 * u * s2, _DENOM_FLOOR)


def _kernel_integral(nu: Measure, r: float, s2: float, integrand,
                     rtol: float) -> float:
    """int integrand(r*xi, denom) d nu(xi), denom = (1 - r*xi)^2 + 4 r*xi s2.

    The one quadrature of the flow kernels: the denominator is floored, the
    panels are seeded at the pole 1/r with the Lorentzian width, and the
    tolerance is relaxed to the cancellation floor.  Atomic measures get the
    exact weighted sum from their own `integrate`."""
    xs = 1.0 / r

    def kernel(xi):
        u = r * xi
        return integrand(u, kernel_denominator(u, s2))

    scale = max(2.0 * math.sqrt(s2) * xs, xs * 1e-14)
    return float(relaxed_retry(
        lambda rt: nu.integrate(kernel, xs, scale, rtol=rt),
        _kernel_rtol(rtol, s2)))


def poisson_kernel_integral(nu: Measure, r: float, sin_half_sq: float,
                            rtol: float = 1e-12) -> float:
    """int r*xi / ((1 - r*xi)^2 + 4 r*xi sin^2(theta/2)) d nu(xi)."""
    return _kernel_integral(nu, r, sin_half_sq, lambda u, d: u / d, rtol)


def _angle_lhs_dtheta(ctx: FlowContext, r: float, theta: float,
                      ival: float) -> float:
    """d/d theta of the angle-equation LHS (the Newton slope of
    solve_angle), given ival = poisson_kernel_integral at (r, theta)."""
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    # the kernel tends to 0; the numerator's floor, reached only where d^2
    # overflows, keeps it from -inf / inf there
    dival = _kernel_integral(
        ctx.nu, r, math.sin(0.5 * theta) ** 2,
        lambda u, d: np.maximum(-u * (2.0 * u * sin_t), -1e308) / d ** 2,
        ctx.tol_quad)
    return (cos_t * theta - sin_t) / theta ** 2 * ival + sin_t / theta * dival


def capped_blowup(ctx: FlowContext, r: float) -> float:
    """Angle-equation LHS at the floor angle: the finite, resolvable stand-in
    for the blow-up integral that decides membership in the blow-up region.
    Away from poles it equals the blow-up integral to within ~1e-18
    relative; at poles it saturates around 1/ANGLE_FLOOR^2 instead of
    diverging."""
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    pref = math.sin(ANGLE_FLOOR) / ANGLE_FLOOR
    return pref * poisson_kernel_integral(ctx.nu, r, _S2_FLOOR,
                                          rtol=ctx.tol_quad)


def solve_angle(ctx: FlowContext, r: float, guess: float | None = None) -> float:
    """The angle u(r): 0 off the blow-up region, else the unique root of the
    implicit equation, with |LHS - 1/t| <= tol_root / t.

    Safeguarded Newton on log LHS against log theta (where the kernel's
    small-angle shapes c/theta and c/theta^2 are straight lines), started
    at `guess` or at theta = 1; see README "Numerical policy" for the
    bracket and the stop rule.  Roots below ANGLE_FLOOR are reported as 0."""
    target = 1.0 / ctx.t
    if capped_blowup(ctx, r) <= target:
        return 0.0
    lo, hi = ANGLE_FLOOR, math.pi - _THETA_EDGE
    # the kernel is at most 1/(4 sin^2(hi/2)) = 1/4 and nu has mass one
    if math.sin(hi) / (4.0 * hi) >= target:
        raise BracketFailure(
            f"t={ctx.t} is too large: the angle equation keeps its sign "
            f"up to theta = pi - {_THETA_EDGE}")
    theta = guess if guess is not None and lo < guess < hi else 1.0
    prev = math.inf
    for _ in range(_ANGLE_MAX_ITER):
        ival = poisson_kernel_integral(ctx.nu, r, math.sin(0.5 * theta) ** 2,
                                       rtol=ctx.tol_quad)
        lhs = math.sin(theta) / theta * ival
        if lhs > target:
            lo = theta
        else:
            hi = theta
        der = _angle_lhs_dtheta(ctx, r, theta, ival)
        step = (-math.log(lhs / target) * lhs / (theta * der)
                if der < 0.0 else math.nan)
        # near component edges LHS ~ f(r) - A theta^2 is flat in theta, so a
        # small residual alone does not pin theta
        if abs(lhs - target) <= ctx.tol_root * target and abs(step) <= _ANGLE_STEP:
            return theta * math.exp(step)
        if hi - lo <= _ANGLE_STEP * hi:  # quadrature noise at tiny angles
            return theta
        # a step that leaves the bracket or does not shrink: bisect log theta
        if math.log(lo / theta) < step < math.log(hi / theta) and abs(step) < prev:
            theta *= math.exp(step)
            prev = abs(step)
        else:
            theta = math.sqrt(lo * hi)
            prev = 0.5 * math.log(hi / lo)
    raise BracketFailure(
        f"angle solve at r={r} did not converge in {_ANGLE_MAX_ITER} steps; "
        f"bracket [{lo}, {hi}]")


def _radial_exponent(ctx: FlowContext, r: float, u: float) -> float:
    """int (r^2 xi^2 - 1) / ((1 - r*xi)^2 + 4 r*xi sin^2(u/2)) d nu(xi)."""
    # the kernel -> 1, not inf / inf, where d overflows (r*xi beyond 1e154)
    return _kernel_integral(
        ctx.nu, r, math.sin(0.5 * u) ** 2,
        lambda q, d: np.where(np.isinf(d), 1.0, (q * q - 1.0) / d),
        ctx.tol_quad)


def _radial_point(ctx: FlowContext, r: float,
                  guess: float | None = None) -> tuple[float, float]:
    """(Lambda(r), u(r)), the angle solved from `guess`."""
    u = solve_angle(ctx, r, guess=guess)
    return r * math.exp(0.5 * ctx.t * _radial_exponent(ctx, r, u)), u


def radial_map(ctx: FlowContext, r: float) -> float:
    """The increasing homeomorphism Lambda of (0, inf) onto itself."""
    return _radial_point(ctx, r)[0]


def radial_map_inverse(ctx: FlowContext, y: float, bracket=None) -> float:
    """Solve Lambda(r) = y by bracketed root finding.

    Starts from the caller-provided bracket when available, otherwise
    expands geometrically (factor 2) from the initial guess r = y.
    """
    return _inverse_point(ctx, y, bracket)[0]


def _inverse_point(ctx: FlowContext, y: float,
                   bracket=None) -> tuple[float, float]:
    """(r, u(r)) with Lambda(r) = y.  Every radius is solved once (brentq
    evaluates the bracket ends again), each angle solve starts from the last
    nonzero angle of the iteration, and the root's angle is the one solved
    there (brentq returns an evaluated point)."""
    if y <= 0:
        raise DomainError(f"y must be positive, got {y}")
    solved: dict[float, tuple[float, float]] = {}  # r -> (Lambda(r) - y, u)
    guess = None

    def g(r):
        nonlocal guess
        if r not in solved:
            lam, u = _radial_point(ctx, r, guess=guess)
            solved[r] = (lam - y, u)
            if u > 0.0:
                guess = u
        return solved[r][0]

    lo = hi = None
    if bracket is not None:
        blo, bhi = bracket
        glo, ghi = g(blo), g(bhi)
        if abs(glo) <= ctx.tol_root * y:
            return blo, solved[blo][1]
        if abs(ghi) <= ctx.tol_root * y:
            return bhi, solved[bhi][1]
        if glo < 0.0 < ghi:
            lo, hi = blo, bhi
    if lo is None:
        lo, hi = _expand_bracket(g, y)
    root = lo if lo == hi else optimize.brentq(  # lo == hi: an exact root
        g, lo, hi, xtol=1e-300, rtol=1e-13, maxiter=300)
    g(root)
    return root, solved[root][1]


def _expand_bracket(g, r0: float):
    """Bracket the root of the increasing g by steps of a factor 2 from r0."""
    g0 = g(r0)
    if g0 == 0.0:
        return r0, r0
    sign, step = (-1.0, 2.0) if g0 < 0.0 else (1.0, 0.5)
    near = r0
    for _ in range(_MAX_BRACKET_EXPANSIONS):
        far = near * step
        if sign * g(far) <= 0.0:
            return min(near, far), max(near, far)
        near = far
    raise BracketFailure(
        f"no bracket for the radial map after {_MAX_BRACKET_EXPANSIONS} "
        f"geometric expansions from r0={r0}; the map may not be monotone")


def density(ctx: FlowContext, x: float) -> float:
    """Density q(x) of the marginal at time t, exactly 0 off the support."""
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    return _inverse_point(ctx, 1.0 / x)[1] / (math.pi * ctx.t * x)


# ---------------------------------------------------------------------------
# blow-up region and support
# ---------------------------------------------------------------------------

def default_window(nu: Measure) -> tuple[float, float]:
    """Default radial search window: poles of the blow-up integral sit at
    reciprocal support points, so the window brackets the reciprocal of the
    effective support with four decades of margin."""
    slo, shi = nu.effective_support(1e-9)
    return 1e-4 / shi, 1e4 / slo


def blowup_region(ctx: FlowContext, window=None) -> list[tuple[float, float]]:
    """Maximal open intervals of {r : f(r) > 1/t} inside the window.

    Boundaries are refined by bisection on the predicate f(r) > 1/t.
    Reciprocal atoms and the reciprocal support of density measures are
    force-included in the scan so no island is missed.
    """
    nu = ctx.nu
    if window is None:
        window = default_window(nu)
    wlo, whi = float(window[0]), float(window[1])
    if not (0.0 < wlo < whi):
        raise DomainError(f"bad window {window}")
    target = 1.0 / ctx.t

    rs = [np.geomspace(wlo, whi, _SCAN_POINTS)]
    at = nu.atoms()
    if at is not None:
        recips = 1.0 / at[1]
        rs.append(recips[(recips > wlo) & (recips < whi)])
    else:
        mlo, mhi = nu.effective_support()
        plo, phi_ = max(1.0 / mhi, wlo), min(1.0 / mlo, whi)
        if plo < phi_:
            rs.append(np.geomspace(plo, phi_, 17))
    scan = np.unique(np.concatenate(rs))

    above = np.array([capped_blowup(ctx, float(r)) > target for r in scan])
    if not above.any():
        raise EmptyVSet(
            f"f never exceeds 1/t={target} on the window [{wlo}, {whi}]")

    intervals = []
    i = 0
    n = scan.size
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        lo_edge = (wlo if i == 0 else
                   _refine_boundary(ctx, scan[i - 1], scan[i], target, rising=True))
        hi_edge = (whi if j == n - 1 else
                   _refine_boundary(ctx, scan[j], scan[j + 1], target, rising=False))
        intervals.append((float(lo_edge), float(hi_edge)))
        i = j + 1
    return intervals


def _refine_boundary(ctx, a, b, target, rising: bool) -> float:
    """Bisect the predicate f(r) > target on (a, b).

    For a rising (lower) boundary, a is outside the region and b inside;
    for a falling (upper) boundary, a is inside and b outside.  Returns the
    inside-leaning edge.
    """
    lo, hi = float(a), float(b)
    for _ in range(_BOUNDARY_MAX_ITER):
        if hi - lo <= 1e-12 * hi:
            break
        mid = math.sqrt(lo * hi)
        inside = capped_blowup(ctx, mid) > target
        if inside == rising:
            hi = mid
        else:
            lo = mid
    return hi if rising else lo


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportSet:
    """Ordered disjoint closed intervals on the positive half-line."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = 0.0
        for lo, hi in self.intervals:
            if not (0.0 < lo <= hi):
                raise InvariantViolation("support.interval",
                                         f"bad interval ({lo}, {hi})")
            if lo <= prev_hi:
                raise InvariantViolation("support.order",
                                         "intervals must be disjoint and sorted")
            prev_hi = hi

    def __len__(self):
        return len(self.intervals)

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)


@dataclass(frozen=True)
class DensityCurve:
    """Sampled marginal density with its support decomposition."""

    x: np.ndarray
    q: np.ndarray
    support: SupportSet
    metadata: dict = field(default_factory=dict)

    def xq(self) -> np.ndarray:
        return self.x * self.q

    def mass(self) -> float:
        """Trapezoid rule for x*q over log x, the samples' spacing variable."""
        return float(np.trapezoid(self.xq(), np.log(self.x)))

    def mean(self) -> float:
        """Trapezoid rule for x^2*q over log x."""
        return float(np.trapezoid(self.x * self.xq(), np.log(self.x)))


def density_curve(ctx: FlowContext, points: int = 512, window=None,
                  r_window=None) -> DensityCurve:
    """Sample the marginal density over its support.

    The curve is sampled parametrically: inside each blow-up component the
    radial variable runs over a log grid and every sample is an exact
    (r -> 1/Lambda(r), u/(pi t x)) pair, so no interpolation error enters.
    `window`, when given, clips the curve in x-space; `r_window` overrides
    the radial scan window.
    """
    if points < 64:
        raise DomainError(f"need at least 64 points, got {points}")
    if window is not None:
        wlo, whi = float(window[0]), float(window[1])
        if not (0.0 < wlo < whi < math.inf):
            raise DomainError(f"bad window {window}")
    tolerances = {"tol_root": ctx.tol_root, "tol_quad": ctx.tol_quad}
    meta = {"t": ctx.t, "measure": ctx.nu.to_dict(), "points": points,
            "window": list(window) if window else None,
            "tolerances": tolerances, "warnings": [], "merged": 0}

    try:
        r_ints = blowup_region(ctx, window=r_window)
    except EmptyVSet:
        rw = r_window or default_window(ctx.nu)
        x = np.geomspace(1.0 / rw[1], 1.0 / rw[0], points)
        meta["warnings"].append("empty blow-up region: zero curve")
        meta["mass"] = 0.0
        return DensityCurve(x, np.zeros_like(x), SupportSet(()), meta)

    # map components to x-space (reverse order: 1/Lambda is decreasing)
    comps = []
    for rlo, rhi in r_ints:
        x_hi = 1.0 / radial_map(ctx, rlo)
        x_lo = 1.0 / radial_map(ctx, rhi)
        if x_lo > x_hi:
            meta["warnings"].append("radial map not increasing on a component")
            x_lo, x_hi = x_hi, x_lo
        comps.append([x_lo, x_hi, rlo, rhi])
    comps.sort(key=lambda c: c[0])

    if window is not None:
        comps = _clip_components(ctx, comps, wlo, whi)
        if not comps:
            x = np.geomspace(wlo, whi, points)
            meta["warnings"].append("window excludes the whole support")
            meta["mass"] = 0.0
            return DensityCurve(x, np.zeros_like(x), SupportSet(()), meta)

    comps, merged = _merge_close(comps, points)
    meta["merged"] = merged

    widths = np.array([math.log(c[1] / c[0]) if c[1] > c[0] else 1e-12
                       for c in comps])
    alloc = np.maximum(16, np.round(points * widths / widths.sum())).astype(int)

    xs_parts, qs_parts = [], []
    for (x_lo, x_hi, rlo, rhi), n_i in zip(comps, alloc):
        r_grid = np.geomspace(rlo, rhi, int(n_i))[::-1]
        xs = np.empty(r_grid.size)
        qs = np.empty(r_grid.size)
        u1 = u2 = 0.0  # the component's last two nonzero angles
        for k, r in enumerate(r_grid):
            # log-linear continuation along the log-spaced radii
            lam, u = _radial_point(ctx, float(r),
                                   guess=u1 * u1 / u2 if u2 else u1 or None)
            if u > 0.0:
                u1, u2 = u, u1
            xs[k] = 1.0 / lam
            qs[k] = 0.0 if u == 0.0 else u / (math.pi * ctx.t) * lam
        order = np.argsort(xs)
        xs_parts.append(xs[order])
        qs_parts.append(qs[order])

    x_all, q_all = _assemble_with_gaps(xs_parts, qs_parts)
    support = SupportSet(tuple((c[0], c[1]) for c in comps))
    curve = DensityCurve(x_all, q_all, support, meta)
    meta["mass"] = curve.mass()
    return curve


def _clip_components(ctx, comps, x_lo_w, x_hi_w):
    out = []
    for x_lo, x_hi, rlo, rhi in comps:
        if x_hi < x_lo_w or x_lo > x_hi_w:
            continue
        if x_lo < x_lo_w:
            rhi = radial_map_inverse(ctx, 1.0 / x_lo_w, bracket=(rlo, rhi))
            x_lo = x_lo_w
        if x_hi > x_hi_w:
            rlo = radial_map_inverse(ctx, 1.0 / x_hi_w, bracket=(rlo, rhi))
            x_hi = x_hi_w
        out.append([x_lo, x_hi, rlo, rhi])
    return out


def _merge_close(comps, points):
    total = sum(math.log(c[1] / c[0]) for c in comps if c[1] > c[0]) or 1.0
    resolution = 2.0 * total / points
    merged = 0
    out = [comps[0]]
    for comp in comps[1:]:
        gap = math.log(comp[0] / out[-1][1])
        if gap < resolution:
            out[-1] = [out[-1][0], comp[1], out[-1][2], comp[3]]
            merged += 1
        else:
            out.append(comp)
    return out, merged


def _assemble_with_gaps(xs_parts, qs_parts):
    xs, qs = [], []
    for i, (xp, qp) in enumerate(zip(xs_parts, qs_parts)):
        if i > 0:
            gap_mid = math.sqrt(xs_parts[i - 1][-1] * xp[0])
            xs.append(np.array([gap_mid]))
            qs.append(np.array([0.0]))
        xs.append(xp)
        qs.append(qp)
    x = np.concatenate(xs)
    q = np.concatenate(qs)
    # enforce strict monotonicity (guards against duplicated edge samples)
    keep = np.concatenate([[True], np.diff(x) > 0])
    return x[keep], q[keep]
