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
from dataclasses import dataclass
import numpy as np

from ._roots import brentq
from .errors import (
    BracketFailure,
    DomainError,
    EmptyVSet,
    FloatOverflow,
    InvariantViolation,
)
from .measures import Atomic, Measure

_THETA_EDGE = 1e-14
_THETA_HI = math.pi - _THETA_EDGE
# Angles below this floor are reported as 0: at t near 1 their density
# contribution u/(pi t x) is below 1e-9, far below every curve tolerance,
# while the kernel peak they would require resolving has relative width
# below the floor.  Interior angles scale like u ~ pi t x q: below t ~ 1e-8
# they come within a decade of the floor.  The in-region predicate
# evaluates the angle kernel AT the floor, which equals the blow-up
# integral away from poles and regularizes it near them.
ANGLE_FLOOR = 1e-9
_S2_FLOOR = math.sin(0.5 * ANGLE_FLOOR) ** 2
_DENOM_FLOOR = 1e-280
_NORMAL_MIN = np.finfo(float).tiny
# relative Newton step and bracket width that end an angle solve (a density
# row's step may also reach kappa times its kernel sums' tolerance)
_ANGLE_STEP = 1e-12
# the angle solve's relative residual |LHS - 1/t| * t, the other half of its
# Newton stop rule (the step rule binds first unless this is near 1e-12;
# below theta ~ 1e-6 a density row's is its kernel sums' floor 1e-16/theta),
# and the quadrature tolerance of the solver's kernel sums over a density
# start, tight so that quadrature noise does not limit the residual
_ANGLE_RESIDUAL = 1e-10
_KERNEL_SUM_RTOL = 1e-12
_ANGLE_MAX_ITER = 100
# radial-map bracket doublings (past t/(2 ln 2)) and boundary bisections
_MAX_BRACKET_EXPANSIONS = 60
_BOUNDARY_MAX_ITER = 200
# log-spaced radii of the blow-up scan, besides the reciprocal atoms or
# support
_SCAN_POINTS = 1024
# A density start's floor-angle sum at r holds the pole term
# (sin F / F) (pi / F) xi0 p(xi0), xi0 = 1/r, F = ANGLE_FLOOR and p the
# density: the kernel makes of the pole a Lorentzian of half-width F xi0,
# half of which lies in the window xi0 (1 +- F).  Where p is at least its
# smallest value at the window's ends and middle across the window
# (monotone or concave there: a named family inside its effective support,
# a GridDensity unless a knot in the window is a local minimum), the sum
# reads at least half the term taken at that smallest value, the rest of
# the sum being positive.  A term above this many times 1/t puts r in the
# blow-up region with a factor of two to spare.  The smallest value, not
# p(xi0), is taken for jumps (the ends of uniform, a GridDensity's end
# knots), where one side reads 0, and for singular ends, where p(xi0)
# overstates the sum up to a thousandfold (beta(1/2, 1/2) within 2e-15 of 1).
_POLE_TERM_MARGIN = 4.0


@dataclass(frozen=True)
class FlowContext:
    """A starting measure and a time 0 < t < inf: all that fixes the
    marginal.  The solver's accuracy is fixed (`_ANGLE_RESIDUAL`,
    `_KERNEL_SUM_RTOL`, `_ANGLE_STEP`), and the inversion of Lambda runs
    Brent at its own rtol 1e-13."""

    nu: Measure
    t: float

    def __post_init__(self):
        if not (0.0 < self.t < math.inf):
            raise InvariantViolation(
                "flow.t", f"time must be positive and finite, got {self.t}")


def check_points(points: int) -> None:
    """A density curve, or a level profile, takes at least 64 samples."""
    if points < 64:
        raise DomainError(f"need at least 64 points, got {points}")


def _kernel_rtol(rtol: float, sin_half_sq):
    """Achievable tolerance for the angle kernels, at one sin^2(theta/2) or
    at each of an array: the cancellation noise of (1 - r*xi)^2 close to
    the pole floors the relative accuracy at roughly 1e-16 / theta."""
    theta = np.maximum(2.0 * np.sqrt(sin_half_sq), ANGLE_FLOOR)
    return np.maximum(rtol, 1e-16 / theta)


def kernel_denominator(u, s2: float):
    """(1 - u)^2 + 4u*s2 with u = r*xi and s2 = sin^2(theta/2), floored
    away from zero: the denominator of every flow and level kernel."""
    return np.maximum((1.0 - u) ** 2 + 4.0 * u * s2, _DENOM_FLOOR)


def _kernel_sums(nu: Measure, rs: np.ndarray, s2, integrand, rtol: float,
                 *cols) -> np.ndarray:
    """int integrand(r*xi, denom, *(c[k] for c in cols)) d nu(xi) at each
    radius r = rs[k] with sin^2(theta/2) = s2[k] (or the one s2).

    The one sum of the flow kernels, one `Measure.integrate_rows` call: an
    atomic nu gives exact atom sums, with no seeds; a density nu one
    quadrature a row, seeded at the pole 1/r with the Lorentzian width and
    relaxed to the cancellation floor (`_kernel_rtol`)."""
    s2 = np.asarray(s2, float)

    def kernel(xi, k):
        u = rs[k] * xi
        return integrand(u, kernel_denominator(u, s2[k] if s2.ndim else s2),
                         *(c[k] for c in cols))

    if isinstance(nu, Atomic):
        # atom sums are exact: the trouble points and the tolerance go unused
        return nu.integrate_rows(kernel, rs, rs, 0.0)[0]
    xs = 1.0 / rs
    scales = np.maximum(2.0 * np.sqrt(s2) * xs, xs * 1e-14)
    return nu.integrate_rows(kernel, xs, scales, _kernel_rtol(rtol, s2))[0]


def _per_radius(values, r):
    """values(rs) at the radii r as a flat float array, in the shape of r: a
    float for one radius.  The one check of the radius functions: a radius
    that is not positive and finite is a DomainError."""
    r = np.asarray(r, float)
    ok = (r > 0.0) & (r < math.inf)
    if not ok.all():
        raise DomainError(f"r must be positive and finite, got {r[~ok][0]}")
    vals = values(r.ravel())
    return float(vals[0]) if r.ndim == 0 else vals.reshape(r.shape)


def _poisson(u, d):
    """The Poisson kernel u / d, with its limit 0 where u = r*xi overflows
    to inf (there u / d reads inf / inf)."""
    return np.minimum(u, 1e308) / d


def _slope(u, d, sin_t):
    """d/d theta of u / d, times d^2 / (-2 u^2): the kernel tends to 0; the
    numerator's floor, reached only where d^2 overflows, keeps it from
    -inf / inf there."""
    return np.maximum(-u * (2.0 * u * sin_t), -1e308) / d ** 2


def _radial(q, d):
    """(q^2 - 1) / d, which tends to 1, not inf / inf, where d overflows
    (q = r*xi beyond 1e154)."""
    return np.where(np.isinf(d), 1.0, (q * q - 1.0) / d)


def poisson_kernel_integral(nu: Measure, r, sin_half_sq: float,
                            rtol: float = 1e-12):
    """int r*xi / ((1 - r*xi)^2 + 4 r*xi sin^2(theta/2)) d nu(xi) at one
    radius r (a float) or at each of an array of radii."""
    # the kernel takes its limit where r*xi overflows
    with np.errstate(over="ignore", invalid="ignore"):
        return _per_radius(
            lambda rs: _kernel_sums(nu, rs, sin_half_sq, _poisson, rtol), r)


def _angle_lhs_dtheta(ctx: FlowContext, r, theta, ival):
    """d/d theta of the angle-equation LHS at radii r and angles theta, the
    Newton slope of `_radial_points`, given the Poisson kernel sums ival."""
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    dival = _kernel_sums(ctx.nu, r, np.sin(0.5 * theta) ** 2, _slope,
                         _KERNEL_SUM_RTOL, sin_t)
    return (cos_t * theta - sin_t) / theta ** 2 * ival + sin_t / theta * dival


def capped_blowup(ctx: FlowContext, r):
    """Angle-equation LHS at the floor angle, at one radius r (a float) or
    at each of an array of radii: the finite, resolvable stand-in for the
    blow-up integral that decides membership in the blow-up region.  Away
    from poles it equals the blow-up integral to within ~1e-18 relative; at
    poles it saturates around 1/ANGLE_FLOOR^2 instead of diverging."""
    # the kernel takes its limit where r*xi overflows
    with np.errstate(over="ignore", invalid="ignore"):
        return _per_radius(lambda rs: math.sin(ANGLE_FLOOR) / ANGLE_FLOOR
                           * _kernel_sums(ctx.nu, rs, _S2_FLOOR, _poisson,
                                          _KERNEL_SUM_RTOL), r)


def _in_blowup_region(ctx: FlowContext, rs: np.ndarray) -> np.ndarray:
    """capped_blowup(ctx, rs) > 1/t at each radius of rs.  Over a density
    start, a radius whose pole term exceeds _POLE_TERM_MARGIN / t is in the
    region without a quadrature (an infinite term decides too, a nan one
    never); the other radii, and every radius of an atomic start, are
    decided by `capped_blowup`."""
    nu, target = ctx.nu, 1.0 / ctx.t
    if nu.atoms() is not None:
        return capped_blowup(ctx, rs) > target
    # the window must lie inside the effective support, the range the
    # quadrature integrates over
    lo, hi = nu.effective_support()
    with np.errstate(all="ignore"):
        xi0 = 1.0 / rs
        window = xi0 * np.array([[1.0 - ANGLE_FLOOR], [1.0],
                                 [1.0 + ANGLE_FLOOR]])
        p_min = nu.density(window.ravel()).reshape(3, -1).min(axis=0)
        pole = (math.sin(ANGLE_FLOOR) / ANGLE_FLOOR * math.pi / ANGLE_FLOOR
                * xi0 * p_min)
    inside = ((pole > _POLE_TERM_MARGIN * target) & (lo < window[0])
              & (window[2] < hi))
    todo = np.flatnonzero(~inside)
    if todo.size:
        inside[todo] = capped_blowup(ctx, rs[todo]) > target
    return inside


def solve_angle(ctx: FlowContext, r):
    """The angle u(r) at one radius r (a float) or at each of an array of
    radii: 0 off the blow-up region, else the unique root of the implicit
    equation, solved by `_radial_points` to |LHS - 1/t| <= max(1e-10, tau)
    / t, tau the tolerance of the kernel sums at the angle: 0 over an
    atomic start, else max(1e-12, 1e-16 / u) (`_kernel_rtol`)."""
    return _per_radius(lambda rs: _radial_points(ctx, rs)[1], r)


def _require_sign_change(ctx: FlowContext) -> None:
    """The angle bracket [ANGLE_FLOOR, _THETA_HI] holds a root at every
    radius of the blow-up region unless t is too large."""
    # the kernel is at most 1/(4 sin^2(hi/2)) = 1/4 and nu has mass one
    if math.sin(_THETA_HI) / (4.0 * _THETA_HI) >= 1.0 / ctx.t:
        raise BracketFailure(
            f"t={ctx.t} is too large: the angle equation keeps its sign "
            f"up to theta = pi - {_THETA_EDGE}")


def _radial_exponent(ctx: FlowContext, r, u):
    """int (r^2 xi^2 - 1) / ((1 - r*xi)^2 + 4 r*xi sin^2(u/2)) d nu(xi) at
    radii r and angles u."""
    return _kernel_sums(ctx.nu, r, np.sin(0.5 * u) ** 2, _radial,
                        _KERNEL_SUM_RTOL)


def _radial_points(ctx: FlowContext, rs: np.ndarray,
                   guess=None) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda(r), u(r)) at every radius of rs: the one angle solver.

    Safeguarded Newton on log LHS against log theta (where the kernel's
    small-angle shapes c/theta and c/theta^2 are straight lines), run on all
    radii in lockstep; see README "Numerical policy" for the bracket and
    the stop rule.  Each radius keeps its own bracket, step, stop rule and
    iteration limit, and starts at its own `guess` (one for all radii, or
    one a radius), or at theta = 1 where that is None or outside the
    bracket.  An iteration makes one kernel sum for the LHS and one for its
    slope at each radius still unsolved, and the radial exponent is one
    more at the end.  Roots below ANGLE_FLOOR are reported as 0.  No row's
    arithmetic reads another row, so a radius solved alone is bitwise the
    radius solved in a grid from the same guess.  The region test
    `_in_blowup_region` checks the radii."""
    nu, target = ctx.nu, 1.0 / ctx.t
    u = np.zeros(rs.size)
    # one block for the solve: the kernels take their limits where r*xi
    # overflows (1e154 and beyond), and a slope of 0 gives no Newton step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        idx = np.flatnonzero(_in_blowup_region(ctx, rs))
        if idx.size:
            _require_sign_change(ctx)
        r = rs[idx]
        lo, hi = np.full(idx.size, ANGLE_FLOOR), np.full(idx.size, _THETA_HI)
        theta = np.full(rs.size, 1.0 if guess is None else guess)[idx]
        theta = np.where((theta > ANGLE_FLOOR) & (theta < _THETA_HI), theta, 1.0)
        prev = np.full(idx.size, math.inf)
        exact = isinstance(nu, Atomic)
        for _ in range(_ANGLE_MAX_ITER):
            if not idx.size:
                break
            sin_t, s2 = np.sin(theta), np.sin(0.5 * theta) ** 2
            ival = _kernel_sums(nu, r, s2, _poisson, _KERNEL_SUM_RTOL)
            lhs = sin_t / theta * ival
            above = lhs > target
            lo = np.where(above, theta, lo)
            hi = np.where(above, hi, theta)
            der = _angle_lhs_dtheta(ctx, r, theta, ival)
            step = np.where(der < 0.0, -np.log(lhs / target) * lhs / (theta * der),
                            math.nan)
            # atom sums are exact; a quadrature a row is accurate to the
            # tolerance tau it was given, which the cancellation floor
            # raises above 1e-12 below theta ~ 1e-4: tau bounds the
            # residual, and moves the root by kappa * tau, kappa =
            # |d log theta / d log LHS|, so no smaller step is asked for
            res_tol, step_tol = _ANGLE_RESIDUAL, _ANGLE_STEP
            if not exact:
                tau = _kernel_rtol(_KERNEL_SUM_RTOL, s2)
                res_tol = np.maximum(res_tol, tau)
                step_tol = np.maximum(step_tol,
                                      np.abs(lhs / (theta * der)) * tau)
            # near component edges LHS ~ f(r) - A theta^2 is flat in theta,
            # so a small residual alone does not pin theta; a bracket this
            # narrow is where quadrature noise leaves the tiniest angles
            newton = ((np.abs(lhs - target) <= res_tol * target)
                      & (np.abs(step) <= step_tol))
            narrow = ~newton & (hi - lo <= _ANGLE_STEP * hi)
            done = newton | narrow
            if done.any():
                u[idx[newton]] = theta[newton] * np.exp(step[newton])
                u[idx[narrow]] = theta[narrow]
                idx, r, theta, lo, hi, prev, step = (
                    a[~done] for a in (idx, r, theta, lo, hi, prev, step))
            # a step that leaves the bracket or does not shrink: bisect log theta
            inside = ((np.log(lo / theta) < step) & (step < np.log(hi / theta))
                      & (np.abs(step) < prev))
            theta, prev = (np.where(inside, theta * np.exp(step), np.sqrt(lo * hi)),
                           np.where(inside, np.abs(step), 0.5 * np.log(hi / lo)))
        if idx.size:
            raise BracketFailure(
                f"angle solve at r={r[0]} did not converge in "
                f"{_ANGLE_MAX_ITER} steps; bracket [{lo[0]}, {hi[0]}]")
        expo = _radial_exponent(ctx, rs, u)
    return rs * np.exp(0.5 * ctx.t * expo), u


def radial_map(ctx: FlowContext, r):
    """The increasing homeomorphism Lambda of (0, inf) onto itself, at one
    radius r (a float) or at each of an array of radii."""
    return _per_radius(lambda rs: _radial_points(ctx, rs)[0], r)


def radial_map_inverse(ctx: FlowContext, y: float) -> float:
    """Solve Lambda(r) = y by bracketed root finding, the bracket expanded
    geometrically (factor 2) from the initial guess r = y."""
    return _inverse_point(ctx, y)[0]


def _inverse_point(ctx: FlowContext, y: float) -> tuple[float, float]:
    """(r, u(r)) with Lambda(r) = y.  Every radius is solved once (brentq
    evaluates the bracket ends again), each angle solve starts from the last
    nonzero angle of the iteration, and the root's angle is the one solved
    there (brentq returns an evaluated point)."""
    if not (0.0 < y < math.inf):
        raise DomainError(f"y must be positive and finite, got {y}")
    solved: dict[float, tuple[float, float]] = {}  # r -> (Lambda(r) - y, u)
    guess = None

    def g(r):
        nonlocal guess
        if r not in solved:
            (lam,), (u,) = _radial_points(ctx, np.array([r]), guess)
            solved[r] = (float(lam - y), float(u))
            if u > 0.0:
                guess = u
        return solved[r][0]

    # a probe whose Lambda overflows to inf only fixes the bracket's sign:
    # brentq returns the end of its last bracket with the smaller |g|, and
    # the negative end's g lies in [-y, 0), so the root's Lambda is finite.
    # Lambda(r)/r reaches about e^{+-t/2}: t/(2 ln 2) doublings more
    with np.errstate(over="ignore"):
        lo, hi = _expand_bracket(g, y, _MAX_BRACKET_EXPANSIONS
                                 + math.ceil(ctx.t / (2.0 * math.log(2.0))))
        root = lo if lo == hi else brentq(  # lo == hi: an exact root
            g, lo, hi, 1e-300, 1e-13, 300)
        g(root)
    return root, solved[root][1]


def _expand_bracket(g, r0: float, budget: int):
    """Bracket the root of the increasing g by at most `budget` steps of a
    factor 2 from r0, none of them leaving the positive floats."""
    g0 = g(r0)
    if g0 == 0.0:
        return r0, r0
    sign, step = (-1.0, 2.0) if g0 < 0.0 else (1.0, 0.5)
    near = r0
    for _ in range(budget):
        far = near * step
        if not (0.0 < far < math.inf):
            raise BracketFailure(
                f"no bracket for the radial map from r0={r0} before the "
                f"radius leaves the float range at {far}")
        if sign * g(far) <= 0.0:
            return min(near, far), max(near, far)
        near = far
    raise BracketFailure(
        f"no bracket for the radial map after {budget} geometric "
        f"expansions from r0={r0}; the map may not be monotone")


def density(ctx: FlowContext, x: float) -> float:
    """Density q(x) of the marginal at time t, exactly 0 off the support."""
    if not (0.0 < x < math.inf and 1.0 / x < math.inf):
        raise DomainError(f"x must be positive and finite with a finite "
                          f"reciprocal, got {x}")
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


def blowup_region(ctx: FlowContext) -> list[tuple[float, float]]:
    """Maximal open intervals of {r : f(r) > 1/t} inside `default_window`.

    Boundaries are refined by bisection on the predicate f(r) > 1/t,
    `_in_blowup_region`: the floor-angle sum `capped_blowup`, which over a
    density start is only computed where the density's pole term does not
    already put the radius in the region.  Reciprocal atoms and the
    reciprocal support of density measures are force-included in the scan
    so no island is missed.
    """
    nu = ctx.nu
    wlo, whi = default_window(nu)
    if not (0.0 < wlo < whi < math.inf):
        slo, shi = nu.effective_support(1e-9)
        raise DomainError(
            f"the scan window ({wlo:g}, {whi:g}) of the start's effective "
            f"support ({slo:g}, {shi:g}) leaves the float range")
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

    above = _in_blowup_region(ctx, scan)
    if not above.any():
        raise EmptyVSet(
            f"f never exceeds 1/t={target} on the window [{wlo}, {whi}]")

    # scan[k] and scan[k + 1] straddle a boundary; the boundaries alternate
    # rising (lower edge) and falling (upper edge) along the scan
    k = np.flatnonzero(above[1:] != above[:-1])
    edges = _bisect_boundaries(ctx, scan[k], scan[k + 1], above[k + 1])
    bounds = edges.tolist()
    if above[0]:
        bounds.insert(0, wlo)
    if above[-1]:
        bounds.append(whi)
    return list(zip(bounds[0::2], bounds[1::2]))


def _bisect_boundaries(ctx: FlowContext, lo: np.ndarray, hi: np.ndarray,
                       rising: np.ndarray) -> np.ndarray:
    """Bisect the predicate f(r) > 1/t (`_in_blowup_region`) in log r on
    every bracket (lo[m], hi[m]) at once, one predicate batch a step.

    A rising (lower) boundary has lo outside the region and hi inside, a
    falling (upper) one the reverse; each returns its inside end.  A
    bracket stops once hi - lo <= 1e-12 hi, or after _BOUNDARY_MAX_ITER
    midpoints, so every bracket takes the midpoints it would take alone.
    """
    lo, hi = lo.copy(), hi.copy()
    for _ in range(_BOUNDARY_MAX_ITER):
        live = np.flatnonzero(hi - lo > 1e-12 * hi)
        if not live.size:
            break
        a, b = lo[live], hi[live]
        with np.errstate(over="ignore"):
            ab = a * b
        # sqrt(a * b) wherever a * b is a normal float, and a form that
        # stays in range where it overflows or underflows
        mid = np.where((ab >= _NORMAL_MIN) & (ab < math.inf),
                       np.sqrt(ab), np.sqrt(a) * np.sqrt(b))
        to_hi = _in_blowup_region(ctx, mid) == rising[live]
        hi[live[to_hi]] = mid[to_hi]
        lo[live[~to_hi]] = mid[~to_hi]
    return np.where(rising, hi, lo)


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
    warnings: tuple[str, ...]

    def xq(self) -> np.ndarray:
        return self.x * self.q

    def mass(self) -> float:
        """Trapezoid rule for x*q over log x, the samples' spacing variable."""
        return self._trapezoid(self.xq())

    def mean(self) -> float:
        """Trapezoid rule for x^2*q over log x."""
        return self._trapezoid(self.x * self.xq())

    def _trapezoid(self, y: np.ndarray) -> float:
        """The trapezoid rule for y over log x on each support component's
        own samples, summed: a gap between components contributes 0."""
        logx = np.log(self.x)
        total = 0.0
        for lo, hi in self.support.intervals:
            own = (self.x >= lo) & (self.x <= hi)
            total += np.trapezoid(y[own], logx[own])
        return float(total)


def density_curve(ctx: FlowContext, points: int = 512) -> DensityCurve:
    """Sample the marginal density over its support.

    The curve is sampled parametrically: inside each blow-up component the
    radial variable runs over its own log grid, of at least 16 samples and
    the rest by the component's share of the summed log-widths in x, and
    every sample is an exact (r -> 1/Lambda(r), u/(pi t x)) pair, so no
    interpolation error enters.  A radial map beyond the float range at a
    component's end (at very large t) is a FloatOverflow.
    """
    check_points(points)
    warnings = []

    # an empty region is the floor-angle predicate saturating (the true one
    # is never empty for t > 0), so EmptyVSet is raised, not a zero curve
    r_ints = blowup_region(ctx)
    # map components to x-space (reverse order: 1/Lambda is decreasing)
    ends = np.array(r_ints).ravel()  # increasing
    # an end whose Lambda leaves the float range reads x = 0 or inf: raised
    # below
    with np.errstate(over="ignore", divide="ignore"):
        lam_e, u_e = _radial_points(ctx, ends)
        x_e = 1.0 / lam_e
    comps = []
    for (rlo, rhi), (x_hi, x_lo) in zip(r_ints, x_e.reshape(-1, 2).tolist()):
        if x_lo > x_hi:
            warnings.append("radial map not increasing on a component")
            x_lo, x_hi = x_hi, x_lo
        comps.append([x_lo, x_hi, rlo, rhi])
    comps.sort(key=lambda c: c[0])

    # x in (0, 1/_NORMAL_MIN] is Lambda in [_NORMAL_MIN, inf)
    if not all(0.0 < c[0] and c[1] <= 1.0 / _NORMAL_MIN for c in comps):
        raise FloatOverflow(f"t={ctx.t}: the radial map at a support "
                            f"component's end leaves the float range")

    # a difference of logs: the ratio x_hi / x_lo overflows past ~308 decades
    widths = np.array([math.log(c[1]) - math.log(c[0]) if c[1] > c[0]
                       else 1e-12 for c in comps])
    alloc = np.maximum(16, np.round(points * widths / widths.sum())).astype(int)
    grids = [np.geomspace(c[2], c[3], int(n_i))[::-1]
             for c, n_i in zip(comps, alloc)]
    lam, u = _curve_points(ctx, np.concatenate(grids), ends, lam_e, u_e)
    points_of = np.split(np.stack([lam, u]), np.cumsum(alloc)[:-1], axis=1)

    xs_parts, qs_parts = [], []
    for lam, u in points_of:
        xs = 1.0 / lam
        order = np.argsort(xs)
        xs_parts.append(xs[order])
        qs_parts.append((u / (math.pi * ctx.t) * lam)[order])

    x_all, q_all = _assemble_with_gaps(xs_parts, qs_parts)
    # each component's interval is spanned by its own end samples, so no
    # sample with q > 0 lies outside the reported support
    support = SupportSet(tuple((float(xp[0]), float(xp[-1]))
                               for xp in xs_parts))
    return DensityCurve(x_all, q_all, support, tuple(warnings))


def _curve_points(ctx: FlowContext, rs: np.ndarray, ends: np.ndarray,
                  lam_e: np.ndarray, u_e: np.ndarray):
    """(Lambda, u) at the sample radii rs of a curve, given their values at
    the component ends (sorted).  A radius that is an end takes the value
    solved there; the others are solved in levels.  The stride runs from
    the largest power of two not above their count down to 1, and a level
    solves every stride-th of them not solved yet: the first level cold,
    each later row from the log-log interpolation in r of the nonzero angles
    solved so far.  An atomic start solves them in one cold level: its sums
    are cheap batches, and its cost is the lockstep's iterations."""
    at = np.minimum(np.searchsorted(ends, rs), ends.size - 1)
    known = ends[at] == rs
    lam, u = np.empty(rs.size), np.zeros(rs.size)
    lam[known], u[known] = lam_e[at[known]], u_e[at[known]]
    todo = np.flatnonzero(~known)
    top = 1 << max(todo.size.bit_length() - 1, 0)
    levels = ([todo] if isinstance(ctx.nu, Atomic) else [todo[::top]] + [
        todo[s::2 * s] for s in (top >> j for j in range(1, top.bit_length()))])
    for k, rows in enumerate(levels):
        have = np.flatnonzero(u > 0.0)  # unsolved rows still read 0
        have = have[np.argsort(rs[have])]
        guess = (np.exp(np.interp(np.log(rs[rows]), np.log(rs[have]),
                                  np.log(u[have])))
                 if k and have.size else None)
        lam[rows], u[rows] = _radial_points(ctx, rs[rows], guess)
    return lam, u


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
