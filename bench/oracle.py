"""Independent reference values for the benchmark's output checks.

Nothing here imports freemult.  The starting measure is read from the same
JSON the CLI is given and rebuilt from its closed form; integrals use
``scipy.integrate.quad`` (density measures) or exact sums (atoms), and roots
use ``scipy.optimize.brentq``.

All kernels are written in the log variable y = log(r xi), in which the
pole of the flow kernels sits at y = 0 and the denominators lose no digits:

    (1 - r xi)^2 + 4 r xi sin^2(theta/2) = 4 r xi (sinh^2(y/2) + sin^2(theta/2))

so that, with h the density of log(xi),

    I1(r, theta) = int h(v) / (4 (sinh^2(y/2) + sin^2(theta/2))) dv
    I2(r, theta) = int h(v) sinh(y) / (2 (sinh^2(y/2) + sin^2(theta/2))) dv

The angle equation is sin(theta)/theta * I1 = 1/t, the radial map is
Lambda(r) = r exp((t/2) I2), and x q(x) = theta / (pi t) at x = 1/Lambda(r).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

_QUAD_RTOL = 1e-13
_ANGLE_MIN = 1e-12
_RTOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class StartMeasure:
    """A starting measure as the oracle sees it: atoms (w, a), or the
    density of log(xi) on (vlo, vhi)."""

    w: np.ndarray | None = None
    a: np.ndarray | None = None
    logdens: object = None
    vlo: float = -math.inf
    vhi: float = math.inf
    mean: float = math.inf

    @property
    def atomic(self) -> bool:
        return self.a is not None


def from_spec(spec: dict) -> StartMeasure:
    """Rebuild a measure from the CLI's measure JSON."""
    kind = spec["kind"]
    if kind == "atomic":
        pairs = sorted(((float(d["w"]), float(d["a"])) for d in spec["atoms"]),
                       key=lambda p: p[1])
        w = np.array([p[0] for p in pairs])
        a = np.array([p[1] for p in pairs])
        return StartMeasure(w=w, a=a, mean=float(np.dot(w, a)))
    if kind != "named":
        raise ValueError(f"oracle has no rule for measure kind {kind!r}")
    fam, p = spec["family"], {k: float(v) for k, v in spec.get("params", {}).items()}
    if fam == "dirac":
        return StartMeasure(w=np.array([1.0]), a=np.array([p["c"]]), mean=p["c"])
    if fam == "gamma":
        k, th = p["p"], p["theta"]
        norm = math.lgamma(k) + k * math.log(th)
        return StartMeasure(
            logdens=lambda v: math.exp(k * v - math.exp(min(v, 700.0)) / th - norm),
            mean=k * th)
    if fam == "lambda":
        b = p["b"]
        cb, cosb = math.sin(b) / (math.pi - b), math.cos(b)
        # xi p(xi) = cb / (xi^-1 - 2 cos b + xi), even in v when b = pi/2
        return StartMeasure(
            logdens=lambda v: cb / (2.0 * math.cosh(min(abs(v), 700.0)) - 2.0 * cosb))
    if fam == "log_normal":
        m, s = p["m"], p["s"]
        c = 1.0 / (s * math.sqrt(2.0 * math.pi))
        return StartMeasure(logdens=lambda v: c * math.exp(-0.5 * ((v - m) / s) ** 2),
                            mean=math.exp(m + 0.5 * s * s))
    if fam == "uniform":
        lo, hi = p["lo"], p["hi"]
        return StartMeasure(logdens=lambda v: math.exp(v) / (hi - lo),
                            vlo=math.log(lo), vhi=math.log(hi),
                            mean=0.5 * (lo + hi))
    raise ValueError(f"oracle has no closed form for family {fam!r}")


def _quad_pieces(f, v0: float, width: float, vlo: float, vhi: float) -> float:
    """int f over (vlo, vhi), split around the peak at v0 of the given
    width so that quad sees every scale of the kernel."""
    offs = [width * 0.25, width, 4.0 * width, 1.0, 4.0]
    cuts = sorted({v0 + s * o for o in offs for s in (-1.0, 1.0)} | {v0})
    edges = [vlo] + [c for c in cuts if vlo < c < vhi] + [vhi]
    parts = []
    with warnings.catch_warnings():
        # a piece that misses 1e-13 shows up in the check's bound instead
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=_QUAD_RTOL,
                                    limit=400)
            parts.append(val)
    return math.fsum(parts)


def _kernel(nu: StartMeasure, r: float, theta: float, which: int) -> float:
    """I1 (which=1) or I2 (which=2) at (r, theta); I1 at theta = 0 is the
    blow-up integral f(r)."""
    s2 = math.sin(0.5 * theta) ** 2
    if nu.atomic:
        y = np.log(r * nu.a)
        den = np.sinh(0.5 * y) ** 2 + s2
        with np.errstate(divide="ignore"):
            if which == 1:
                return math.fsum(nu.w / (4.0 * den))
            return math.fsum(nu.w * np.sinh(y) / (2.0 * den))
    v0 = -math.log(r)
    h = nu.logdens

    # beyond |y| = 700 the kernels have reached their limits 0 and sign(y)
    if which == 1:
        def k(v):
            y = min(max(v - v0, -700.0), 700.0)
            return h(v) / (4.0 * (math.sinh(0.5 * y) ** 2 + s2))
    else:
        def k(v):
            y = min(max(v - v0, -700.0), 700.0)
            return h(v) * math.sinh(y) / (2.0 * (math.sinh(0.5 * y) ** 2 + s2))

    return _quad_pieces(k, v0, max(theta, 1e-6), nu.vlo, nu.vhi)


def blowup(nu: StartMeasure, r: float) -> float:
    """f(r) = int r xi / (1 - r xi)^2 d nu, +inf when the pole carries mass."""
    if nu.atomic:
        y = np.log(r * nu.a)
        if np.any(y == 0.0):
            return math.inf
        return math.fsum(nu.w / (4.0 * np.sinh(0.5 * y) ** 2))
    if nu.vlo < -math.log(r) < nu.vhi:
        return math.inf
    return _kernel(nu, r, 0.0, 1)


def angle(nu: StartMeasure, t: float, r: float, guess: float = 1.0) -> float:
    """u(r): 0 off the blow-up region, else the root of the angle equation,
    bracketed downward from `guess` and solved by brentq."""
    target = 1.0 / t
    if blowup(nu, r) <= target:
        return 0.0
    g = lambda th: math.sin(th) / th * _kernel(nu, r, th, 1) - target
    hi = math.pi - 1e-12
    lo = min(max(guess, 1e-6), 1.0)
    glo = g(lo)
    if glo < 0.0:
        hi = lo
        while glo <= 0.0:
            lo *= 0.5
            if lo < _ANGLE_MIN:
                return 0.0
            glo = g(lo)
    else:
        # tighten the upper end near the guess before falling back to pi
        for cand in (lo * 1.01, lo * 1.1, min(lo * 2.0, hi)):
            if cand < hi and g(cand) < 0.0:
                hi = cand
                break
    return optimize.brentq(g, lo, hi, xtol=1e-300, rtol=_RTOL, maxiter=200)


def radial_map(nu: StartMeasure, t: float, r: float,
               guess: float = 1.0) -> tuple[float, float]:
    """(Lambda(r), u(r))."""
    th = angle(nu, t, r, guess)
    return r * math.exp(0.5 * t * _kernel(nu, r, th, 2)), th


def density_at(nu: StartMeasure, t: float, x: float) -> tuple[float, float]:
    """(q(x), r) with Lambda(r) = 1/x, solved in log r by brentq."""
    last = [1.0]

    def F(rho):
        lam, th = radial_map(nu, t, math.exp(rho), last[0])
        if th > 0.0:
            last[0] = th
        return math.log(lam) + math.log(x)

    a = -math.log(x)
    fa = F(a)
    step = 0.25 if fa < 0.0 else -0.25
    b, fb = a, fa
    for _ in range(400):
        a, fa = b, fb
        b = a + step
        fb = F(b)
        if fa * fb <= 0.0:
            break
    else:
        raise ArithmeticError(f"no bracket for Lambda(r) = 1/{x}")
    rho = optimize.brentq(F, min(a, b), max(a, b), xtol=1e-15, rtol=_RTOL,
                          maxiter=200)
    r = math.exp(rho)
    lam, th = radial_map(nu, t, r, last[0])
    return th * lam / (math.pi * t), r


# ---------------------------------------------------------------------------
# dirac(c) in closed form
# ---------------------------------------------------------------------------

def dirac_branch(t: float, theta: float, upper: bool) -> tuple[float, float]:
    """For dirac(1): the root r of r^2 - r (2 cos th + t sin th / th) + 1 = 0
    on the chosen branch, and x = 1/Lambda(r)."""
    bcoef = 2.0 * math.cos(theta) + t * math.sin(theta) / theta
    disc = max(bcoef * bcoef - 4.0, 0.0)
    r_hi = 0.5 * (bcoef + math.sqrt(disc))
    r = r_hi if upper else 1.0 / r_hi
    den = 1.0 + r * r - 2.0 * r * math.cos(theta)
    return r, 1.0 / (r * math.exp(0.5 * t * (r * r - 1.0) / den))


def dirac_theta_max(t: float) -> float:
    """Largest angle: where 2 cos th + t sin th / th = 2 (double root r = 1)."""
    return optimize.brentq(
        lambda th: 2.0 * math.cos(th) + t * math.sin(th) / th - 2.0,
        1e-9, math.pi, xtol=1e-300, rtol=_RTOL)


def dirac_density(t: float, x: float) -> float:
    """q(x) for dirac(1) from the closed form: the branch is fixed by the
    side of the mode x = 1 (Lambda(1) = 1), and theta by bisection on x."""
    if x == 1.0:
        theta = dirac_theta_max(t)
        return theta / (math.pi * t * x)
    upper = x < 1.0  # r > 1 maps to x < 1
    th_max = dirac_theta_max(t)
    x_edge = dirac_branch(t, _ANGLE_MIN, upper)[1]
    if (x - x_edge) * (1.0 - x) <= 0.0:
        return 0.0
    theta = optimize.brentq(lambda th: dirac_branch(t, th, upper)[1] - x,
                            _ANGLE_MIN, th_max, xtol=1e-300,
                            rtol=_RTOL, maxiter=300)
    return theta / (math.pi * t * x)


# ---------------------------------------------------------------------------
# level equation, blow-up certificates and the psi transform
# ---------------------------------------------------------------------------

def level_value(nu: StartMeasure, R: float, r: float) -> float:
    """Theta_R(r) = sin R / R * I1(r, R)."""
    return math.sin(R) / R * _kernel(nu, r, R, 1)


def cascade(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """zeta(6) cascade: weight k^-6 (renormalized) at k^-4, k = 1..n,
    returned in increasing location order."""
    k = np.arange(1, n_atoms + 1, dtype=float)
    w = k ** -6.0
    w /= w.sum()
    return w[::-1].copy(), (k ** -4.0)[::-1].copy()


def psi_prime_value(spec: dict, z: complex, upper: float) -> complex:
    """psi'(z) = int x / (1 - x z)^2 d nu(x) for a named density on
    (0, upper], split at the real pole 1/z."""
    nu = from_spec(spec)
    dens = lambda x: nu.logdens(math.log(x)) / x
    pole = (1.0 / z).real
    cuts = [c for c in (pole - 0.1, pole, pole + 0.1) if 0.0 < c < upper]
    edges = [0.0] + cuts + [upper]
    total = 0j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(lambda x: x / (1.0 - x * z) ** 2 * dens(x),
                                    lo, hi, epsabs=0.0, epsrel=1e-12, limit=400,
                                    complex_func=True)
            total += val
    return total
