"""Unimodality and log-unimodality verdicts.

Three independent routes are implemented:

* mode counting on a sampled curve, with hysteresis suppression of
  sub-resolution oscillations (a positive measure on the half-line is
  log-unimodal exactly when x times its density is unimodal);
* the half-plane inequality check through the psi-transform, for a
  candidate mode c;
* the closed-form criterion for the lambda family: strong log-unimodality
  holds exactly when cos b <= 0, certified through the sign of the second
  derivative of the log of the log-pushforward density.

Grid checks are one-sided evidence: a violation certifies failure at the
candidate mode (up to tolerance), absence of violations on a finite grid is
supporting evidence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .analytic import half_plane_grid, psi_prime
from .errors import AtomicHasNoDensity, DegenerateInput, DomainError, InvariantViolation
from .measures import Measure

DEFAULT_HYSTERESIS = 1e-4
TOL_PICK = 1e-10
# psi' accuracy of the half-plane check: two orders of margin to TOL_PICK
# (atomic measures get the exact weighted sum)
PSI_PRIME_RTOL = 1e-8


@dataclass(frozen=True)
class ModeReport:
    verdict: str                      # unimodal | not_unimodal | inconclusive
    num_local_maxima: int
    modes: tuple[float, ...]
    resolution: float

    def __post_init__(self):
        if self.verdict not in ("unimodal", "not_unimodal", "inconclusive"):
            raise InvariantViolation("mode_report.verdict",
                                     f"bad verdict {self.verdict!r}")
        if self.verdict == "unimodal" and self.num_local_maxima > 1:
            raise InvariantViolation("mode_report.consistency",
                                     "unimodal verdict with multiple maxima")


def _filtered_maxima(y: np.ndarray, eps: float) -> list[int]:
    """Indices of the local maxima left after suppressing oscillations
    smaller than eps; a curve that ends on a rise closes on a maximum."""
    maxima: list[int] = []
    direction = 0
    i_max = 0
    v_max = v_min = float(y[0])
    for i in range(1, y.size):
        v = float(y[i])
        if v > v_max:
            v_max, i_max = v, i
        if v < v_min:
            v_min = v
        if direction >= 0 and v < v_max - eps:
            maxima.append(i_max)
            direction = -1
            v_min = v
        elif direction <= 0 and v > v_min + eps:
            direction = 1
            v_max, i_max = v, i
    if direction == 1:
        maxima.append(i_max)
    return maxima


def _parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> float:
    if i <= 0 or i >= x.size - 1:
        return float(x[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    if denom == 0:
        return float(x1)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    if a >= 0:
        return float(x1)
    vertex = -b / (2 * a)
    return float(vertex) if x0 < vertex < x2 else float(x1)


def check_hysteresis(hysteresis: float) -> None:
    """A mode count's hysteresis is a fraction in (0, 0.1) of the maximum."""
    if not (0.0 < hysteresis < 0.1):
        raise DomainError(f"hysteresis must be in (0, 0.1), got {hysteresis}")


def count_modes(x, y, hysteresis: float = DEFAULT_HYSTERESIS) -> ModeReport:
    """Count local maxima of a sampled curve after hysteresis filtering.

    The maxima left after filtering decide: two or more are not unimodal.
    Features within a factor two of the hysteresis threshold give an
    inconclusive verdict instead of a guess.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.size < 64 or x.shape != y.shape:
        raise DomainError("curve needs >= 64 samples with matching shapes")
    if not np.all(np.diff(x) > 0):
        raise DomainError("abscissae must be strictly increasing")
    check_hysteresis(hysteresis)
    vmax = float(y.max())
    if vmax <= 0.0:
        raise DegenerateInput("curve is identically zero")

    eps = hysteresis * vmax
    maxima = _filtered_maxima(y, eps)
    maxima_half = _filtered_maxima(y, 0.5 * eps)

    # the half-threshold pass sees at least as many maxima; a disagreement
    # only matters when it straddles the one-maximum line
    if len(maxima) >= 2:
        verdict = "not_unimodal"
    elif len(maxima_half) != len(maxima):
        verdict = "inconclusive"
    else:
        verdict = "unimodal"

    modes = tuple(sorted(_parabolic_refine(x, y, i) for i in maxima))
    if maxima:
        i = maxima[0]
        lo, hi = max(i - 1, 0), min(i + 1, x.size - 1)
        resolution = float((x[hi] - x[lo]) / max(hi - lo, 1))
    else:
        resolution = float(np.max(np.diff(x)))
    return ModeReport(verdict, len(maxima), modes, resolution)


def is_log_unimodal(obj, hysteresis: float = DEFAULT_HYSTERESIS) -> ModeReport:
    """Log-unimodality verdict via mode counting on x * density(x).

    Accepts a density measure, sampled at 4096 log-spaced points of its
    effective support, or a DensityCurve; atomic measures are rejected
    (sampled-curve analysis cannot see atoms).  For other samples (x, f),
    call count_modes(x, x * f)."""
    if isinstance(obj, Measure):
        if obj.atoms() is not None:
            raise AtomicHasNoDensity(
                "log-unimodality via curves needs a density; atomic measures "
                "are rejected rather than mis-judged")
        lo, hi = obj.effective_support(1e-9)
        x = np.geomspace(lo, hi, 4096)
        y = x * obj.density(x)
    else:
        x = np.asarray(obj.x, float)
        y = x * np.asarray(obj.q, float)
    return count_modes(x, y, hysteresis)


# ---------------------------------------------------------------------------
# half-plane inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PickCheckReport:
    holds: bool
    violations: tuple[tuple[complex, float], ...]
    scale: float
    tolerance: float
    # grid points whose psi' met only 100 times its quadrature tolerance
    relaxed_points: int
    evidence: str = ("violations certify failure at the candidate mode; a "
                     "clean finite grid is supporting evidence only")


def pick_inequality_check(mu: Measure, c: float | Sequence[float],
                          tol_pick: float = TOL_PICK
                          ) -> PickCheckReport | list[PickCheckReport]:
    """Check Im[z (1 - c z) psi'(z)] >= 0 over `analytic.half_plane_grid`.

    This holds for every z in the upper half-plane exactly when mu is
    log-unimodal with mode c.  The tolerance scales with the grid maximum of
    |z (1 - c z) psi'(z)| so the check is dimensionless.

    psi' comes from one `analytic.psi_prime` call over the whole grid, for
    every measure.  Given a sequence of candidate modes `c`, returns their
    reports as a list in the same order; psi' does not depend on the mode,
    so it is evaluated over the grid once for all of them.  Each report
    counts the grid points whose psi' met only the relaxed tolerance.
    """
    single = np.ndim(c) == 0
    modes = [c] if single else list(c)
    for m in modes:
        if not 0.0 < m < math.inf:
            raise DomainError(f"candidate mode must be positive and finite, "
                              f"got {m}")
    zs = half_plane_grid()
    psi_p, relaxed = psi_prime(mu, zs, rtol=PSI_PRIME_RTOL, full_output=True)
    relaxed_points = int(relaxed.sum())
    # the products stay scalar, as the array product rounds differently
    psi_p = psi_p.tolist()
    vals = [np.array([z * (1.0 - m * z) * p for z, p in zip(zs, psi_p)])
            for m in modes]
    reports = []
    for vals_c in vals:
        scale = float(np.max(np.abs(vals_c)))
        tol = tol_pick * scale
        im = vals_c.imag
        bad = im < -tol
        violations = tuple((complex(z), float(v)) for z, v in zip(zs[bad], im[bad]))
        reports.append(PickCheckReport(not violations, violations, scale, tol,
                                       relaxed_points))
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# strong log-unimodality of the lambda family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongCheckReport:
    strongly_log_unimodal: bool
    g_second: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    witness: float | None = None


def lambda_log_density_curvature(b: float) -> Callable[[np.ndarray], np.ndarray]:
    """Second derivative of log of the log-pushforward density of the
    lambda-family member with angle b:

        g''(x) = 2 e^x (cos b - 2 e^x + e^{2x} cos b)
                 / (1 - 2 e^x cos b + e^{2x})^2.
    """
    cb = math.cos(b)

    def g2(x):
        ex = np.exp(np.asarray(x, float))
        return 2.0 * ex * (cb - 2.0 * ex + ex * ex * cb) / (
            1.0 - 2.0 * ex * cb + ex * ex) ** 2

    return g2


def lambda_strong_check(b: float) -> StrongCheckReport:
    """Strong log-unimodality of the lambda-family member: true exactly when
    cos b <= 0.  When it fails, the witness x0 + 1e-3 with x0 = acosh(1/cos b)
    is returned: g''(x) has the sign of cos b cosh x - 1, positive wherever
    cosh x > 1/cos b."""
    if not (0.0 < b < math.pi):
        raise DomainError(f"b must be in (0, pi), got {b}")
    g2 = lambda_log_density_curvature(b)
    cb = math.cos(b)
    if cb <= 1e-15:  # the boundary case b = pi/2 rounds to ~6e-17
        return StrongCheckReport(True, g2, None)
    return StrongCheckReport(False, g2, math.acosh(1.0 / cb) + 1e-3)
