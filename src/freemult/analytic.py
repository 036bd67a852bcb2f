"""Complex-analytic transforms used by the checkers and the flow solver.

The psi-transform of a measure on the positive half-line,

    psi(z) = int x z / (1 - x z) d nu(x),

its z-derivative, and the half-plane transform of a measure on the real
line (a Pick function together with its derivative) are evaluated by the
same seeded adaptive quadrature as the real kernels; error control runs
jointly on real and imaginary parts through the complex modulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._quad import adaptive_quad, ladder_edges, relaxed_retry
from .errors import DomainError, InvariantViolation
from .measures import Measure

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Rectangular sampling grid in the open upper half-plane.

    The imaginary axis is log-spaced by default: violations of the checker
    inequalities concentrate near the real axis over the support of the
    measure, so resolution is spent there.
    """

    re_min: float = -10.0
    re_max: float = 10.0
    re_count: int = 64
    im_min: float = 1e-3
    im_max: float = 10.0
    im_count: int = 64
    im_spacing: str = "log"

    def __post_init__(self):
        if not (self.re_min < self.re_max):
            raise InvariantViolation("grid.re", "need re_min < re_max")
        if not (0.0 < self.im_min < self.im_max):
            raise InvariantViolation("grid.im", "need 0 < im_min < im_max")
        if self.re_count < 2 or self.im_count < 2:
            raise InvariantViolation("grid.count", "counts must be >= 2")
        if self.im_spacing not in ("log", "linear"):
            raise InvariantViolation("grid.spacing",
                                     "spacing must be 'log' or 'linear'")

    def points(self) -> np.ndarray:
        """Flat complex array of all grid points (row-major over im, re)."""
        re = np.linspace(self.re_min, self.re_max, self.re_count)
        if self.im_spacing == "log":
            im = np.geomspace(self.im_min, self.im_max, self.im_count)
        else:
            im = np.linspace(self.im_min, self.im_max, self.im_count)
        rr, ii = np.meshgrid(re, im)
        return (rr + 1j * ii).ravel()


def default_checker_grid() -> HalfPlaneGrid:
    return HalfPlaneGrid()


def _check_off_positive_axis(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise DomainError(f"z={z} lies on [0, inf)")
    return z


def _pole_seed(z: complex, lo: float, hi: float):
    """Trouble point of 1/(1 - x z) on the real axis, if near the support."""
    w = 1.0 / z
    x0, width = w.real, abs(w.imag)
    if lo - (hi - lo) < x0 < hi + (hi - lo):
        return (x0,), (max(width, abs(x0) * 1e-12, 1e-300),)
    return (), ()


def _half_plane_rtol(z: complex, rtol: float) -> float:
    """Cancellation in (1 - x z) floors the achievable relative accuracy when
    the pole 1/z sits close to the positive axis."""
    if z.real > 0.0 and z.imag != 0.0:
        return max(rtol, 4e-16 * abs(z.real) / abs(z.imag))
    return rtol


def _transform_integral(nu: Measure, kernel, z: complex, rtol: float) -> complex:
    lo, hi = nu.effective_support()
    pts, scl = _pole_seed(z, lo, hi)
    return complex(relaxed_retry(
        lambda rt: nu.integrate(kernel, points=pts, scales=scl, rtol=rt),
        _half_plane_rtol(z, rtol)))


def psi(nu: Measure, z: complex, rtol: float = 1e-11) -> complex:
    """psi-transform of `nu` at z (z off the closed positive real axis)."""
    z = _check_off_positive_axis(z)
    return _transform_integral(nu, lambda x: x * z / (1.0 - x * z), z, rtol)


def psi_prime(nu: Measure, z: complex, rtol: float = 1e-11) -> complex:
    """Derivative of the psi-transform: int x / (1 - x z)^2 d nu(x)."""
    z = _check_off_positive_axis(z)
    return _transform_integral(nu, lambda x: x / (1.0 - x * z) ** 2, z, rtol)


def brownian_sigma_transform(t: float, z: complex) -> complex:
    """Sigma-transform of the multiplicative Brownian semigroup element at
    time t: exp((t/2) (z+1)/(z-1)).  Multiplicative in t."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    z = complex(z)
    if z == 1.0:
        raise DomainError("z = 1 is the singular point of the transform")
    return cmath.exp((t / 2.0) * (z + 1.0) / (z - 1.0))


# ---------------------------------------------------------------------------
# measures on the real line (inputs of the general half-plane checker)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealMeasure:
    """Positive measure on the real line given by atoms or a gridded density.

    Only needs int d tau(x) / (1 + x^2) < inf, which holds automatically for
    finite atom lists and compactly sampled grids.
    """

    atom_list: tuple[tuple[float, float], ...] = ()
    x: np.ndarray | None = field(default=None)
    f: np.ndarray | None = field(default=None)

    @staticmethod
    def from_atoms(pairs: Sequence[tuple[float, float]]) -> "RealMeasure":
        pairs = tuple(sorted(((float(w), float(a)) for w, a in pairs),
                             key=lambda p: p[1]))
        if not pairs or any(w <= 0 for w, _ in pairs):
            raise InvariantViolation("real_measure.atoms",
                                     "need positive weights")
        return RealMeasure(atom_list=pairs)

    @staticmethod
    def from_grid(x, f) -> "RealMeasure":
        x = np.asarray(x, float)
        f = np.asarray(f, float)
        if x.ndim != 1 or f.shape != x.shape or x.size < 2:
            raise InvariantViolation("real_measure.grid", "bad grid shapes")
        if not np.all(np.diff(x) > 0) or not np.all(f >= 0):
            raise InvariantViolation("real_measure.grid",
                                     "x must increase and f must be >= 0")
        return RealMeasure(x=x, f=f)

    def _integrate(self, kernel, z: complex, rtol: float = 1e-10) -> complex:
        if self.x is None:
            return sum(w * complex(kernel(np.array([a]))[0])
                       for w, a in self.atom_list)
        lo, hi = float(self.x[0]), float(self.x[-1])
        edges = [self.x]
        if lo < z.real < hi:
            edges.append(ladder_edges(z.real, max(z.imag, 1e-300), lo, hi))
        edges = np.unique(np.concatenate(edges))
        keep = np.concatenate(
            [[True], np.diff(edges) > 4 * _EPS * np.maximum(np.abs(edges[1:]), 1.0)])
        dens = lambda u: np.interp(u, self.x, self.f, left=0.0, right=0.0)
        # cancellation in (x - z) floors the accuracy near the real axis
        span = max(abs(lo), abs(hi), 1.0)
        eff = max(rtol, 4e-16 * span / z.imag) if z.imag > 0 else rtol
        f = lambda u: np.asarray(kernel(u)) * dens(u)
        return complex(relaxed_retry(
            lambda rt: adaptive_quad(f, edges[keep], rtol=rt)[0], eff))


class PickValues(NamedTuple):
    value: complex
    derivative: complex


def pick_transform(tau: RealMeasure, z: complex) -> PickValues:
    """Half-plane transform of a real-line measure and its derivative.

    P(z) = int (1 + x z) / ((x - z)(1 + x^2)) d tau(x),
    P'(z) = int d tau(x) / (x - z)^2,  for z in the open upper half-plane.
    """
    z = complex(z)
    if z.imag <= 0.0:
        raise DomainError(f"z={z} is not in the open upper half-plane")
    val = tau._integrate(lambda x: (1.0 + x * z) / ((x - z) * (1.0 + x * x)), z)
    der = tau._integrate(lambda x: 1.0 / (x - z) ** 2, z)
    return PickValues(val, der)
