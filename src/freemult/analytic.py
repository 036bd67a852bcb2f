"""Complex-analytic transforms used by the checkers and the flow solver.

The psi-transform of a measure on the positive half-line,

    psi(z) = int x z / (1 - x z) d nu(x),

and its z-derivative are evaluated by the same seeded adaptive quadrature
as the real kernels; error control runs jointly on real and imaginary parts
through the complex modulus.  Both take a scalar z or an array of z: the
integrals at all of them refine together in one batched loop
(`Measure.integrate_batch`), and a scalar z is the one-point case.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ._quad import relaxed_retry
from .errors import DomainError, InvariantViolation
from .measures import Measure


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Rectangular sampling grid in the open upper half-plane.

    The imaginary axis is log-spaced: violations of the checker inequalities
    concentrate near the real axis over the support of the measure, so
    resolution is spent there.
    """

    re_min: float = -10.0
    re_max: float = 10.0
    re_count: int = 64
    im_min: float = 1e-3
    im_max: float = 10.0
    im_count: int = 64

    def __post_init__(self):
        if not (self.re_min < self.re_max):
            raise InvariantViolation("grid.re", "need re_min < re_max")
        if not (0.0 < self.im_min < self.im_max):
            raise InvariantViolation("grid.im", "need 0 < im_min < im_max")
        if self.re_count < 2 or self.im_count < 2:
            raise InvariantViolation("grid.count", "counts must be >= 2")

    def points(self) -> np.ndarray:
        """Flat complex array of all grid points (row-major over im, re)."""
        re = np.linspace(self.re_min, self.re_max, self.re_count)
        im = np.geomspace(self.im_min, self.im_max, self.im_count)
        rr, ii = np.meshgrid(re, im)
        return (rr + 1j * ii).ravel()


def _check_off_positive_axis(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    on_axis = (z.imag == 0.0) & (z.real >= 0.0)
    if on_axis.any():
        raise DomainError(f"z={complex(z[on_axis].flat[0])} lies on [0, inf)")
    return z


def _pole_seeds(z: np.ndarray, lo: float, hi: float):
    """Trouble point of 1/(1 - x z) on the real axis, and its width, for
    each z; nan where the pole is far from the support."""
    # 1/z by Python's complex division: numpy's rounds differently, and the
    # ladder, so every panel edge, would move with it
    w = np.array([1.0 / complex(v) for v in z.tolist()], dtype=complex)
    x0, width = w.real, np.abs(w.imag)
    near = (lo - (hi - lo) < x0) & (x0 < hi + (hi - lo))
    scales = np.maximum(np.maximum(width, np.abs(x0) * 1e-12), 1e-300)
    return np.where(near, x0, np.nan), np.where(near, scales, np.nan)


def _half_plane_rtol(z: np.ndarray, rtol: float) -> np.ndarray:
    """Cancellation in (1 - x z) floors the achievable relative accuracy when
    the pole 1/z sits close to the positive axis."""
    with np.errstate(divide="ignore"):
        floor = 4e-16 * np.abs(z.real) / np.abs(z.imag)
    return np.where((z.real > 0.0) & (z.imag != 0.0),
                    np.maximum(rtol, floor), rtol)


def _transform_integral(nu: Measure, kernel, z, rtol: float):
    """int kernel(x, z) d nu(x) at each z, all in one batch, and which of
    them met only 100 * rtol: an integral the batch leaves is redone alone
    by `relaxed_retry`."""
    z = _check_off_positive_axis(z)
    zs = z.ravel()
    rtols = _half_plane_rtol(zs, rtol)
    pts, scl = _pole_seeds(zs, *nu.effective_support())
    values, failed = nu.integrate_batch(lambda u, k: kernel(u, zs[k]),
                                        pts, scl, rtols)
    relaxed = np.zeros(zs.shape, dtype=bool)
    for k in np.flatnonzero(failed):
        zk = complex(zs[k])
        values[k], used = relaxed_retry(
            lambda rt: (nu.integrate(lambda x: kernel(x, zk), pts[k], scl[k],
                                     rtol=rt), rt),
            rtols[k])
        relaxed[k] = used != rtols[k]
    if z.ndim == 0:
        return complex(values[0]), relaxed.reshape(())
    return values.reshape(z.shape), relaxed.reshape(z.shape)


def psi(nu: Measure, z, rtol: float = 1e-11):
    """psi-transform of `nu` at z (z off the closed positive real axis): a
    complex for a scalar z, an array for an array of z."""
    return _transform_integral(nu, lambda x, z: x * z / (1.0 - x * z), z,
                               rtol)[0]


def psi_prime(nu: Measure, z, rtol: float = 1e-11, full_output: bool = False):
    """Derivative of the psi-transform: int x / (1 - x z)^2 d nu(x), at a
    scalar z or an array of z, as `psi` takes and returns them.  With
    full_output, also a boolean array marking the points whose integral met
    only 100 * rtol."""
    values, relaxed = _transform_integral(
        nu, lambda x, z: x / (1.0 - x * z) ** 2, z, rtol)
    return (values, relaxed) if full_output else values


def brownian_sigma_transform(t: float, z: complex) -> complex:
    """Sigma-transform of the multiplicative Brownian semigroup element at
    time t: exp((t/2) (z+1)/(z-1)).  Multiplicative in t."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    z = complex(z)
    if z == 1.0:
        raise DomainError("z = 1 is the singular point of the transform")
    return cmath.exp((t / 2.0) * (z + 1.0) / (z - 1.0))
