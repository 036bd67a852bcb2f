"""Complex-analytic transforms used by the checkers and the flow solver.

The psi-transform of a measure on the positive half-line,

    psi(z) = int x z / (1 - x z) d nu(x),

and its z-derivative are evaluated by the same seeded adaptive quadrature
as the real kernels; error control runs jointly on real and imaginary parts
through the complex modulus.  Both take a scalar z or an array of z, give
the pole 1/z of each as its trouble point, and make one
`Measure.integrate_batch` call, which seeds, integrates and retries them
all; a scalar z is the one-point case.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DomainError
from .measures import Measure


def half_plane_grid() -> np.ndarray:
    """The half-plane check's 64 x 64 grid in the open upper half-plane, as
    a flat complex array (row-major over im, re): Re z linear on [-10, 10],
    Im z log-spaced on [1e-3, 10].  Violations of the checker inequalities
    concentrate near the real axis over the support of the measure, so
    resolution is spent there."""
    rr, ii = np.meshgrid(np.linspace(-10.0, 10.0, 64),
                         np.geomspace(1e-3, 10.0, 64))
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
    """int kernel(x, z) d nu(x) at each z, all in one
    `Measure.integrate_batch`, and which of them met only 100 * rtol."""
    z = _check_off_positive_axis(z)
    zs = z.ravel()
    pts, scl = _pole_seeds(zs, *nu.effective_support())
    values, relaxed = nu.integrate_batch(lambda u, k: kernel(u, zs[k]),
                                         pts, scl, _half_plane_rtol(zs, rtol))
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
