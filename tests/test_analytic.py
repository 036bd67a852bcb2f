import math

import numpy as np
import pytest

import freemult as fm
from freemult._quad import relaxed_retry
from freemult.errors import DomainError


def test_psi_point_mass_closed_form():
    # c z / (1 - c z) with c = 1, z = i
    assert fm.psi(fm.dirac(1.0), 1j) == pytest.approx((-1 + 1j) / 2, abs=1e-15)
    z = 0.4 + 0.7j
    assert fm.psi(fm.dirac(2.5), z) == pytest.approx(2.5 * z / (1 - 2.5 * z),
                                                     abs=1e-15)


def test_psi_vanishes_at_origin_limit():
    vals = [abs(fm.psi(fm.gamma_measure(2, 1), -s)) for s in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_psi_gamma_against_quad_oracle():
    # frozen from an independent scipy.quad evaluation of the integrand
    val = fm.psi(fm.gamma_measure(2, 1), 1j)
    assert val.real == pytest.approx(-0.6566220384435727, abs=1e-9)
    assert val.imag == pytest.approx(0.37855037576418665, abs=1e-9)


def test_psi_rejects_positive_axis():
    for z in (0.5, 0.0, 2.0 + 0j):
        with pytest.raises(DomainError):
            fm.psi(fm.dirac(1.0), z)


def _points(re, im):
    """The grid re x im in the upper half-plane, row-major over im."""
    rr, ii = np.meshgrid(re, im)
    return (rr + 1j * ii).ravel()


def test_psi_maps_upper_half_plane_into_itself():
    zs = _points(np.linspace(-10.0, 10.0, 8), np.geomspace(1e-3, 10.0, 8))
    for nu in (fm.gamma_measure(2, 1), fm.atomic([(0.5, 1.0), (0.5, 4.0)])):
        for z in zs:
            assert fm.psi(nu, complex(z)).imag > 0


def test_psi_conjugate_symmetry():
    nu = fm.gamma_measure(2, 1)
    z = 0.8 + 1.3j
    assert fm.psi(nu, z.conjugate()) == pytest.approx(
        fm.psi(nu, z).conjugate(), rel=1e-10)


def test_psi_prime_point_mass():
    z = 0.3 + 0.5j
    c = 1.7
    assert fm.psi_prime(fm.dirac(c), z) == pytest.approx(
        c / (1 - c * z) ** 2, abs=1e-15)


def test_psi_prime_two_atoms_exact():
    nu = fm.atomic([(0.5, 1.0), (0.5, 4.0)])
    expect = 0.5 / (1 - 1j) ** 2 + 2.0 / (1 - 4j) ** 2
    assert fm.psi_prime(nu, 1j) == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("nu", [fm.gamma_measure(2, 1),
                                fm.atomic([(0.3, 0.5), (0.7, 2.0)])],
                         ids=["gamma", "atomic"])
def test_psi_prime_finite_difference(nu):
    h = 1e-5
    for z in _points(np.linspace(-3, 3, 5), np.geomspace(0.3, 3, 4)):
        z = complex(z)
        fd = (fm.psi(nu, z + h) - fm.psi(nu, z - h)) / (2 * h)
        assert abs(fm.psi_prime(nu, z) - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_sigma_transform_values():
    assert fm.brownian_sigma_transform(1.0, 0.0) == pytest.approx(
        math.exp(-0.5), abs=1e-15)
    assert fm.brownian_sigma_transform(0.0, 0.3 + 0.1j) == 1.0
    assert fm.brownian_sigma_transform(2.0, -1.0) == pytest.approx(1.0, abs=1e-15)


def test_sigma_transform_semigroup():
    z = 0.3 - 0.2j
    for s, t in ((0.5, 1.5), (0.1, 0.1), (2.0, 3.0)):
        lhs = (fm.brownian_sigma_transform(s, z)
               * fm.brownian_sigma_transform(t, z))
        rhs = fm.brownian_sigma_transform(s + t, z)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_sigma_transform_singular_point():
    with pytest.raises(DomainError):
        fm.brownian_sigma_transform(1.0, 1.0)


def test_half_plane_grid_invariants():
    pts = fm.half_plane_grid()
    # bitwise the 64 x 64 grid of Re z on [-10, 10] and Im z on [1e-3, 10]
    assert pts.tobytes() == _points(np.linspace(-10.0, 10.0, 64),
                                    np.geomspace(1e-3, 10.0, 64)).tobytes()
    assert pts.size == 64 * 64
    assert np.all(pts.imag > 0)
    ims = np.unique(pts.imag)
    assert np.allclose(ims[1:] / ims[:-1], ims[1] / ims[0])


def _per_point_psi_prime(nu, z, rtol=1e-8):
    """psi'(z) the per-point way: one `integrate` call, seeded at the pole
    1/z when it is near the support, under the half-plane accuracy floor,
    retried once at 100 rtol."""
    z = complex(z)
    lo, hi = nu.effective_support()
    w = 1.0 / z
    seed = (math.nan, math.nan)
    if lo - (hi - lo) < w.real < hi + (hi - lo):
        seed = (w.real, max(abs(w.imag), abs(w.real) * 1e-12, 1e-300))
    if z.real > 0.0:
        rtol = max(rtol, 4e-16 * abs(z.real) / abs(z.imag))
    edges, _offsets = nu.seed_edges([seed[0]], [seed[1]])
    return complex(relaxed_retry(
        lambda rt: nu.integrate(lambda x: x / (1.0 - x * z) ** 2, edges,
                                rtol=rt), rtol))


def _curve_grid_density():
    curve = fm.density_curve(fm.FlowContext(fm.dirac(1.0), 1.0), points=128)
    return fm.GridDensity(curve.x, curve.q, normalize=True)


@pytest.mark.parametrize("make", [
    lambda: fm.gamma_measure(2, 1), lambda: fm.lambda_measure(math.pi / 2),
    lambda: fm.log_normal(0, 0.5), lambda: fm.uniform_interval(1, 1.1),
    _curve_grid_density, lambda: fm.atomic([(0.5, 1.0), (0.5, 4.0)])],
    ids=["gamma", "lambda", "log_normal", "uniform", "curve_grid", "two_atoms"])
def test_psi_prime_over_the_grid_equals_per_point_values(make):
    nu = make()
    zs = fm.half_plane_grid()
    values, relaxed = fm.psi_prime(nu, zs, rtol=1e-8, full_output=True)
    assert values.shape == zs.shape and not relaxed.any()
    want = np.array([_per_point_psi_prime(nu, z) for z in zs])
    assert values.tobytes() == want.tobytes()
    # a scalar z is the one-point case of the same path
    for z, v in zip(zs[::97], values[::97]):
        assert fm.psi_prime(nu, complex(z), rtol=1e-8) == complex(v)


def test_psi_of_an_array_keeps_its_shape_and_rejects_the_positive_axis():
    nu = fm.gamma_measure(2, 1)
    zs = np.array([[1j, -1.0 + 0.5j], [2.0 - 1j, -3.0]])
    got = fm.psi(nu, zs)
    assert got.shape == (2, 2)
    assert got.tobytes() == np.array([[fm.psi(nu, complex(z)) for z in row]
                                      for row in zs]).tobytes()
    with pytest.raises(DomainError):
        fm.psi_prime(nu, np.array([1j, 0.5]))
