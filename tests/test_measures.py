import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special, stats

import freemult as fm
from freemult._quad import batch_edges, geometric_edges, ladder_edges, merge_edges
from freemult import measures
from freemult.analytic import _half_plane_rtol, _pole_seeds
from freemult.errors import (
    AtomicHasNoDensity,
    DomainError,
    InvariantViolation,
    NonIntegrable,
)
from freemult.flow import kernel_denominator
from freemult.measures import TOL_MASS_GRID

ALL_DENSITY_FAMILIES = [
    fm.lambda_measure(2.0),
    fm.lambda_measure(math.pi / 2),
    fm.half_normal(4.0),
    fm.gamma_measure(2.0, 1.0),
    fm.beta_measure(2.0, 3.0),
    fm.beta_measure(0.5, 0.5),
    fm.marchenko_pastur(),
    fm.marchenko_pastur_inverse(),
    fm.boolean_stable(0.5),
    fm.uniform_interval(1.0, 2.0),
    fm.log_normal(0.0, 1.0),
]


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_lambda_density_at_one():
    # c_b/(1 - 2 cos b + 1) with b = pi/2: c_b = 2/pi, so the value is 1/pi
    assert fm.lambda_measure(math.pi / 2).density(1.0) == pytest.approx(
        1.0 / math.pi, rel=1e-14)


def test_exponential_density_near_zero():
    assert fm.gamma_measure(1, 1).density(1e-12) == pytest.approx(1.0, rel=1e-9)


def test_marchenko_pastur_density_at_two():
    assert fm.marchenko_pastur().density(2.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14)


def test_atomic_has_no_density():
    with pytest.raises(AtomicHasNoDensity):
        fm.atomic([(0.5, 1.0), (0.5, 4.0)]).density(1.0)
    with pytest.raises(AtomicHasNoDensity):
        fm.dirac(2.0).density(2.0)


def test_density_zero_outside_support():
    assert fm.beta_measure(2, 3).density(1.5) == 0.0
    assert fm.marchenko_pastur().density(5.0) == 0.0


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def _seeded(nu, point=math.nan, scale=math.nan):
    """The panel edges of one integral of nu seeded at `point` of width
    `scale` (a nan point: none)."""
    edges, _offsets = nu._seed_edges([point], [scale])
    return edges


def test_integrate_point_mass():
    nu = fm.dirac(3.0)
    values, relaxed = nu.integrate_rows(lambda x, k: x ** 2, [math.nan],
                                        [math.nan], 1e-9)
    assert values.tolist() == [9.0]
    assert relaxed.tolist() == [False]


def test_integrate_gamma_mean():
    nu = fm.gamma_measure(2, 1)
    assert nu.integrate(lambda x: x, _seeded(nu), 1e-9) == pytest.approx(
        2.0, rel=1e-8)


def test_integrate_uniform_reciprocal():
    nu = fm.uniform_interval(1, 2)
    assert nu.integrate(lambda x: 1.0 / x, _seeded(nu), 1e-9) == pytest.approx(
        math.log(2.0), rel=1e-10)


@pytest.mark.parametrize("nu", ALL_DENSITY_FAMILIES,
                         ids=lambda m: f"{m.family}{tuple(m.params.values())}")
def test_unit_mass(nu):
    assert nu.integrate(lambda x: np.ones_like(x), _seeded(nu),
                        1e-9) == pytest.approx(1.0, abs=1e-6)


def test_integrate_matches_scipy_oracle():
    nu = fm.gamma_measure(2.5, 0.7)
    kernel = lambda x: np.log1p(x) / (1.0 + x)
    mine = nu.integrate(kernel, _seeded(nu), 1e-9)
    ref, _ = sp_integrate.quad(
        lambda x: math.log1p(x) / (1 + x) * float(nu.density(np.array([x]))[0]),
        0, np.inf, limit=300)
    assert mine == pytest.approx(ref, rel=1e-8)


def test_integrate_interior_pole_raises():
    nu = fm.uniform_interval(1, 2)
    with pytest.raises(NonIntegrable):
        nu.integrate(lambda x: 1.0 / (x - 1.5) ** 2, _seeded(nu, 1.5, 1e-9),
                     1e-9)


# each row: r, theta of a flow kernel, and a trouble point with its scale
# (nan: none), anywhere with respect to the kernel's pole 1/r
_FLOW_ROWS = st.lists(
    st.tuples(st.floats(0.1, 10.0), st.floats(1e-3, 3.0),
              st.one_of(st.just((math.nan, math.nan)),
                        st.tuples(st.floats(0.01, 50.0),
                                  st.floats(1e-12, 1.0)))),
    min_size=1, max_size=4)


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.beta_measure(0.5, 0.5),
                                fm.lambda_measure(math.pi / 2),
                                fm.to_grid(fm.gamma_measure(2.0, 1.0), n=128),
                                fm.atomic([(0.5, 1.0), (0.5, 4.0)])],
                         ids=["gamma", "beta_singular", "lambda", "grid",
                              "atomic"])
@given(rows=_FLOW_ROWS)
def test_integrate_equals_its_row_of_integrate_batch(nu, rows):
    r = np.array([row[0] for row in rows])
    s2 = np.sin(0.5 * np.array([row[1] for row in rows])) ** 2
    pts = np.array([row[2][0] for row in rows])
    scl = np.array([row[2][1] for row in rows])

    def kernel(u, k):
        return r[k] * u / kernel_denominator(r[k] * u, s2[k])

    values, relaxed = nu.integrate_batch(kernel, pts, scl, 1e-9)
    want, want_relaxed = nu.integrate_rows(kernel, pts, scl, 1e-9)
    assert values.tobytes() == want.tobytes()
    assert relaxed.tolist() == want_relaxed.tolist()


class _Rippled(measures.Named):
    """gamma(2, 1) with a density ripple no panel resolves, as in
    test_unimodality: its psi' quadratures can meet 1e-6 but stall short of
    1e-8."""

    def density(self, x):
        x = np.asarray(x, float)
        return super().density(x) * (1.0 + 3e-7 * np.sin(1e9 * x))


def test_integrate_batch_redoes_the_row_it_leaves_on_its_seeded_edges(
        monkeypatch):
    nu = _Rippled("gamma", p=2.0, theta=1.0)
    zs = (np.array([-2.0, 2.0])[None, :]
          + 1j * np.array([0.5, 2.0])[:, None]).ravel()
    pts, scl = _pole_seeds(zs, *nu.effective_support())
    rtol = _half_plane_rtol(zs, 1e-8)

    def kernel(u, k):
        return u / (1.0 - u * zs[k]) ** 2

    seeded, batches, quads = [], [], []
    seed, edges, one = (measures.Measure._seed_edges, measures.batch_edges,
                        measures.Named.integrate)
    monkeypatch.setattr(measures.Measure, "_seed_edges",
                        lambda self, p, s: seeded.append(len(p))
                        or seed(self, p, s))
    monkeypatch.setattr(measures, "batch_edges",
                        lambda *a: batches.append(1) or edges(*a))
    monkeypatch.setattr(measures.Named, "integrate",
                        lambda *a: quads.append(1) or one(*a))
    values, relaxed = nu.integrate_batch(kernel, pts, scl, rtol)
    # the ripple asks every row for more panels in a pass than the chunk
    # allows: the batch leaves all four, which are redone alone on the
    # chunk's edges, three met at rtol and one only at 100 rtol
    assert relaxed.sum() == 1
    assert (seeded, len(batches), len(quads)) == ([zs.size], 1, zs.size + 1)
    want, want_relaxed = nu.integrate_rows(kernel, pts, scl, rtol)
    assert values.tobytes() == want.tobytes()
    assert relaxed.tolist() == want_relaxed.tolist()
    assert len(quads) == 2 * (zs.size + 1)
    # psi' seeds each of its points once as well
    seeded.clear(), batches.clear()
    got, got_relaxed = fm.psi_prime(nu, zs, rtol=1e-8, full_output=True)
    assert (seeded, len(batches)) == ([zs.size], 1)
    assert got.tobytes() == values.tobytes()
    assert got_relaxed.tolist() == relaxed.tolist()


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.to_grid(fm.gamma_measure(2.0, 1.0), n=128),
                                fm.dirac(1.0)], ids=["named", "grid", "atomic"])
@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_kernel_sums_of_no_rows_are_empty(nu, shape):
    empty = np.zeros(0)
    for integrate in (nu.integrate_rows, nu.integrate_batch):
        values, relaxed = integrate(lambda u, k: u, empty, empty, 1e-9)
        assert (values.shape, relaxed.shape) == ((0,), (0,))
        assert relaxed.dtype == bool
    z = np.zeros(shape, complex)
    assert fm.psi(nu, z).shape == shape
    values, relaxed = fm.psi_prime(nu, z, full_output=True)
    assert (values.shape, relaxed.shape) == (shape, shape)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_atoms_are_weight_and_location_arrays():
    w, a = fm.atomic([(0.25, 3.0), (0.75, 1.0)]).atoms()
    assert isinstance(w, np.ndarray) and isinstance(a, np.ndarray)
    assert w.tolist() == [0.75, 0.25] and a.tolist() == [1.0, 3.0]
    w, a = fm.dirac(2.5).atoms()
    assert isinstance(w, np.ndarray) and isinstance(a, np.ndarray)
    assert w.tolist() == [1.0] and a.tolist() == [2.5]
    for nu in ALL_DENSITY_FAMILIES + [fm.to_grid(fm.gamma_measure(2.0, 1.0))]:
        assert nu.atoms() is None


def test_named_effective_support_cached_per_tail():
    nu = fm.gamma_measure(2.0, 1.0)
    first = nu.effective_support()
    assert nu.effective_support() is first
    assert first == fm.gamma_measure(2.0, 1.0).effective_support()
    assert nu.effective_support(1e-9) != first


@pytest.mark.parametrize("nu, ref", [
    (fm.gamma_measure(2.0, 1.0), lambda x: stats.gamma.pdf(x, a=2.0, scale=1.0)),
    (fm.gamma_measure(0.5, 3.0), lambda x: stats.gamma.pdf(x, a=0.5, scale=3.0)),
    (fm.gamma_measure(1.0, 0.7), lambda x: stats.gamma.pdf(x, a=1.0, scale=0.7)),
    (fm.half_normal(4.0), lambda x: stats.halfnorm.pdf(x, scale=2.0)),
    (fm.half_normal(0.3), lambda x: stats.halfnorm.pdf(x, scale=math.sqrt(0.3))),
    (fm.log_normal(0.0, 0.5), lambda x: stats.lognorm.pdf(x, s=0.5, scale=1.0)),
    (fm.log_normal(-1.3, 2.2),
     lambda x: stats.lognorm.pdf(x, s=2.2, scale=math.exp(-1.3))),
    (fm.uniform_interval(1.0, 1.1),
     lambda x: stats.uniform.pdf(x, loc=1.0, scale=1.1 - 1.0)),
    (fm.uniform_interval(0.3, 7.0),
     lambda x: stats.uniform.pdf(x, loc=0.3, scale=7.0 - 0.3)),
])
def test_closed_form_pdfs_bitwise_equal_scipy(nu, ref):
    rng = np.random.default_rng(5)
    lo, hi = nu.math_support()
    ends = [v for v in (lo, hi) if math.isfinite(v)]
    for size in (1, 7, 33, 2500):
        x = np.concatenate([rng.exponential(3.0, size), -rng.exponential(1.0, 3),
                            ends, np.nextafter(ends, -1.0),
                            np.nextafter(ends, 10.0), [0.0, 1e-300]])
        with np.errstate(divide="ignore"):  # log of a subnormal product
            got, want = np.asarray(nu.density(x)), np.asarray(ref(x))
        assert got.tobytes() == want.tobytes()


# each family beside the frozen scipy.stats distribution of its parameters:
# scale sqrt(t) for half_normal, exp(m) for log_normal
SCIPY_TWINS = [
    (fm.gamma_measure(2.0, 1.0), stats.gamma(a=2.0, scale=1.0)),
    (fm.gamma_measure(0.5, 3.0), stats.gamma(a=0.5, scale=3.0)),
    (fm.half_normal(4.0), stats.halfnorm(scale=2.0)),
    (fm.half_normal(0.3), stats.halfnorm(scale=math.sqrt(0.3))),
    (fm.log_normal(0.0, 0.5), stats.lognorm(s=0.5, scale=1.0)),
    (fm.log_normal(-1.3, 2.2), stats.lognorm(s=2.2, scale=math.exp(-1.3))),
    (fm.beta_measure(2.0, 3.0), stats.beta(2.0, 3.0)),
    (fm.beta_measure(0.5, 0.5), stats.beta(0.5, 0.5)),
    (fm.beta_measure(0.3, 4.0), stats.beta(0.3, 4.0)),
]
UNIFORM_TWINS = [
    (fm.uniform_interval(1.0, 1.1), stats.uniform(loc=1.0, scale=1.1 - 1.0)),
    (fm.uniform_interval(0.3, 7.0), stats.uniform(loc=0.3, scale=7.0 - 0.3)),
]


def _twin_id(pair):
    return f"{pair[0].family}{tuple(pair[0].params.values())}"


def _probe_points(rng, nu, size):
    """Seeded points on and off the support, its finite ends and their
    floating neighbours, 0, a subnormal-scale point, infinity and nan."""
    lo, hi = nu.math_support()
    ends = [v for v in (lo, hi) if math.isfinite(v)]
    return np.concatenate([rng.exponential(3.0, size),
                           rng.uniform(lo, min(hi, lo + 3.0), size),
                           -rng.exponential(1.0, 3), ends,
                           np.nextafter(ends, -1.0), np.nextafter(ends, 10.0),
                           [0.0, 1e-300, math.inf, math.nan]])


@pytest.mark.parametrize("nu, ref", SCIPY_TWINS + UNIFORM_TWINS,
                         ids=map(_twin_id, SCIPY_TWINS + UNIFORM_TWINS))
def test_cdfs_bitwise_equal_scipy(nu, ref):
    rng = np.random.default_rng(5)
    for size in (1, 7, 33, 2500):
        x = _probe_points(rng, nu, size)
        assert np.asarray(nu.cdf(x)).tobytes() == np.asarray(ref.cdf(x)).tobytes()
    lo, hi = nu.math_support()
    for v in (lo, 0.5 * (lo + min(hi, lo + 3.0)), 0.0, -1.0, 10.0):
        got, want = nu.cdf(v), ref.cdf(v)
        assert type(got) is type(want)
        assert got.tobytes() == want.tobytes()


def _ppf_case(pair):
    # beta(2, 3) provokes Boost's "ibeta ... Root finding evaluation exceeded"
    # warning at q = 5e-324 on purpose; the filter's message is a regex, and
    # "::" would split it into filter fields
    marks = (pytest.mark.filterwarnings(
        r"ignore:Error in function boost.{2}math.{2}ibeta")
        if _twin_id(pair) == "beta(2.0, 3.0)" else ())
    return pytest.param(*pair, marks=marks, id=_twin_id(pair))


@pytest.mark.parametrize("nu, ref", map(_ppf_case, SCIPY_TWINS))
def test_ppfs_bitwise_equal_scipy(nu, ref):
    # effective_support reads the 1e-12 tails
    rng = np.random.default_rng(5)
    qs = np.concatenate([rng.uniform(0.0, 1.0, 500),
                         [0.0, 1.0, 1e-12, 1.0 - 1e-12, 1e-300, 5e-324,
                          np.nextafter(1.0, 0.0), -0.5, 1.5]])
    for q in qs:
        got = nu._fam.ppf(nu.params, float(q))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(ref.ppf(q)).tobytes(), q


@pytest.mark.parametrize("p, q", [(2.0, 3.0), (0.5, 0.5), (0.3, 4.0)])
def test_beta_pdf_bitwise_equal_scipy(p, q):
    nu, ref = fm.beta_measure(p, q), stats.beta(p, q)
    rng = np.random.default_rng(5)
    for size in (1, 7, 33, 2500):
        # scipy raises OverflowError at the smallest subnormal when p < 1
        x = _probe_points(rng, nu, size)
        x = x[x != 5e-324] if p < 1 else x
        got, want = np.asarray(nu.density(x)), np.asarray(ref.pdf(x))
        assert got.tobytes() == want.tobytes()
    for v in (0.0, 0.5, 1.0, -1.0, 2.0):
        got, want = nu.density(v), ref.pdf(v)
        assert type(got) is type(want)
        assert got.tobytes() == want.tobytes()
    if (p, q) == (0.5, 0.5):
        assert nu.density(0.0) == nu.density(1.0) == math.inf
    if p < 1:
        with pytest.raises(OverflowError):
            ref.pdf(5e-324)


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.3, 4.0), (0.9, 2.0)])
def test_beta_density_at_subnormal_points(p, q):
    # scipy's Boost pdf overflows at subnormal x when p < 1; the density
    # there is x^(p - 1) / B(p, q)
    x = np.array([5e-324, 1e-310, 2e-308])
    want = np.exp((p - 1.0) * np.log(x) - special.betaln(p, q))
    got = fm.beta_measure(p, q).density(x)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert fm.beta_measure(p, q).density(5e-324) == pytest.approx(want[0],
                                                                  rel=1e-12)


@pytest.mark.parametrize("alpha", [0.02, 0.035])
def test_boolean_stable_support_beyond_floats_is_a_domain_error(alpha):
    # the 1e-12 quantile, about (alpha pi 1e-12)^(-1/alpha), exceeds 1.8e308
    with pytest.raises(DomainError, match="float range"):
        fm.boolean_stable(alpha).effective_support()


def test_uniform_support_narrower_than_the_clamp_is_a_domain_error():
    # clamping 4 ulps inside each end would cross the ends over
    with pytest.raises(DomainError, match="too narrow"):
        fm.uniform_interval(1.0, 1.0 + 1e-15).effective_support()
    lo, hi = fm.uniform_interval(1.0, 1.0 + 1e-14).effective_support()
    assert 1.0 < lo < hi < 1.0 + 1e-14


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.gamma_measure(0.5, 1.0),
                                fm.beta_measure(0.5, 0.5),
                                fm.lambda_measure(1.0)])
def test_cached_panel_edges_equal_build_edges(nu):
    lo, hi = nu.effective_support()
    sing = list(nu._fam.singular(nu.params))
    for r, theta in ((0.5, 1e-3), (1.0, 1e-9), (3.0, 0.3), (40.0, 2.0)):
        want = merge_edges([geometric_edges(lo, hi),
                            ladder_edges(1.0 / r, theta / r, lo, hi)]
                           + [ladder_edges(s, max(abs(s), lo) * 1e-9, lo, hi)
                              for s in sing])
        assert _seeded(nu, 1.0 / r, theta / r).tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", [fm.gamma_measure(2.0, 1.0),
                                fm.beta_measure(0.5, 0.5),
                                fm.lambda_measure(math.pi / 2),
                                fm.uniform_interval(1.0, 1.1),
                                fm.to_grid(fm.gamma_measure(2.0, 1.0), n=128)],
                         ids=["gamma", "beta_singular", "lambda", "uniform",
                              "grid"])
def test_batch_edges_equal_the_per_point_edges_over_the_grid(nu):
    # the seeds of psi' at every point of the default half-plane grid
    base, lo, hi = nu._seed_base()
    pts, scl = _pole_seeds(fm.half_plane_grid(), lo, hi)
    edges, offsets = batch_edges(base, pts, scl, lo, hi)
    for k, (p, s) in enumerate(zip(pts, scl)):
        want = _seeded(nu, p, s)
        assert edges[offsets[k]:offsets[k + 1]].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "nu", ALL_DENSITY_FAMILIES + [fm.to_grid(fm.gamma_measure(2.0, 1.0), n=128)],
    ids=lambda m: getattr(m, "family", "grid"))
def test_seed_edges_rows_are_the_merged_ladders(nu):
    # trouble points below, across and above the range, at widths from
    # 1e-14 to 2 times the point, and nan points with and without a width
    base, lo, hi = nu._seed_base()
    pts = np.concatenate([np.geomspace(lo / 10.0, hi * 10.0, 24),
                          [math.nan, math.nan]])
    scl = np.concatenate([pts[:24] * np.geomspace(1e-14, 2.0, 24)[::-1],
                          [math.nan, 1.0]])
    edges, offsets = nu._seed_edges(pts, scl)
    assert offsets.size == pts.size + 1
    for k, (p, s) in enumerate(zip(pts.tolist(), scl.tolist())):
        want = merge_edges([base, ladder_edges(p, s, lo, hi)])
        assert edges[offsets[k]:offsets[k + 1]].tobytes() == want.tobytes()
        # and seeded alone
        one, ends = nu._seed_edges(pts[k:k + 1], scl[k:k + 1])
        assert ends.tolist() == [0, want.size]
        assert one.tobytes() == want.tobytes()


def test_to_grid_of_a_grid_is_the_same_object():
    grid = fm.to_grid(fm.gamma_measure(2.0, 1.0), n=128)
    assert fm.to_grid(grid) is grid


def test_invert_grid_renormalises_a_coarse_grid():
    # the reciprocal's trapezoid mass on three knots is 1.0625, beyond
    # TOL_MASS_GRID, so the inverted grid is renormalised
    inv = fm.GridDensity([1.0, 1.5, 2.0], [1.0, 1.0, 1.0]).invert()
    xi = np.array([0.5, 1.0 / 1.5, 1.0])
    fi = np.array([4.0, 2.25, 1.0])
    mass = float(np.trapezoid(fi, xi))
    assert abs(mass - 1.0) > TOL_MASS_GRID
    assert inv.x.tolist() == xi.tolist()
    assert inv.f.tolist() == (fi / mass).tolist()


def test_invert_dirac():
    inv = fm.dirac(4.0).invert()
    assert [v.tolist() for v in inv.atoms()] == [[1.0], [0.25]]


def test_invert_marchenko_pastur():
    assert fm.marchenko_pastur().invert().family == "marchenko_pastur_inverse"
    assert fm.marchenko_pastur_inverse().invert().family == "marchenko_pastur"


def test_invert_atomic_relabels():
    inv = fm.atomic([(0.5, 1.0), (0.5, 4.0)]).invert()
    assert [v.tolist() for v in inv.atoms()] == [[0.5, 0.5], [0.25, 1.0]]


def test_invert_lambda_and_lognormal_closed_forms():
    assert fm.lambda_measure(1.2).invert().params == {"b": 1.2}
    assert fm.log_normal(0.3, 1.1).invert().params == {"m": -0.3, "s": 1.1}


def test_involution_atomic_exact():
    nu = fm.atomic([(0.2, 0.5), (0.3, 1.0), (0.5, 3.0)])
    twice = nu.invert().invert()
    (w1, a1), (w2, a2) = nu.atoms(), twice.atoms()
    assert w1.tolist() == w2.tolist()
    assert a1 == pytest.approx(a2, rel=1e-15)


@pytest.mark.parametrize("nu", [fm.marchenko_pastur(), fm.lambda_measure(2.0),
                                fm.log_normal(0.5, 1.0), fm.half_normal(4.0),
                                fm.uniform_interval(1, 2)],
                         ids=["mp", "lambda", "lognormal", "halfnormal", "uniform"])
def test_involution_sup_cdf(nu):
    # closed-form maps are exact; grid-converted families carry the
    # 2048-point resampling error
    twice = nu.invert().invert()
    tol = 1e-4 if nu.invert().kind == "grid" else 1e-9
    assert fm.sup_cdf_distance(nu, twice) < tol


def test_mp_inverse_cdf_integrates_its_density():
    mpi = fm.marchenko_pastur_inverse()
    assert mpi.cdf([0.1, 0.25]).tolist() == [0.0, 0.0]
    for x in (0.3, 1.0, 4.0, 100.0):
        want, _ = sp_integrate.quad(lambda u: float(mpi.density(u)), 0.25, x,
                                    limit=200)
        assert float(mpi.cdf(x)) == pytest.approx(want, rel=1e-10)


def test_mp_inverse_density_closed_form():
    # independent route: invert the sampled MP density by the x -> 1/x rule
    grid = fm.to_grid(fm.marchenko_pastur(), n=8192)
    ginv = grid.invert()
    named = fm.marchenko_pastur_inverse()
    for x in (0.3, 0.5, 1.0, 2.0):
        assert float(ginv.density(x)) == pytest.approx(
            float(named.density(x)), rel=1e-3)


# ---------------------------------------------------------------------------
# pushforward_log
# ---------------------------------------------------------------------------

def test_pushforward_lognormal_is_normal():
    y, p = fm.pushforward_log(fm.log_normal(0, 1), -4, 4, 257)
    ref = np.exp(-y * y / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(p - ref)) < 1e-12


def test_pushforward_lambda_closed_form():
    b = math.pi / 2
    y, p = fm.pushforward_log(fm.lambda_measure(b), -5, 5, 129)
    ref = (2.0 / math.pi) * np.exp(y) / (1.0 + np.exp(2 * y))
    assert np.max(np.abs(p - ref)) < 1e-12
    assert np.max(np.abs(p - p[::-1])) < 1e-14  # even in y


def test_pushforward_gamma_peak_at_zero():
    y, p = fm.pushforward_log(fm.gamma_measure(1, 1), -3, 3, 241)
    ref = np.exp(y - np.exp(y))
    assert np.max(np.abs(p - ref)) < 1e-12
    assert abs(y[int(np.argmax(p))]) < 0.03


def test_pushforward_atomic_rejected():
    with pytest.raises(AtomicHasNoDensity):
        fm.pushforward_log(fm.dirac(1.0), -1, 1, 65)


# ---------------------------------------------------------------------------
# is_mult_symmetric
# ---------------------------------------------------------------------------

def test_symmetric_examples():
    assert fm.is_mult_symmetric(fm.lambda_measure(1.0), 1e-9)
    assert fm.is_mult_symmetric(fm.dirac(1.0), 1e-9)
    assert fm.is_mult_symmetric(fm.boolean_stable(0.3), 1e-9)
    assert fm.is_mult_symmetric(fm.log_normal(0, 1), 1e-9)
    assert not fm.is_mult_symmetric(fm.gamma_measure(2, 1), 1e-9)
    assert not fm.is_mult_symmetric(fm.marchenko_pastur(), 1e-9)
    assert not fm.is_mult_symmetric(fm.dirac(2.0), 1e-9)
    assert not fm.is_mult_symmetric(fm.atomic([(0.5, 1.0), (0.5, 4.0)]), 1e-9)
    assert fm.is_mult_symmetric(
        fm.atomic([(0.5, 0.5), (0.5, 2.0)]), 1e-9)
    # atoms are compared at tol: 0.5 and 2.0000001 are reciprocal to within
    # 5e-8 relative
    nu = fm.atomic([(0.5, 0.5), (0.5, 2.0000001)])
    assert fm.is_mult_symmetric(nu, 1e-3)
    assert not fm.is_mult_symmetric(nu, 1e-9)
    # so are the weights of 0.5001 and 0.4999 to within 2e-4
    nu = fm.atomic([(0.5001, 0.5), (0.4999, 2.0)])
    assert fm.is_mult_symmetric(nu, 1e-3)
    assert not fm.is_mult_symmetric(nu, 1e-5)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_atomic_mass_invariant():
    with pytest.raises(InvariantViolation) as e:
        fm.atomic([(0.4, 1.0), (0.5, 2.0)])
    assert "mass" in e.value.invariant


def test_atomic_location_invariants():
    with pytest.raises(InvariantViolation):
        fm.Atomic([0.5, 0.5], [2.0, 1.0])
    with pytest.raises(InvariantViolation):
        fm.Atomic([0.5, 0.5], [-1.0, 1.0])


def test_lambda_parameter_domain():
    with pytest.raises(InvariantViolation):
        fm.lambda_measure(4.0)
    with pytest.raises(InvariantViolation):
        fm.boolean_stable(1.5)


def test_grid_invariants():
    with pytest.raises(InvariantViolation):
        fm.GridDensity([1.0, 2.0], [-0.1, 0.2])
    with pytest.raises(InvariantViolation):
        fm.GridDensity([2.0, 1.0], [0.5, 0.5])
    x = np.geomspace(0.1, 10, 64)
    f = 1.0 / (x * math.log(100.0))  # reciprocal density, unit mass
    m = fm.GridDensity(x, f, normalize=True)
    assert m.integrate(lambda u: np.ones_like(u), _seeded(m),
                       1e-9) == pytest.approx(1.0, abs=1e-9)


def test_atomic_cdf_steps_at_each_atom():
    nu = fm.atomic([(0.25, 1.0), (0.75, 3.0)])
    assert nu.cdf([0.5, 1.0, 2.0, 3.0, 4.0]).tolist() == [0.0, 0.25, 0.25,
                                                          1.0, 1.0]


def test_grid_mean_is_the_mean_of_the_interpolant():
    # f(x) = x/4 on [1, 3] is its own interpolant, with mean 13/6; the
    # trapezoid rule for x*f reads 2.25
    assert fm.GridDensity([1.0, 2.0, 3.0], [0.25, 0.5, 0.75]).mean() == \
        pytest.approx(13.0 / 6.0, rel=1e-14)
    x = np.geomspace(0.1, 10, 64)
    m = fm.GridDensity(x, np.exp(-np.log(x) ** 2), normalize=True)
    assert m.mean() == pytest.approx(
        m.integrate(lambda u: u, _seeded(m), 1e-12), rel=1e-12)


def test_named_unknown_family_and_params():
    with pytest.raises(InvariantViolation):
        fm.Named("zeta")
    with pytest.raises(InvariantViolation):
        fm.Named("gamma", p=2.0)
    with pytest.raises(InvariantViolation):
        fm.Named("gamma", p=2.0, theta=1.0, extra=3.0)
