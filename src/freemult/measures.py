"""Probability measures on the positive half-line.

Three representations are supported:

* ``Atomic`` -- a finite list of weighted point masses;
* ``GridDensity`` -- a sampled density on an increasing (canonically
  log-spaced) grid, interpreted as its piecewise-linear interpolant;
* ``Named`` -- closed-form density families (lambda, half_normal, gamma,
  beta, marchenko_pastur, marchenko_pastur_inverse, boolean_stable,
  uniform, log_normal).

Every measure knows how to integrate a kernel against itself, invert itself
under x -> 1/x, and push itself forward through the logarithm.  Each row
of a kernel sum takes at most one known trouble point, with its width, so
the adaptive quadrature can seed panels around a pole or a narrow peak;
`integrate_rows` and `integrate_batch` seed, integrate and retry the rows
for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special
from scipy.special import _ufuncs

from ._quad import (
    _XGK,
    adaptive_quad,
    adaptive_quad_batch,
    batch_edges,
    geometric_edges,
    ladder_edges,
    merge_edges,
    relaxed_retry,
)
from ._roots import brentq
from .errors import (
    AtomicHasNoDensity,
    DomainError,
    InvariantViolation,
)

# mass-validation tolerances: atomic weights are exact data, sampled grids
# carry discretization error
TOL_MASS_ATOMIC = 1e-6
TOL_MASS_GRID = 1e-3
# the tail mass an effective support leaves out per side by default
TOL_TAIL = 1e-12

# integrate_batch refines its integrals in chunks of at most _BATCH_NODES
# nodes a pass, which keeps a pass's arrays (about 16 bytes a node each)
# within a core's cache: larger chunks ran the 4096 half-plane integrals of a
# 512-point GridDensity 1.5x slower.  A seed ladder adds at most
# _LADDER_EDGES edges to the base edges, and an integral that would refine
# more panels than that bound in one pass leaves the batch, so the bound
# holds on every pass.
_BATCH_NODES = 2 ** 17
_LADDER_EDGES = 129

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FamilyDef:
    params: tuple[str, ...]
    validate: Callable[[dict], None]
    pdf: Callable[[dict, np.ndarray], np.ndarray]
    cdf: Callable[[dict, np.ndarray], np.ndarray]
    ppf: Callable[[dict, float], float]
    mean: Callable[[dict], float]
    support: Callable[[dict], tuple[float, float]]
    singular: Callable[[dict], tuple[float, ...]]
    invert: Callable[[dict], tuple[str, dict] | None]


def _require(cond: bool, invariant: str, msg: str) -> None:
    if not cond:
        raise InvariantViolation(invariant, msg)


def _lambda_validate(p):
    _require(0.0 < p["b"] < math.pi, "lambda.b", f"b={p['b']} not in (0, pi)")


def _lambda_pdf(p, x):
    b = p["b"]
    cb = math.sin(b) / (math.pi - b)
    x = np.asarray(x, float)
    out = cb / (1.0 - 2.0 * x * math.cos(b) + x * x)
    return np.where(x > 0, out, 0.0)


def _lambda_cdf(p, x):
    b = p["b"]
    x = np.asarray(x, float)
    val = (np.arctan((x - math.cos(b)) / math.sin(b)) + math.pi / 2 - b) / (math.pi - b)
    return np.clip(np.where(x > 0, val, 0.0), 0.0, 1.0)


def _lambda_ppf(p, q):
    b = p["b"]
    return math.cos(b) + math.sin(b) * math.tan(q * (math.pi - b) - (math.pi / 2 - b))


def _bool_validate(p):
    _require(0.0 < p["alpha"] < 1.0, "boolean_stable.alpha",
             f"alpha={p['alpha']} not in (0, 1)")


def _bool_pdf(p, x):
    al = p["alpha"]
    s, c = math.sin(math.pi * al), math.cos(math.pi * al)
    x = np.asarray(x, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        xa = np.power(np.where(x > 0, x, 1.0), al)
        out = (s / math.pi) * np.power(np.where(x > 0, x, 1.0), al - 1.0) / (
            xa * xa + 2.0 * xa * c + 1.0)
    return np.where(x > 0, out, 0.0)


def _bool_cdf(p, x):
    al = p["alpha"]
    s, c = math.sin(math.pi * al), math.cos(math.pi * al)
    x = np.asarray(x, float)
    xa = np.power(np.where(x > 0, x, 1.0), al)
    val = (np.arctan((xa + c) / s) - (math.pi / 2 - math.pi * al)) / (al * math.pi)
    return np.clip(np.where(x > 0, val, 0.0), 0.0, 1.0)


def _bool_ppf(p, q):
    al = p["alpha"]
    s, c = math.sin(math.pi * al), math.cos(math.pi * al)
    u = s * math.tan(al * math.pi * q + math.pi / 2 - math.pi * al) - c
    try:
        return u ** (1.0 / al)
    except OverflowError:  # beyond the float range, as for alpha <= 0.035
        return math.inf


def _mp_pdf(p, x):
    x = np.asarray(x, float)
    inside = (x > 0) & (x < 4)
    xx = np.where(inside, x, 1.0)
    out = np.sqrt((4.0 - xx) / xx) / (2.0 * math.pi)
    return np.where(inside, out, 0.0)


def _mp_cdf(p, x):
    x = np.asarray(x, float)
    xx = np.clip(x, 0.0, 4.0)
    phi = np.arccos(1.0 - xx / 2.0)
    return (phi + np.sin(phi)) / math.pi


def _mp_ppf(p, q):
    phi = brentq(lambda t: (t + math.sin(t)) / math.pi - q, 0.0, math.pi,
                 1e-300, 8.9e-16, 100)
    return 4.0 * math.sin(0.5 * phi) ** 2


def _mpinv_pdf(p, x):
    x = np.asarray(x, float)
    inside = x > 0.25
    xx = np.where(inside, x, 1.0)
    out = np.sqrt(4.0 * xx - 1.0) / (2.0 * math.pi * xx * xx)
    return np.where(inside, out, 0.0)


def _mpinv_cdf(p, x):
    x = np.asarray(x, float)
    xx = np.where(x > 0.25, x, 0.25)
    return np.where(x > 0.25, 1.0 - _mp_cdf(p, 1.0 / xx), 0.0)


def _mpinv_ppf(p, q):
    return 1.0 / _mp_ppf(p, 1.0 - q)


# The gamma, half_normal, log_normal, uniform and beta pdf, cdf and ppf
# evaluate the scipy.special expression of the family's scipy.stats `_pdf`,
# `_cdf` and `_ppf` on x standardized as (x - loc) / scale, with the
# `rv_continuous` values outside the support, so they are bitwise those of
# scipy.stats.  The `rv_continuous` wrapper's argument handling costs several
# times the arithmetic on the node arrays of one quadrature pass, and
# importing scipy.stats costs about half of the command line's start-up.
# beta's pdf and ppf are the Boost ufuncs scipy.stats.beta calls; the public
# `betaincinv` differs from its ppf at q = 5e-324.

def _cdf_on(y, a, b, cdf):
    """`rv_continuous.cdf` at standardized points y of a family supported on
    [a, b]: `cdf` inside (a, b), one from b on, zero below, nan at nan; a
    scalar y gives a scalar."""
    y = np.asarray(y, float)
    inside = (a < y) & (y < b)
    return np.select([inside, y >= b, np.isnan(y)],
                     [cdf(np.where(inside, y, b)), 1.0, np.nan], 0.0)[()]


def _ppf_on(q, a, b, ppf, scale=1.0):
    """`rv_continuous.ppf` at a scalar q of a family standardized to the
    support [a, b]: `ppf(q) * scale` inside (0, 1), the support ends at 0 and
    1, nan elsewhere."""
    if 0.0 < q < 1.0:
        return float(ppf(q) * scale)
    return float(a * scale if q == 0.0 else b * scale if q == 1.0 else math.nan)


def _gamma_pdf(p, x):
    y = np.asarray(x, float) / p["theta"]
    inside = y >= 0
    yy = np.where(inside, y, 1.0)
    out = np.exp(special.xlogy(p["p"] - 1.0, yy) - yy
                 - special.gammaln(p["p"])) / p["theta"]
    return np.where(inside, out, 0.0)


def _halfnorm_pdf(p, x):
    scale = math.sqrt(p["t"])
    y = np.asarray(x, float) / scale
    out = math.sqrt(2.0 / math.pi) * np.exp(-y * y / 2.0) / scale
    return np.where(y >= 0, out, 0.0)


def _lognorm_pdf(p, x):
    s, scale = p["s"], math.exp(p["m"])
    y = np.asarray(x, float) / scale
    inside = (y > 0) & (y < math.inf)
    yy = np.where(inside, y, 1.0)
    logpdf = (-np.log(yy) ** 2 / (2.0 * (s * s))
              - np.log(s * yy * math.sqrt(2.0 * math.pi)))
    return np.where(inside, np.exp(logpdf) / scale, 0.0)


def _uniform_pdf(p, x):
    scale = p["hi"] - p["lo"]
    y = (np.asarray(x, float) - p["lo"]) / scale
    return np.where((y >= 0) & (y <= 1), 1.0 / scale, 0.0)


def _gamma_cdf(p, x):
    return _cdf_on(np.asarray(x, float) / p["theta"], 0.0, math.inf,
                   lambda y: special.gammainc(p["p"], y))


def _gamma_ppf(p, q):
    return _ppf_on(q, 0.0, math.inf, lambda v: special.gammaincinv(p["p"], v),
                   p["theta"])


def _halfnorm_cdf(p, x):
    return _cdf_on(np.asarray(x, float) / math.sqrt(p["t"]), 0.0, math.inf,
                   lambda y: special.erf(y / math.sqrt(2.0)))


def _halfnorm_ppf(p, q):
    return _ppf_on(q, 0.0, math.inf, lambda v: special.ndtri((1.0 + v) / 2.0),
                   math.sqrt(p["t"]))


def _lognorm_cdf(p, x):
    return _cdf_on(np.asarray(x, float) / math.exp(p["m"]), 0.0, math.inf,
                   lambda y: special.ndtr(np.log(y) / p["s"]))


def _lognorm_ppf(p, q):
    return _ppf_on(q, 0.0, math.inf,
                   lambda v: np.exp(p["s"] * special.ndtri(v)), math.exp(p["m"]))


def _uniform_cdf(p, x):
    return _cdf_on((np.asarray(x, float) - p["lo"]) / (p["hi"] - p["lo"]),
                   0.0, 1.0, lambda y: y)


def _beta_pdf(p, x):
    x = np.asarray(x, float)
    inside = (x >= 0) & (x <= 1)
    # Boost overflows at subnormal x when p < 1; (1 - x)^(q - 1) is 1 there
    sub = inside & (0.0 < x) & (x < _TINY) & (p["p"] < 1.0)
    with np.errstate(over="ignore"):
        out = _ufuncs._beta_pdf(np.where(inside & ~sub, x, 0.5), p["p"], p["q"])
        if sub.any():
            log_pdf = ((p["p"] - 1.0) * np.log(np.where(sub, x, 1.0))
                       - special.betaln(p["p"], p["q"]))
            out = np.where(sub, np.exp(log_pdf), out)
    return np.select([inside, np.isnan(x)], [out, np.nan], 0.0)[()]


def _beta_cdf(p, x):
    return _cdf_on(x, 0.0, 1.0, lambda y: special.betainc(p["p"], p["q"], y))


def _beta_ppf(p, q):
    return _ppf_on(q, 0.0, 1.0, lambda v: _ufuncs._beta_ppf(v, p["p"], p["q"]))


def _lognorm_validate(p):
    _require(p["s"] > 0, "log_normal.s", f"s={p['s']} <= 0")
    # the pdf, cdf and ppf standardize by the scale e^m
    try:
        scale = math.exp(p["m"])
    except OverflowError:
        scale = math.inf
    _require(_TINY <= scale < math.inf, "log_normal.m",
             f"e^m must be a positive normal float, got m={p['m']}")


def _lognorm_mean(p):
    try:
        return math.exp(p["m"] + 0.5 * p["s"] ** 2)
    except OverflowError:  # of s^2 or of the exponential
        return math.inf


def _uniform_validate(p):
    _require(0.0 < p["lo"] < p["hi"], "uniform.bounds",
             f"need 0 < lo < hi, got [{p['lo']}, {p['hi']}]")


_FAMILIES: dict[str, _FamilyDef] = {}


def _register(name: str, fam: _FamilyDef) -> None:
    _FAMILIES[name] = fam


_register("lambda", _FamilyDef(
    params=("b",),
    validate=_lambda_validate,
    pdf=_lambda_pdf,
    cdf=_lambda_cdf,
    ppf=_lambda_ppf,
    mean=lambda p: math.inf,
    support=lambda p: (0.0, math.inf),
    singular=lambda p: (),
    invert=lambda p: ("lambda", dict(p)),
))

_register("boolean_stable", _FamilyDef(
    params=("alpha",),
    validate=_bool_validate,
    pdf=_bool_pdf,
    cdf=_bool_cdf,
    ppf=_bool_ppf,
    mean=lambda p: math.inf,
    support=lambda p: (0.0, math.inf),
    singular=lambda p: (0.0,),
    invert=lambda p: ("boolean_stable", dict(p)),
))

_register("marchenko_pastur", _FamilyDef(
    params=(),
    validate=lambda p: None,
    pdf=_mp_pdf,
    cdf=_mp_cdf,
    ppf=_mp_ppf,
    mean=lambda p: 1.0,
    support=lambda p: (0.0, 4.0),
    singular=lambda p: (0.0, 4.0),
    invert=lambda p: ("marchenko_pastur_inverse", {}),
))

_register("marchenko_pastur_inverse", _FamilyDef(
    params=(),
    validate=lambda p: None,
    pdf=_mpinv_pdf,
    cdf=_mpinv_cdf,
    ppf=_mpinv_ppf,
    mean=lambda p: math.inf,
    support=lambda p: (0.25, math.inf),
    singular=lambda p: (0.25,),
    invert=lambda p: ("marchenko_pastur", {}),
))

_register("half_normal", _FamilyDef(
    params=("t",),
    validate=lambda p: _require(p["t"] > 0, "half_normal.t", f"t={p['t']} <= 0"),
    pdf=_halfnorm_pdf,
    cdf=_halfnorm_cdf,
    ppf=_halfnorm_ppf,
    mean=lambda p: math.sqrt(2.0 * p["t"] / math.pi),
    support=lambda p: (0.0, math.inf),
    singular=lambda p: (),
    invert=lambda p: None,
))

_register("gamma", _FamilyDef(
    params=("p", "theta"),
    validate=lambda p: _require(p["p"] > 0 and p["theta"] > 0, "gamma.params",
                                f"need p, theta > 0, got {p}"),
    pdf=_gamma_pdf,
    cdf=_gamma_cdf,
    ppf=_gamma_ppf,
    mean=lambda p: p["p"] * p["theta"],
    support=lambda p: (0.0, math.inf),
    singular=lambda p: (0.0,) if p["p"] < 1 else (),
    invert=lambda p: None,
))

_register("beta", _FamilyDef(
    params=("p", "q"),
    validate=lambda p: _require(p["p"] > 0 and p["q"] > 0, "beta.params",
                                f"need p, q > 0, got {p}"),
    pdf=_beta_pdf,
    cdf=_beta_cdf,
    ppf=_beta_ppf,
    mean=lambda p: p["p"] / (p["p"] + p["q"]),
    support=lambda p: (0.0, 1.0),
    singular=lambda p: tuple(v for v, bad in ((0.0, p["p"] < 1), (1.0, p["q"] < 1)) if bad),
    invert=lambda p: None,
))

_register("uniform", _FamilyDef(
    params=("lo", "hi"),
    validate=_uniform_validate,
    pdf=_uniform_pdf,
    cdf=_uniform_cdf,
    ppf=lambda p, q: p["lo"] + q * (p["hi"] - p["lo"]),
    mean=lambda p: 0.5 * (p["lo"] + p["hi"]),
    support=lambda p: (p["lo"], p["hi"]),
    singular=lambda p: (),
    invert=lambda p: None,
))

_register("log_normal", _FamilyDef(
    params=("m", "s"),
    validate=_lognorm_validate,
    pdf=_lognorm_pdf,
    cdf=_lognorm_cdf,
    ppf=_lognorm_ppf,
    mean=_lognorm_mean,
    support=lambda p: (0.0, math.inf),
    singular=lambda p: (),
    invert=lambda p: ("log_normal", {"m": -p["m"], "s": p["s"]}),
))


# ---------------------------------------------------------------------------
# measure classes
# ---------------------------------------------------------------------------

class Measure:
    """Common interface of the three measure representations."""

    kind: str

    def atoms(self):
        """(weights, locations) float arrays, locations increasing, or None
        for density measures."""
        return None

    def density(self, x):
        raise AtomicHasNoDensity(f"{self.kind} measure has no Lebesgue density")

    def cdf(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def math_support(self) -> tuple[float, float]:
        """Hull of the mathematical support (may be unbounded)."""
        raise NotImplementedError

    def effective_support(self, tail: float = TOL_TAIL) -> tuple[float, float]:
        """Positive finite bounds containing all but `tail` of the mass per side."""
        raise NotImplementedError

    def integrate(self, kernel, edges, rtol: float) -> complex | float:
        """int kernel(u) d nu(u) over a density measure, on the panel edges
        `edges`, a row of `_seed_edges`."""
        val, _err = adaptive_quad(
            lambda u: np.asarray(kernel(u)) * self.density(u), edges, rtol=rtol)
        return val

    def integrate_rows(self, kernel, points, scales, rtol):
        """The integrals k = 0, ..., n - 1 of kernel(u, k) against the
        measure, one `integrate` call a row, as (values, relaxed).  Row k
        is seeded at the trouble point points[k] of width scales[k] (a nan
        point: none), `_seed_rows()` rows a `_seed_edges` call, and
        integrated to rtol[k] (or one shared rtol); relaxed[k] marks a row
        that raised NonIntegrable there and met 100 * rtol[k]."""
        rtol = np.full(len(points), rtol, dtype=float).tolist()
        values, relaxed = [], []
        for s, edges, offsets in self._seeded_chunks(points, scales):
            for k, i, j in zip(range(s, s + offsets.size - 1),
                               offsets[:-1].tolist(), offsets[1:].tolist()):
                value, rel = self._integrate_row(kernel, k, edges[i:j], rtol[k])
                values.append(value)
                relaxed.append(rel)
        return np.array(values), np.array(relaxed, dtype=bool)

    def integrate_batch(self, kernel, points, scales, rtol):
        """`integrate_rows` at less cost for many rows, bitwise the same
        (values, relaxed): each chunk refines in one `adaptive_quad_batch`
        loop, where kernel(u, k) gets the node rows' integral indices as a
        column k, and a row the batch leaves (NonIntegrable, or more panels
        in a pass than a chunk allows) is redone alone on its chunk's
        edges."""
        rtol = np.full(len(points), rtol, dtype=float)
        panels = self._seed_base()[0].size + _LADDER_EDGES
        values, relaxed = [np.zeros(0)], [np.zeros(0, dtype=bool)]
        for s, edges, offsets in self._seeded_chunks(points, scales):
            vals, _err, left = adaptive_quad_batch(
                lambda u, k: np.asarray(kernel(u, k + s)) * self.density(u),
                edges, offsets, rtol[s:s + offsets.size - 1], max_panels=panels)
            rel = np.zeros(vals.size, dtype=bool)
            for k in np.flatnonzero(left).tolist():
                vals[k], rel[k] = self._integrate_row(
                    kernel, s + k, edges[offsets[k]:offsets[k + 1]], rtol[s + k])
            values.append(vals)
            relaxed.append(rel)
        return np.concatenate(values), np.concatenate(relaxed)

    def _integrate_row(self, kernel, k, edges, rtol):
        """(value, relaxed) of row k on `edges` by `relaxed_retry`; the call
        goes through the `integrate` attribute, which the benchmark tracer
        wraps."""
        value, used = relaxed_retry(lambda rt: (self.integrate(
            lambda u: kernel(u, k), edges, rt), rt), rtol)
        return value, used != rtol

    def _seeded_chunks(self, points, scales):
        """(start, edges, offsets) of each chunk of `_seed_rows()` rows."""
        chunk = self._seed_rows()
        for s in range(0, len(points), chunk):
            yield (s, *self._seed_edges(points[s:s + chunk],
                                        scales[s:s + chunk]))

    def _seed_edges(self, points, scales):
        """The panel edges of the integrals with the trouble points points[k]
        of widths scales[k] (a nan point: none), built together by one
        `batch_edges` call: each row is bitwise merge_edges([base,
        ladder_edges(points[k], scales[k], lo, hi)]) over `_seed_base`.

        Returns (edges, offsets): the edges of row k are
        edges[offsets[k]:offsets[k + 1]].  The matrix behind them has a
        row a point, so at most `_seed_rows()` points are seeded at once.
        One point is merged alone, at half the cost of a one-row batch.
        """
        base, lo, hi = self._seed_base()
        if len(points) == 1:
            edges = merge_edges([base, ladder_edges(float(points[0]),
                                                    float(scales[0]), lo, hi)])
            return edges, np.array([0, edges.size])
        return batch_edges(base, points, scales, lo, hi)

    def _seed_rows(self) -> int:
        """The points seeded, and the integrals `integrate_batch` refines,
        together: a pass over them has at most _BATCH_NODES nodes."""
        panels = self._seed_base()[0].size + _LADDER_EDGES
        return max(1, _BATCH_NODES // (_XGK.size * panels))

    def _seed_base(self):
        """(edges, lo, hi): the edges `_seed_edges` merges each ladder into,
        and the range the ladders are clipped to."""
        raise NotImplementedError

    def invert(self) -> "Measure":
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class Atomic(Measure):
    """Finite positive point masses with total weight one."""

    kind = "atomic"

    def __init__(self, weights: Sequence[float], locations: Sequence[float]):
        w = np.array(weights, float)
        a = np.array(locations, float)
        if w.ndim != 1 or a.shape != w.shape or w.size == 0:
            raise InvariantViolation("atomic.shape", "weights and locations must "
                                     "be equal-length non-empty vectors")
        if not np.all(w > 0):
            raise InvariantViolation("atomic.weights", "weights must be positive")
        if not np.all(a > 0):
            raise InvariantViolation("atomic.locations", "locations must be positive")
        if not np.all(np.diff(a) > 0):
            raise InvariantViolation("atomic.locations",
                                     "locations must be strictly increasing")
        if abs(w.sum() - 1.0) > TOL_MASS_ATOMIC:
            raise InvariantViolation("atomic.mass",
                                     f"weights sum to {w.sum()!r}, expected 1")
        self.w = w
        self.a = a

    def atoms(self):
        return self.w, self.a

    def cdf(self, x):
        x = np.asarray(x, float)
        idx = np.searchsorted(self.a, x, side="right")
        cw = np.concatenate([[0.0], np.cumsum(self.w)])
        return cw[idx]

    def mean(self) -> float:
        return float(np.dot(self.w, self.a))

    def math_support(self):
        return float(self.a[0]), float(self.a[-1])

    def effective_support(self, tail: float = TOL_TAIL):
        return self.math_support()

    def integrate_batch(self, kernel, points, scales, rtol):
        # the exact weighted atom sum of each row, on kernel values
        # evaluated _BATCH_NODES at a time: the trouble points and the
        # tolerances go unused, and no row is relaxed
        n = len(points)
        chunk = max(1, _BATCH_NODES // self.a.size)
        values = [np.vecdot(self.w, np.asarray(kernel(
                      self.a[None, :], np.arange(s, min(s + chunk, n))[:, None])))
                  for s in range(0, n, chunk)]
        return np.concatenate(values or [np.zeros(0)]), np.zeros(n, dtype=bool)

    # one exact batch serves every row
    integrate_rows = integrate_batch

    def invert(self) -> "Atomic":
        inv = 1.0 / self.a[::-1]
        return Atomic(self.w[::-1], inv)

    def to_dict(self):
        return {"kind": "atomic",
                "atoms": [{"w": float(w), "a": float(a)}
                          for w, a in zip(self.w, self.a)]}


class GridDensity(Measure):
    """Sampled density, interpreted as its piecewise-linear interpolant."""

    kind = "grid"

    def __init__(self, x: Sequence[float], f: Sequence[float],
                 normalize: bool = False):
        x = np.asarray(x, float)
        f = np.asarray(f, float)
        if x.ndim != 1 or f.shape != x.shape or x.size < 2:
            raise InvariantViolation("grid.shape",
                                     "x and f must be equal-length vectors (>= 2)")
        if not np.all(x > 0):
            raise InvariantViolation("grid.abscissae", "abscissae must be positive")
        if not np.all(np.diff(x) > 0):
            raise InvariantViolation("grid.abscissae",
                                     "abscissae must be strictly increasing")
        if not np.all(f >= 0):
            raise InvariantViolation("grid.values", "density values must be >= 0")
        mass = float(np.trapezoid(f, x))
        if normalize:
            if mass <= 0:
                raise InvariantViolation("grid.mass", "cannot normalize zero mass")
            f = f / mass
        elif abs(mass - 1.0) > TOL_MASS_GRID:
            raise InvariantViolation("grid.mass",
                                     f"trapezoid mass {mass!r} differs from 1 by "
                                     f"more than {TOL_MASS_GRID}")
        self.x = x
        self.f = f

    def density(self, x):
        return np.interp(np.asarray(x, float), self.x, self.f, left=0.0, right=0.0)

    def cdf(self, x):
        knots = self.x
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.f[1:] + self.f[:-1]) * np.diff(knots))])
        x = np.asarray(x, float)
        i = np.clip(np.searchsorted(knots, x) - 1, 0, knots.size - 2)
        x0, x1 = knots[i], knots[i + 1]
        f0 = self.f[i]
        slope = (self.f[i + 1] - f0) / (x1 - x0)
        dx = np.clip(x - x0, 0.0, x1 - x0)
        partial = f0 * dx + 0.5 * slope * dx * dx
        out = cum[i] + partial
        return np.where(x <= knots[0], 0.0, np.where(x >= knots[-1], cum[-1], out))

    def mean(self) -> float:
        """Mean of the interpolant: x*f is quadratic on each panel."""
        h = np.diff(self.x)
        return float(np.trapezoid(self.x * self.f, self.x)
                     - np.dot(h * h, np.diff(self.f)) / 6.0)

    def math_support(self):
        return float(self.x[0]), float(self.x[-1])

    def effective_support(self, tail: float = TOL_TAIL):
        return self.math_support()

    def _seed_base(self):
        return (self.x, *self.math_support())

    # defined here, not inherited, because the benchmark tracer wraps it
    integrate = Measure.integrate

    def invert(self) -> "GridDensity":
        xi = 1.0 / self.x[::-1]
        fi = self.f[::-1] * (self.x[::-1] ** 2)
        return GridDensity(xi, fi, normalize=False) if _mass_ok(xi, fi) \
            else GridDensity(xi, fi, normalize=True)

    def to_dict(self):
        return {"kind": "grid",
                "grid": {"x": self.x.tolist(), "f": self.f.tolist()}}


def _mass_ok(x, f):
    return abs(float(np.trapezoid(f, x)) - 1.0) <= TOL_MASS_GRID


class Named(Measure):
    """Closed-form density family."""

    kind = "named"

    def __init__(self, family: str, **params):
        if family not in _FAMILIES:
            raise InvariantViolation("named.family",
                                     f"unknown family {family!r}; known: "
                                     f"{sorted(_FAMILIES)}")
        fam = _FAMILIES[family]
        missing = set(fam.params) - set(params)
        extra = set(params) - set(fam.params)
        if missing or extra:
            raise InvariantViolation(
                "named.params",
                f"family {family!r} takes {fam.params}, got {sorted(params)}")
        params = {k: float(params[k]) for k in fam.params}
        fam.validate(params)
        self.family = family
        self.params = params
        self._fam = fam
        self._support_cache: dict[float, tuple[float, float]] = {}
        self._seed = None

    def atoms(self):
        # defined here, not inherited, because the benchmark tracer wraps it
        return None

    def density(self, x):
        return self._fam.pdf(self.params, x)

    def cdf(self, x):
        return self._fam.cdf(self.params, x)

    def mean(self) -> float:
        return self._fam.mean(self.params)

    def math_support(self):
        return self._fam.support(self.params)

    def effective_support(self, tail: float = TOL_TAIL):
        if tail not in self._support_cache:
            self._support_cache[tail] = self._quantile_support(tail)
        return self._support_cache[tail]

    def _quantile_support(self, tail: float) -> tuple[float, float]:
        # quantiles on both sides keep endpoint-singular densities (beta with
        # p or q below 1, Marchenko-Pastur at 0, ...) off the panel edges;
        # clamp a few ulps inside finite endpoints in case the quantile
        # rounds onto them
        lo, hi = self.math_support()
        lo_eff = max(self._fam.ppf(self.params, tail), 1e-300)
        hi_eff = self._fam.ppf(self.params, 1.0 - tail)
        if lo > 0.0:
            lo_eff = max(lo_eff, lo * (1.0 + 4 * _EPS))
        if not math.isinf(hi):
            hi_eff = min(hi_eff, hi * (1.0 - 4 * _EPS))
        if not hi_eff < math.inf:
            raise DomainError(f"{self.family} {self.params}: the {tail:g} "
                              "tail quantile is beyond the float range")
        if not lo_eff < hi_eff:
            raise DomainError(f"{self.family} {self.params}: the support is "
                              "too narrow to clamp inside its endpoints")
        return float(lo_eff), float(hi_eff)

    def _seed_base(self):
        # the geometric base and the ladders at the family's singular
        # points, built once and thinned with the caller's ladder
        if self._seed is None:
            lo, hi = self.effective_support()
            self._seed = (np.unique(np.concatenate(
                [geometric_edges(lo, hi)]
                + [ladder_edges(s, max(abs(s), lo) * 1e-9, lo, hi)
                   for s in self._fam.singular(self.params)])), lo, hi)
        return self._seed

    # defined here, not inherited, because the benchmark tracer wraps it
    integrate = Measure.integrate

    def invert(self) -> Measure:
        mapped = self._fam.invert(self.params)
        if mapped is not None:
            return Named(mapped[0], **mapped[1])
        return to_grid(self).invert()

    def to_dict(self):
        return {"kind": "named", "family": self.family,
                "params": dict(self.params)}


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def atomic(pairs: Sequence[tuple[float, float]]) -> Atomic:
    """Atomic measure from (weight, location) pairs (any order)."""
    arr = np.asarray(sorted(pairs, key=lambda p: p[1]), float).reshape(-1, 2)
    return Atomic(arr[:, 0], arr[:, 1])


def dirac(c: float) -> Atomic:
    """The point mass at c: the one-atom `Atomic`."""
    return Atomic([1.0], [c])


def lambda_measure(b: float) -> Named:
    return Named("lambda", b=b)


def half_normal(t: float) -> Named:
    return Named("half_normal", t=t)


def gamma_measure(p: float, theta: float) -> Named:
    return Named("gamma", p=p, theta=theta)


def beta_measure(p: float, q: float) -> Named:
    return Named("beta", p=p, q=q)


def marchenko_pastur() -> Named:
    return Named("marchenko_pastur")


def marchenko_pastur_inverse() -> Named:
    return Named("marchenko_pastur_inverse")


def boolean_stable(alpha: float) -> Named:
    return Named("boolean_stable", alpha=alpha)


def uniform_interval(lo: float, hi: float) -> Named:
    return Named("uniform", lo=lo, hi=hi)


def log_normal(m: float, s: float) -> Named:
    return Named("log_normal", m=m, s=s)


def to_grid(nu: Measure, n: int = 2048) -> GridDensity:
    """Sample a density measure onto the canonical log-spaced grid."""
    if nu.atoms() is not None:
        raise AtomicHasNoDensity("cannot grid a purely atomic measure")
    if isinstance(nu, GridDensity):
        return nu
    lo, hi = nu.effective_support(1e-7)
    x = np.geomspace(lo, hi, n)
    return GridDensity(x, nu.density(x), normalize=True)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def pushforward_log(nu: Measure, y_lo: float, y_hi: float, n: int):
    """Density of the logarithm push-forward sampled on a uniform grid.

    Returns (y, p) with p(y) = density(e^y) * e^y.
    """
    if nu.atoms() is not None:
        raise AtomicHasNoDensity("push-forward density needs a density")
    if not (y_lo < y_hi) or n < 2:
        raise DomainError("need y_lo < y_hi and n >= 2")
    y = np.linspace(y_lo, y_hi, n)
    x = np.exp(y)
    return y, nu.density(x) * x


def is_mult_symmetric(nu: Measure, tol: float = 1e-9) -> bool:
    """True when `nu` equals its multiplicative inverse.

    Atomic measures are compared atom by atom after inversion, weights to
    within tol and locations to within tol relative (absolute below 1);
    density measures by the `sup_cdf_distance` of `nu` and `nu.invert()`.
    """
    at = nu.atoms()
    if at is not None:
        w, a = at
        w_inv, a_inv = w[::-1], 1.0 / a[::-1]
        return bool(np.all(np.abs(w - w_inv) <= tol) and
                    np.all(np.abs(a - a_inv) <= tol * np.maximum(1.0, a)))
    return sup_cdf_distance(nu, nu.invert()) <= tol


def sup_cdf_distance(mu: Measure, nu: Measure) -> float:
    """Sup-distance of distribution functions on a shared log grid."""
    bounds = [*mu.effective_support(1e-9), *nu.effective_support(1e-9)]
    lo, hi = min(bounds), max(bounds)
    x = np.geomspace(max(lo, 1e-300), hi, 1025)
    return float(np.max(np.abs(mu.cdf(x) - nu.cdf(x))))
