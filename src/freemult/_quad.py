"""Vectorized adaptive panel quadrature with a-priori seeding.

All kernel integrals in this package are smooth except at isolated points
whose location is known in advance (poles of the form (1 - r*xi)**(-2) and
Lorentzian peaks of known centre and width).  The strategy is therefore:

  1. seed the panel list geometrically over the integration range, plus a
     geometric ladder of edges clustered around each known trouble point, so
     panel widths track the distance to the trouble point;
  2. refine adaptively: every pass evaluates a 15-point Gauss-Kronrod rule
     per panel, settles panels whose embedded 7-point error estimate fits
     inside the global budget and bisects the rest.

The high order of the Kronrod rule matters: the floor-angle Lorentzian
kernels have relative widths down to 1e-9, where a low-order rule would
need millions of panels at the tolerances used by the solver.

The integrand is evaluated on whole numpy arrays, so the cost per pass is a
single vectorized call.  Complex integrands are supported; error control is
on the complex modulus, which keeps real and imaginary parts under a single
budget.
"""

from __future__ import annotations

import numpy as np

from .errors import NonIntegrable

_EPS = np.finfo(float).eps

# 15-point Kronrod abscissae on [-1, 1] and weights; the odd-indexed nodes
# form the embedded 7-point Gauss rule (QUADPACK dqk15 constants)
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)
# refinement passes of adaptive_quad before it gives up
MAX_DEPTH = 48


def geometric_edges(lo: float, hi: float, per_decade: float = 6.0,
                    max_panels: int = 720) -> np.ndarray:
    """Log-spaced panel edges over [lo, hi] with lo > 0."""
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    decades = np.log10(hi / lo)
    n = int(min(max(np.ceil(decades * per_decade), 4), max_panels))
    return np.geomspace(lo, hi, n + 1)


def ladder_edges(point: float, scale: float, lo: float, hi: float) -> np.ndarray:
    """Geometric cluster of edges around a trouble point, clipped to (lo, hi).

    Edges sit at point +- scale * 2**k, from below the scale up to the
    ladder's reach, so adjacent panel widths track the distance to the
    trouble point.  The reach is max(|point|, lo), beyond which the
    geometric base already tracks that distance, and never more than the
    range: the ladder is anchored at the point, so its innermost edge stays
    within the scale however wide the range.
    """
    span = hi - lo
    if span <= 0.0:
        return np.empty(0)
    reach = min(max(abs(point), lo), span)
    if scale <= 0.0:
        scale = max(abs(point), lo) * 1e-9
    scale = max(scale, reach * 1e-18)  # cap the ladder at ~60 doublings
    kmax = int(np.ceil(np.log2(max(reach / scale, 2.0)))) + 1
    offs = scale * 2.0 ** np.arange(-2, kmax + 1)
    pts = np.concatenate([[point], point + offs, point - offs])
    pts = pts[(pts > lo) & (pts < hi)]
    return pts


def merge_edges(parts) -> np.ndarray:
    """Sorted union of edge arrays, without edges closer than floating
    resolution to their predecessor."""
    edges = np.unique(np.concatenate(parts))
    keep = np.empty(edges.shape, dtype=bool)
    keep[0] = True
    tol = np.maximum(np.abs(edges[1:]), np.abs(edges[:-1])) * 4 * _EPS
    keep[1:] = np.diff(edges) > tol
    return edges[keep]


def build_edges(lo: float, hi: float, points=(), scales=(),
                per_decade: float = 6.0) -> np.ndarray:
    """Seeded panel edges: geometric base plus ladders at known trouble points."""
    return merge_edges([geometric_edges(lo, hi, per_decade=per_decade)]
                       + [ladder_edges(float(p), float(s), lo, hi)
                          for p, s in zip(points, scales)])


def adaptive_quad(f, edges, rtol: float = 1e-9, max_panels: int = 60_000):
    """Globally adaptive Gauss-Kronrod 15(7) over the seeded panels.

    Parameters
    ----------
    f : callable
        Vectorized integrand; may return complex values.
    edges : array_like
        Increasing panel edges (at least two).
    rtol : float
        Target |error| <= rtol * |integral|.

    Returns
    -------
    (value, err) : estimate and its error bound.

    Raises
    ------
    NonIntegrable
        If the budget cannot be met, which in this package signals a kernel
        singularity sitting on the support of the measure.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        raise ValueError("need at least two panel edges")
    a = edges[:-1].copy()
    b = edges[1:].copy()

    settled_val = 0.0
    settled_err = 0.0
    settled_l1 = 0.0
    stuck_err = 0.0

    for _ in range(MAX_DEPTH):
        m = 0.5 * (a + b)
        h = 0.5 * (b - a)
        nodes = (m[:, None] + h[:, None] * _XGK[None, :]).ravel()
        # divergence shows up as a non-finite total and is reported below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fv = np.asarray(f(nodes)).reshape(a.size, _XGK.size)
            val = h * (fv @ _WGK)
            g7 = h * (fv[:, _GAUSS_IDX] @ _WG)
        err = np.abs(val - g7)

        total = settled_val + val.sum()
        if not np.isfinite(abs(total)):
            raise NonIntegrable("integral overflowed while refining; the "
                                "kernel diverges on the support")
        # budget against the L1 size as well: oscillatory complex kernels can
        # cancel to a total far below their contributions, and error relative
        # to the cancelled value is not attainable (for the positive kernels
        # of the solver the two scales coincide)
        l1 = settled_l1 + np.abs(val).sum()
        budget = rtol * max(abs(total), 0.01 * l1)
        tot_err = settled_err + stuck_err + err.sum()
        if tot_err <= budget:
            return total, tot_err

        allowance = budget / (4.0 * max(err.size, 1))
        too_thin = (b - a) <= 8 * _EPS * np.maximum(np.abs(a), np.abs(b))
        done = (err <= allowance) | too_thin
        settled_val += val[done].sum()
        settled_l1 += np.abs(val[done]).sum()
        settled_err += err[done & ~too_thin].sum()
        stuck_err += err[too_thin].sum()

        split = ~done
        if not split.any():
            total = settled_val
            tot_err = settled_err + stuck_err
            budget = rtol * max(abs(total), 0.01 * settled_l1)
            if tot_err <= budget:
                return total, tot_err
            raise NonIntegrable(
                f"quadrature stalled at error {tot_err:.3e} "
                f"(budget {budget:.3e})")
        if 2 * split.sum() > max_panels:
            raise NonIntegrable("quadrature exceeded the panel limit; "
                                "kernel appears singular on the support")

        a = np.concatenate([a[split], m[split]])
        b = np.concatenate([m[split], b[split]])

    raise NonIntegrable(
        f"quadrature did not converge within {MAX_DEPTH} refinement passes")


def relaxed_retry(integrate, rtol: float):
    """integrate(rtol), retried once at 100 * rtol when it raises
    NonIntegrable: the kernels' cancellation floors are estimates, and an
    underestimated floor shows up as a stalled refinement."""
    try:
        return integrate(rtol)
    except NonIntegrable:
        return integrate(rtol * 100.0)
