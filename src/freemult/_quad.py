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

`adaptive_quad_batch` runs the same refinement for many independent
integrals at once (one integrand call per pass for all of them), each with
its own edges and budget, and returns bitwise `adaptive_quad`'s values;
`batch_edges` builds their seeded edges together.
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
# refinement passes of adaptive_quad before it gives up, and the most
# panels it splits in one pass
MAX_DEPTH = 48
MAX_PANELS = 60_000
# geometric base panels: per decade of the range, and at most in all
_PANELS_PER_DECADE = 6.0
_MAX_BASE_PANELS = 720


def geometric_edges(lo: float, hi: float) -> np.ndarray:
    """Log-spaced panel edges over [lo, hi] with lo > 0."""
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    decades = np.log10(hi / lo)
    n = int(min(max(np.ceil(decades * _PANELS_PER_DECADE), 4),
                _MAX_BASE_PANELS))
    return np.geomspace(lo, hi, n + 1)


def ladder_edges(point: float, scale: float, lo: float, hi: float) -> np.ndarray:
    """Geometric cluster of edges around a trouble point, clipped to (lo, hi).

    Edges sit at point +- scale * 2**k, from below the scale up to the
    ladder's reach, so adjacent panel widths track the distance to the
    trouble point.  The reach is max(|point|, lo), beyond which the
    geometric base already tracks that distance, and never more than the
    range: the ladder is anchored at the point, so its innermost edge stays
    within the scale however wide the range.  A nan point has no ladder.
    """
    span = hi - lo
    if span <= 0.0 or np.isnan(point):
        return np.empty(0)
    reach = min(max(abs(point), lo), span)
    scale = max(scale, reach * 1e-18)  # cap the ladder at ~60 doublings
    kmax = int(np.ceil(np.log2(max(reach / scale, 2.0)))) + 1
    offs = scale * 2.0 ** np.arange(-2, kmax + 1)
    pts = np.concatenate([[point], point + offs, point - offs])
    pts = pts[(pts > lo) & (pts < hi)]
    return pts


def merge_edges(parts) -> np.ndarray:
    """Sorted union of edge arrays, without edges closer than floating
    resolution to their predecessor (an edge equal to its predecessor
    among them)."""
    edges = np.sort(np.concatenate(parts))
    keep = np.empty(edges.shape, dtype=bool)
    keep[0] = True
    tol = np.maximum(np.abs(edges[1:]), np.abs(edges[:-1])) * 4 * _EPS
    keep[1:] = np.diff(edges) > tol
    return edges[keep]


def batch_edges(base, points, scales, lo: float, hi: float):
    """merge_edges([base, ladder_edges(p, s, lo, hi)]) for each pair (p, s)
    of `points` and `scales` (a nan point adds no ladder), built together.

    Returns (edges, offsets): the edges of pair k are
    edges[offsets[k]:offsets[k + 1]], bitwise those of merge_edges.
    """
    base = np.asarray(base, dtype=float)
    p = np.asarray(points, dtype=float)
    s = np.asarray(scales, dtype=float)
    has = ~np.isnan(p) & (hi - lo > 0.0)
    ladder = np.empty((p.size, 0))
    if has.any():
        # ladder_edges, one row per point, cut to each row's own length
        reach = np.minimum(np.maximum(np.abs(p), lo), hi - lo)
        s = np.maximum(s, reach * 1e-18)
        kmax = np.where(has, np.ceil(np.log2(np.maximum(reach / s, 2.0))), 0.0)
        k = np.arange(-2, int(kmax.max()) + 2)
        offs = s[:, None] * 2.0 ** k
        offs[k[None, :] > kmax[:, None] + 1] = np.nan
        ladder = np.concatenate([p[:, None], p[:, None] + offs,
                                 p[:, None] - offs], axis=1)
        ladder[~((ladder > lo) & (ladder < hi))] = np.inf
    rows = np.concatenate([np.broadcast_to(base, (p.size, base.size)), ladder],
                          axis=1)
    rows.sort(axis=1)
    # merge_edges' thinning, row by row; equal edges and the inf padding fail
    # the test
    keep = np.empty(rows.shape, dtype=bool)
    keep[:, 0] = True
    with np.errstate(invalid="ignore"):
        tol = np.maximum(np.abs(rows[:, 1:]), np.abs(rows[:, :-1])) * 4 * _EPS
        keep[:, 1:] = np.diff(rows, axis=1) > tol
    offsets = np.zeros(p.size + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    return rows[keep], offsets


def adaptive_quad(f, edges, rtol: float):
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
        if 2 * split.sum() > MAX_PANELS:
            raise NonIntegrable("quadrature exceeded the panel limit; "
                                "kernel appears singular on the support")

        a = np.concatenate([a[split], m[split]])
        b = np.concatenate([m[split], b[split]])

    raise NonIntegrable(
        f"quadrature did not converge within {MAX_DEPTH} refinement passes")


def adaptive_quad_batch(f, edges, offsets, rtol, max_panels: int):
    """`adaptive_quad` of many independent integrals in one refinement loop.

    Integral k has the panel edges edges[offsets[k]:offsets[k + 1]] and the
    tolerance rtol[k] (or a shared scalar); f(u, k) evaluates the integrands
    at the nodes u, one row of Gauss-Kronrod nodes per panel, where k is the
    column of the rows' integral indices (so k broadcasts against u).

    Integral k gets bitwise the value and error of adaptive_quad(lambda u:
    f(u, k), its edges, rtol[k]) with MAX_PANELS = max_panels.  Each
    integral keeps its panels in adaptive_quad's order, and its
    Gauss-Kronrod products and sums run on its own contiguous rows: BLAS and
    numpy's pairwise summation round by the length of the array they see.

    Returns
    -------
    (values, errors, failed) : arrays over the integrals; failed[k] marks an
        integral on which adaptive_quad raises NonIntegrable, and its value
        and error are nan.
    """
    edges = np.asarray(edges, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    n = offsets.size - 1
    npan = np.diff(offsets) - 1
    if np.any(npan < 1):
        raise ValueError("need at least two panel edges per integral")
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (n,))
    left = np.ones(edges.size - 1, dtype=bool)
    left[offsets[1:-1] - 1] = False  # the last edge of a row starts no panel
    a = edges[:-1][left]
    b = edges[1:][left]
    ids = np.arange(n)
    failed = np.zeros(n, dtype=bool)
    errors = np.full(n, np.nan)
    values = settled_val = None
    settled_err = np.zeros(n)
    settled_l1 = np.zeros(n)
    stuck_err = np.zeros(n)

    for _ in range(MAX_DEPTH):
        m = 0.5 * (a + b)
        h = 0.5 * (b - a)
        nodes = m[:, None] + h[:, None] * _XGK[None, :]
        owner = np.repeat(ids, npan)
        bounds = np.zeros(ids.size + 1, dtype=np.intp)
        np.cumsum(npan, out=bounds[1:])
        segs = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fv = np.asarray(f(nodes, owner[:, None])).reshape(a.size,
                                                              _XGK.size)
            fg = fv[:, _GAUSS_IDX]
            val = h * np.concatenate([fv[i:j] @ _WGK for i, j in segs])
            g7 = h * np.concatenate([fg[i:j] @ _WG for i, j in segs])
            err = np.abs(val - g7)
            abs_val = np.abs(val)
        if values is None:
            values = np.full(n, np.nan, dtype=val.dtype)
            settled_val = np.zeros(n, dtype=val.dtype)

        with np.errstate(invalid="ignore", over="ignore"):
            total = settled_val[ids] + np.array([val[i:j].sum() for i, j in segs])
            finite = np.isfinite(np.abs(total))
            l1 = settled_l1[ids] + np.array([abs_val[i:j].sum() for i, j in segs])
            budget = rtol[ids] * np.maximum(np.abs(total), 0.01 * l1)
        tot_err = (settled_err[ids] + stuck_err[ids]
                   + np.array([err[i:j].sum() for i, j in segs]))
        conv = finite & (tot_err <= budget)
        values[ids[conv]] = total[conv]
        errors[ids[conv]] = tot_err[conv]
        failed[ids[~finite]] = True
        go = finite & ~conv
        if not go.any():
            break

        allowance = budget / (4.0 * npan)
        too_thin = (b - a) <= 8 * _EPS * np.maximum(np.abs(a), np.abs(b))
        done = (err <= np.repeat(allowance, npan)) | too_thin
        nsplit = np.zeros(ids.size, dtype=np.intp)
        for j in np.flatnonzero(go):
            i, e = segs[j]
            k = ids[j]
            d, thin = done[i:e], too_thin[i:e]
            settled_val[k] += val[i:e][d].sum()
            settled_l1[k] += abs_val[i:e][d].sum()
            settled_err[k] += err[i:e][d & ~thin].sum()
            stuck_err[k] += err[i:e][thin].sum()
            nsplit[j] = e - i - np.count_nonzero(d)

        # an integral with nothing left to split ends here, as in adaptive_quad
        stalled = ids[go & (nsplit == 0)]
        total = settled_val[stalled]
        tot_err = settled_err[stalled] + stuck_err[stalled]
        ok = tot_err <= rtol[stalled] * np.maximum(np.abs(total),
                                                   0.01 * settled_l1[stalled])
        values[stalled[ok]] = total[ok]
        errors[stalled[ok]] = tot_err[ok]
        failed[stalled[~ok]] = True
        over = go & (2 * nsplit > max_panels)
        failed[ids[over]] = True

        keep = go & (nsplit > 0) & ~over
        sel = ~done & np.repeat(keep, npan)
        owner = owner[sel]
        # per integral: its left halves, then its right halves
        order = np.argsort(np.concatenate([2 * owner, 2 * owner + 1]),
                           kind="stable")
        a, m, b = a[sel], m[sel], b[sel]
        a = np.concatenate([a, m])[order]
        b = np.concatenate([m, b])[order]
        ids = ids[keep]
        npan = 2 * nsplit[keep]
        if not ids.size:
            break
    else:
        failed[ids] = True
    return values, errors, failed


def relaxed_retry(integrate, rtol: float):
    """integrate(rtol), retried once at 100 * rtol when it raises
    NonIntegrable: the kernels' cancellation floors are estimates, and an
    underestimated floor shows up as a stalled refinement."""
    try:
        return integrate(rtol)
    except NonIntegrable:
        return integrate(rtol * 100.0)
