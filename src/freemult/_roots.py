"""Brent's scalar root and bounded minimum, ported from scipy.

`brentq` is scipy.optimize.brentq (its C loop, after Brent, *Algorithms for
Minimization Without Derivatives*, 1973, ch. 4) and `bounded_minimum` is
scipy.optimize.minimize_scalar(method="bounded") (after Brent's fmin,
ch. 5).  Both are line-for-line ports in double arithmetic, so they make
scipy's evaluations in scipy's order and return its floats bit for bit;
importing scipy.optimize would cost the command line a tenth of a second of
start-up for two fifty-line loops.  Where scipy's brentq raises ValueError
or RuntimeError on a bracket, the port raises BracketFailure naming it.
"""

from __future__ import annotations

import math

from .errors import BracketFailure

# minimize_scalar's default evaluation budget of the bounded method
_BOUNDED_MAXITER = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int) -> float:
    """A root of f in the finite bracket [a, b], where f(a) and f(b) differ
    in sign, to within xtol + rtol * |root|; scipy's bounds xtol > 0 and
    rtol >= 4 * machine epsilon hold for every caller."""

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise BracketFailure(f"f is NaN at x={x!r} in the bracket "
                                 f"[{a!r}, {b!r}]")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketFailure(f"f has the same sign at both ends of the bracket "
                             f"[{a!r}, {b!r}]: {fpre!r}, {fcur!r}")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # C's inf or nan: the step test below fails
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise BracketFailure(f"no convergence in {maxiter} iterations in the "
                         f"bracket [{a!r}, {b!r}]; last x={xcur!r}")


def bounded_minimum(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on the finite [a, b], a <= b, x to
    within about xatol, after at most 500 evaluations of f."""
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXITER:
            break
    return xf, fx
