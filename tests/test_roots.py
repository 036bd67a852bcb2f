import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from freemult import _roots
from freemult.errors import BracketFailure

# the (xtol, rtol, maxiter) of each brentq call in the package
_SOLVER_TOLERANCES = [(1e-300, 1e-13, 300), (1e-300, 1e-12, 100),
                      (1e-300, 8.9e-16, 100)]


def _smooth(shape, scale, centre, wiggle, freq):
    """A smooth test function of x: a monotone core plus a ripple."""
    core = [lambda x: x - centre, lambda x: (x - centre) ** 3,
            lambda x: math.tanh(4.0 * (x - centre)),
            lambda x: math.expm1(x - centre)][shape]
    return lambda x: scale * core(x) + wiggle * math.sin(freq * x)


_FUNCTIONS = st.builds(_smooth, shape=st.integers(0, 3),
                       scale=st.floats(1e-3, 1e3), centre=st.floats(-2.0, 2.0),
                       wiggle=st.floats(0.0, 0.5), freq=st.floats(0.1, 20.0))
_BRACKETS = st.tuples(st.floats(-4.0, 2.0), st.floats(1e-6, 5.0))


def _recording(f):
    """f, and the list of the points it is evaluated at, in order."""
    seen = []

    def g(x):
        seen.append(float(x))
        return f(x)
    return g, seen


@settings(max_examples=50)
@given(f=_FUNCTIONS, bracket=_BRACKETS, tols=st.sampled_from(_SOLVER_TOLERANCES))
def test_brentq_makes_scipys_evaluations_and_root(f, bracket, tols):
    a, b = bracket[0], bracket[0] + bracket[1]
    ours, ours_seen = _recording(f)
    theirs, theirs_seen = _recording(f)
    try:
        expected = optimize.brentq(theirs, a, b, xtol=tols[0], rtol=tols[1],
                                   maxiter=tols[2])
    except (ValueError, RuntimeError):
        with pytest.raises(BracketFailure):
            _roots.brentq(ours, a, b, *tols)
    else:
        assert _roots.brentq(ours, a, b, *tols) == expected
    assert ours_seen == theirs_seen


@settings(max_examples=50)
@given(f=_FUNCTIONS, bracket=_BRACKETS, log_xatol=st.floats(-14.0, -3.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_bounded_minimum_makes_scipys_evaluations_and_minimum(f, bracket,
                                                              log_xatol, sign):
    a, b = bracket[0], bracket[0] + bracket[1]
    xatol = 10.0 ** log_xatol * abs(b)
    ours, ours_seen = _recording(lambda x: sign * math.atan(f(x)) ** 2)
    theirs, theirs_seen = _recording(lambda x: sign * math.atan(f(x)) ** 2)
    res = optimize.minimize_scalar(theirs, bounds=(a, b), method="bounded",
                                   options={"xatol": xatol})
    assert _roots.bounded_minimum(ours, a, b, xatol) == (res.x, res.fun)
    assert ours_seen == theirs_seen


def test_brentq_same_sign_bracket_is_a_bracket_failure():
    with pytest.raises(BracketFailure, match=r"same sign .* \[1\.0, 2\.0\]"):
        _roots.brentq(lambda x: x * x, 1.0, 2.0, 1e-300, 1e-12, 100)


def test_brentq_nan_value_is_a_bracket_failure():
    with pytest.raises(BracketFailure, match=r"NaN at x=.* \[0\.0, 2\.0\]"):
        _roots.brentq(lambda x: x - 1.0 if x < 1.5 else math.nan, 0.0, 2.0,
                      1e-300, 1e-12, 100)


def test_brentq_without_convergence_is_a_bracket_failure():
    with pytest.raises(BracketFailure, match=r"no convergence in 3 .* \[0\.0, 3\.0\]"):
        _roots.brentq(lambda x: x ** 3 - 2.0, 0.0, 3.0, 1e-300, 1e-12, 3)
    with pytest.raises(RuntimeError):  # scipy gives up at the same count
        optimize.brentq(lambda x: x ** 3 - 2.0, 0.0, 3.0, xtol=1e-300,
                        rtol=1e-12, maxiter=3)
