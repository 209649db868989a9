"""The polish routines of ``legendre`` against the scipy routines they port:
``_brentq`` against ``scipy.optimize.brentq`` and ``_bounded_brent``
against ``minimize_scalar(method="bounded")``.  Both must visit the same
points and return the same doubles, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar

from expldp.legendre import POLISH_MAXITER, _bounded_brent, _brentq

COMMON = dict(deadline=None, derandomize=True)

coef = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
spot = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
width = st.floats(min_value=1e-9, max_value=20.0, allow_nan=False)
scale = st.floats(min_value=0.1, max_value=30.0, allow_nan=False)
xtols = st.sampled_from([1e-14, 2e-12, 1e-6, 1e-3, 0.1])
rtols = st.sampled_from([8.9e-16, 1e-10, 1e-4])
xatols = st.sampled_from([1e-12, 1e-5, 1e-2])
maxiters = st.sampled_from([1, 2, 3, 5, 10, 100, 500, POLISH_MAXITER])


def bits(x):
    return float(x).hex()


def recorded(f):
    """f, and the list of the points it is called at, as floats."""
    points = []

    def g(x):
        points.append(bits(x))
        return f(x)

    return g, points


def both_brentq(f, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=POLISH_MAXITER):
    """Run scipy's brentq and the port; assert the same evaluations and the
    same outcome, and return the port's (root, converged), or the
    ValueError both raised.  scipy's first two evaluations are f(a) and
    f(b), which the port is handed, so its own evaluations are scipy's
    from the third on."""
    g_ref, ref_points = recorded(f)
    g_port, port_points = recorded(f)
    ends = [bits(a), bits(b)]
    try:
        root, info = brentq(g_ref, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                            full_output=True, disp=False)
    except ValueError as exc:
        with pytest.raises(ValueError):
            _brentq(g_port, a, b, f(a), f(b), xtol, rtol, maxiter)
        assert ref_points[:2] == ends[:len(ref_points)]
        assert port_points == ref_points[2:]
        return exc
    got = _brentq(g_port, a, b, f(a), f(b), xtol, rtol, maxiter)
    assert ref_points[:2] == ends
    assert port_points == ref_points[2:]
    assert (bits(got[0]), got[1]) == (bits(root), info.converged)
    assert len(port_points) + 2 == info.function_calls
    return got


def both_bounded(f, a, b, xatol=1e-12, maxiter=POLISH_MAXITER):
    """Run scipy's bounded Brent and the port; assert the same
    evaluations, x, f(x), convergence and nfev, and return the port's
    result."""
    g_ref, ref_points = recorded(f)
    g_port, port_points = recorded(f)
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize_scalar(g_ref, bounds=(a, b), method="bounded",
                              options={"xatol": xatol, "maxiter": maxiter})
    got = _bounded_brent(g_port, a, b, xatol, maxiter)
    assert port_points == ref_points
    assert (bits(got[0]), bits(got[1]), got[2], got[3]) == (
        bits(res.x), bits(res.fun), bool(res.success), res.nfev)
    return got


def cubic(c1, c2, c3):
    return lambda x: ((c3 * x + c2) * x + c1) * x


def log_cosh(s, m, k):
    # log cosh(s (x - m)) + k x, without overflow at large |x|
    def f(x):
        u = abs(s * (x - m))
        return u + math.log1p(math.exp(-2.0 * u)) - math.log(2.0) + k * x
    return f


def log_cosh_slope(s, m, k):
    return lambda x: s * math.tanh(s * (x - m)) + k


class TestBrentq:
    @settings(max_examples=150, **COMMON)
    @given(r=spot, c=st.floats(min_value=0.0, max_value=5.0), lo=spot, w=width,
           xtol=xtols, rtol=rtols, maxiter=maxiters)
    def test_monotone_cubic(self, r, c, lo, w, xtol, rtol, maxiter):
        # brackets that miss the root r have one sign and raise
        both_brentq(lambda x: (x - r) * (1.0 + c * (x - r) * (x - r)),
                    lo, lo + w, xtol, rtol, maxiter)

    @settings(max_examples=150, **COMMON)
    @given(c0=coef, c1=coef, c2=coef, c3=coef, lo=spot, w=width,
           xtol=xtols, rtol=rtols)
    def test_polynomial(self, c0, c1, c2, c3, lo, w, xtol, rtol):
        both_brentq(lambda x: ((c3 * x + c2) * x + c1) * x + c0,
                    lo, lo + w, xtol, rtol)

    @settings(max_examples=150, **COMMON)
    @given(s=scale, m=spot, k=st.floats(min_value=-0.99, max_value=0.99),
           lo=spot, w=width, maxiter=maxiters)
    def test_log_cosh_slope(self, s, m, k, lo, w, maxiter):
        both_brentq(log_cosh_slope(s, m, k * s), lo, lo + w, maxiter=maxiter)

    def test_short_step_near_its_bound(self):
        # at a coarse xtol the short-step test 2|s| < min(|s_pre|,
        # 3|s_bis| - delta) is decided by delta; one such cubic in about
        # 5000 random ones, found by search
        def f(x):
            return (((1.2141963728283027 * x - 1.8577463799387717) * x
                     + 0.11994713870102292) * x + 0.04654619013357575)

        both_brentq(f, 1.0314655527264502, 1.6570662848096185, xtol=0.1, rtol=1e-10)

    @pytest.mark.parametrize("a, b", [(0.3, 1.0), (-1.0, 0.3)])
    def test_root_at_an_endpoint(self, a, b):
        assert both_brentq(lambda x: x - 0.3, a, b) == (0.3, True)

    @pytest.mark.parametrize("f", [lambda x: 1.0 + x * x, lambda x: -1e-200,
                                   lambda x: math.nan, lambda x: x if x < 0.5 else math.nan])
    def test_same_sign_or_nan_raises(self, f):
        assert isinstance(both_brentq(f, 0.0, 1.0), ValueError)

    def test_maxiter_exhaustion(self):
        assert both_brentq(lambda x: math.exp(x) - 2.0, 0.0, 1.0, maxiter=3)[1] is False
        # a step function makes every step a bisection
        assert both_brentq(lambda x: 1.0 if x < 0.3 else -1.0, 0.0, 1.0,
                           maxiter=30)[1] is False

    def test_window_2e300_wide(self):
        root, converged = both_brentq(lambda x: 0.3 - x, -1e300, 1e300)
        assert converged and root == pytest.approx(0.3, abs=1e-13)
        # a sign-only derivative bisects the whole window
        root, converged = both_brentq(lambda x: -math.copysign(1.0, x - 0.3),
                                      -1e300, 1e300)
        assert converged and root == pytest.approx(0.3, abs=1e-13)


class TestBoundedBrent:
    @settings(max_examples=150, **COMMON)
    @given(c1=coef, c2=coef, c3=coef, lo=spot, w=width, xatol=xatols,
           maxiter=maxiters)
    def test_polynomial(self, c1, c2, c3, lo, w, xatol, maxiter):
        both_bounded(cubic(c1, c2, c3), lo, lo + w, xatol, maxiter)

    @settings(max_examples=150, **COMMON)
    @given(s=scale, m=spot, k=st.floats(min_value=-1.5, max_value=1.5),
           lo=spot, w=width, xatol=xatols)
    def test_log_cosh(self, s, m, k, lo, w, xatol):
        both_bounded(log_cosh(s, m, k * s), lo, lo + w, xatol)

    def test_nan_value_is_unconverged(self):
        x, fx, converged, _ = both_bounded(
            lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, 0.0, 1.0)
        assert not converged

    def test_maxiter_exhaustion(self):
        _, _, converged, nfev = both_bounded(lambda x: (x - 0.3) ** 2, 0.0, 1.0,
                                             maxiter=4)
        assert not converged and nfev == 4

    def test_window_2e300_wide(self):
        x, _, converged, nfev = both_bounded(log_cosh(1.0, 0.3, 0.0), -1e300, 1e300)
        assert converged and x == pytest.approx(0.3, abs=1e-6)
        assert nfev > 1000

    def test_overflowing_parabola_warns_nothing(self):
        # f ~ 1e300 over x ~ 1e150: the parabolic step multiplies differences
        # of x by differences of f, which overflows; scipy's numpy scalars
        # warn there, the port's floats do not
        def f(x):
            return (x - 4.3e150) * (x - 4.3e150)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _bounded_brent(f, 1e150, 1e151, 1e-12, POLISH_MAXITER)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            minimize_scalar(f, bounds=(1e150, 1e151), method="bounded",
                            options={"xatol": 1e-12, "maxiter": POLISH_MAXITER})
        assert any("overflow" in str(w.message) for w in caught)
        x, _, converged, _ = both_bounded(f, 1e150, 1e151)
        assert converged and x == pytest.approx(4.3e150, rel=1e-8)
