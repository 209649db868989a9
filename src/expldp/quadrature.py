"""Log-domain quadrature helpers for sharply peaked integrands.

The posterior normalizing integrals are of the form log ∫ exp(g(x)) dx
with a dominant peak whose width shrinks like n^(-1/2); the reduced
strip-measure integrand has a peak whose location can be far from the
origin.  Everything here subtracts the peak value before exponentiating
and reports results on the log scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .errors import NumericsError, QuadratureFailure

_LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class QuadraturePolicy:
    """Window/refinement policy for peaked 1-D integrands.

    window_halfwidth: integration window extends this many standard widths
    (1/sqrt(|curvature at peak|)) on each side of the located maximizer.
    """

    rel_tol: float = 1e-9
    window_halfwidth: float = 12.0
    newton_steps: int = 100
    quad_limit: int = 300


DEFAULT_POLICY = QuadraturePolicy()


def require_finite(x, what="value"):
    """Reject NaN; +-inf passes through (extended reals are legitimate)."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise NumericsError(f"NaN encountered in {what}")
    return x


def locate_peak(f, df, d2f, x0, steps=100, tol=1e-13):
    """Locate a maximizer of a single- or few-peaked exponent from a
    starting guess.

    Newton on the derivative converges quadratically in the concave basin
    around the guess; if the curvature flips sign along the way (the
    exponent need not be globally concave) an expanding grid search on the
    objective itself takes over, refined by a bounded golden search.
    ``f`` must accept an array: each grid is evaluated in one call.
    """
    x = float(x0)
    for _ in range(steps):
        g1 = df(x)
        g2 = d2f(x)
        if not math.isfinite(g1) or not math.isfinite(g2) or g2 >= 0.0:
            break
        x_new = x - g1 / g2
        if abs(x_new - x) <= tol * (1.0 + abs(x)):
            if d2f(x_new) < 0.0 and f(x_new) >= f(x0):
                return x_new
            break
        x = x_new
    else:
        if d2f(x) < 0.0 and f(x) >= f(x0):
            return x

    def negated(u):
        v = f(u)
        return -v if math.isfinite(v) else 1e300

    span = 1.0 + abs(x0)
    for _ in range(60):
        grid = np.linspace(x0 - span, x0 + span, 81)
        vals = np.asarray(f(grid), dtype=float)
        best = int(np.argmax(vals))
        if 0 < best < len(grid) - 1 and math.isfinite(vals[best]):
            res = minimize_scalar(
                negated,
                bounds=(grid[best - 1], grid[best + 1]),
                method="bounded",
                options={"xatol": 1e-12 * (1.0 + abs(grid[best]))},
            )
            return float(res.x)
        span *= 4.0
    raise QuadratureFailure(f"could not bracket an interior peak near {x0!r}")


def log_integral_peaked(
    logf, a, b, peak, width, policy: QuadraturePolicy = DEFAULT_POLICY
):
    """log ∫_a^b exp(logf(x)) dx with a known interior peak and width scale.

    QUADPACK refines adaptively; breakpoints seeded at the peak and a few
    widths out keep the spike from being skipped at small widths.
    """
    m = logf(peak)
    require_finite(m, "peak log-integrand")
    if m == _LOG_ZERO:
        return _LOG_ZERO

    def shifted(x):
        v = logf(x) - m
        return math.exp(v) if v > -745.0 else 0.0

    pts = []
    for k in (-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0):
        p = peak + k * width
        if a < p < b:
            pts.append(p)
    pts = sorted(set(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err, *_ = quad(
            shifted,
            a,
            b,
            points=pts or None,
            limit=policy.quad_limit,
            epsabs=0.0,
            epsrel=max(policy.rel_tol, 1e-13),
            full_output=1,
        )
    if val <= 0.0:
        return _LOG_ZERO
    if err > 1e4 * policy.rel_tol * abs(val):
        raise QuadratureFailure(
            f"peaked integral error {err:.3e} exceeds tolerance "
            f"(value {val:.3e}, window [{a:.3g}, {b:.3g}])"
        )
    return m + math.log(val)


def logsumexp_pair(la, lb):
    """log(exp(la) + exp(lb)) for extended reals."""
    if la == _LOG_ZERO:
        return lb
    if lb == _LOG_ZERO:
        return la
    m = max(la, lb)
    return m + math.log(math.exp(la - m) + math.exp(lb - m))


def gauss_legendre(order):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    cached = _GL_CACHE.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = cached
    return cached


_GL_CACHE: dict = {}


def composite_gl(fn, panels, order=40):
    """Composite Gauss-Legendre quadrature over breakpoints ``panels``.

    ``fn`` takes the array of all nodes at once and returns the array of
    integrand values.
    """
    x, w = gauss_legendre(order)
    edges = np.asarray(panels, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    vals = np.asarray(fn(mid + half * x), dtype=float)
    return float(np.sum(half * vals * w))
