"""Log-domain quadrature: the package's one integrator.

Every integral in the package has the form log ∫ exp(g(x)) dx with a
dominant peak: the posterior normalizing integrals, whose peak width
shrinks like n^(-1/2), and the two integrals of the Landau dual density.
Everything here subtracts the peak value before exponentiating and
reports results on the log scale.  The integrands take arrays: the
peaked integral is a globally adaptive Gauss-Kronrod 10/21 rule that
evaluates all pending panels of a round in one call, and the peak search
evaluates each of its grids in one call.  The peaked integral's tolerance
and panel cap are the constants ``REL_TOL`` and ``QUAD_LIMIT``.  No
module of the package calls the peak search; ``perfbench/tracer.py``
still looks ``locate_peak`` up by name.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, QuadratureFailure
from .legendre import _bounded_brent

_LOG_ZERO = float("-inf")
# relative tolerance and panel cap of ``log_integral_peaked``
REL_TOL = 1e-9
QUAD_LIMIT = 300


def _newton_peak(f, df, d2f, x0, steps, tol):
    """Newton on the derivative from ``x0``: a concave local maximizer at
    least as high as the start, or None when the iteration meets
    nonnegative curvature or a non-finite derivative, or converges to a
    point that fails that test."""
    x = float(x0)
    for _ in range(steps):
        g1 = df(x)
        g2 = d2f(x)
        if not math.isfinite(g1) or not math.isfinite(g2) or g2 >= 0.0:
            return None
        x_new = x - g1 / g2
        if abs(x_new - x) <= tol * (1.0 + abs(x)):
            x = x_new
            break
        x = x_new
    return x if d2f(x) < 0.0 and f(x) >= f(x0) else None


def locate_peak(f, df, d2f, x0, steps=100, tol=1e-13, restarts=()):
    """Locate a maximizer of a single- or few-peaked exponent from a
    starting guess.

    Newton on the derivative converges quadratically in the concave basin
    around the guess.  If the curvature flips sign along the way (the
    exponent need not be globally concave), Newton restarts from each of
    ``restarts`` in turn and keeps a maximizer at least as high as the
    guess; when none is found an expanding grid search on the objective
    itself takes over, refined by ``legendre._bounded_brent``, the
    package's port of scipy's bounded Brent minimizer.
    ``f`` must accept an array: each grid is evaluated in one call.
    """
    for start in (x0, *restarts):
        x = _newton_peak(f, df, d2f, start, steps, tol)
        if x is not None and (start == x0 or f(x) >= f(x0)):
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
            # scipy's default of 500 evaluations; a polish cut short still
            # returns its best point
            return _bounded_brent(negated, grid[best - 1], grid[best + 1],
                                  1e-12 * (1.0 + abs(float(grid[best]))), 500)[0]
        span *= 4.0
    raise QuadratureFailure(f"could not bracket an interior peak near {x0!r}")


# Gauss-Kronrod 10/21 on [-1, 1] (QUADPACK's QK21): the Kronrod nodes from
# the outside in, ending at 0, and the weights of both rules; the 10-point
# Gauss nodes are every second Kronrod node from the first
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208797983454, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# all 21 nodes in increasing order, and the weights aligned with them
QK21_NODES = np.concatenate([-_XK, _XK[-2::-1]])
QK21_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
QK21_GAUSS_WEIGHTS = np.zeros(21)
QK21_GAUSS_WEIGHTS[1:10:2] = _WG
QK21_GAUSS_WEIGHTS[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps


def _qk21(logf, lo, hi, m):
    """QK21 of exp(logf - m) on the panels [lo_i, hi_i], with one ``logf``
    call over all their nodes.

    Returns the panel values and error estimates.  The estimate is
    QUADPACK's: the Gauss-Kronrod difference, sharpened against the
    panel's mean absolute deviation and floored at 50 ulps of its mass.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * QK21_NODES
    logs = np.asarray(logf(nodes.ravel()), dtype=float)
    if np.isnan(logs).any():
        raise NumericsError("NaN encountered in the log-integrand")
    f = np.exp(logs.reshape(nodes.shape) - m)
    kronrod = f @ QK21_WEIGHTS
    gauss = f @ QK21_GAUSS_WEIGHTS
    spread = np.abs(f - 0.5 * kronrod[:, None]) @ QK21_WEIGHTS
    err = np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        sharpened = spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5)
    err = np.where((spread > 0.0) & (err > 0.0), sharpened, err)
    err = np.maximum(err, 50.0 * _EPS * kronrod)
    return kronrod * half, err * half


def log_integral_peaked(logf, a, b, peak, width):
    """log ∫_a^b exp(logf(x)) dx with a known interior peak and width scale.

    ``logf`` takes an array of nodes and returns their log-integrand
    values.  The integral is globally adaptive Gauss-Kronrod 10/21 on the
    scale of the peak value, from panels broken at the peak and a few
    widths out so that the spike is never skipped at small widths.  Each
    round evaluates every pending panel in one ``logf`` call, keeps the
    panels whose error estimates fit in their share of the budget
    REL_TOL * |integral|, and bisects the rest; ``QUAD_LIMIT`` caps the
    number of panels.  A final error estimate above 1e4 * ``REL_TOL`` of
    the value raises QuadratureFailure.
    """
    edges = [a, b]
    for k in (-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0):
        p = peak + k * width
        if a < p < b:
            edges.append(p)
    edges = np.unique(edges)
    lo, hi = edges[:-1], edges[1:]
    m = float(logf(np.array([peak]))[0])
    if math.isnan(m):
        raise NumericsError("NaN encountered in peak log-integrand")
    if m == _LOG_ZERO:
        return _LOG_ZERO
    val, err = _qk21(logf, lo, hi, m)
    while True:
        total = float(np.sum(val))
        error = float(np.sum(err))
        budget = REL_TOL * abs(total)
        if (
            error <= budget
            or lo.size >= QUAD_LIMIT
            or not math.isfinite(total)
        ):
            break
        # keep the panels with the smallest errors while they use at most
        # half of the budget; the other half is for the bisected ones
        order = np.argsort(err)
        kept = np.cumsum(err[order]) <= 0.5 * budget
        split = order[~kept][::-1][: QUAD_LIMIT - lo.size]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _qk21(logf, new_lo, new_hi, m)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
    if not math.isfinite(total):
        raise QuadratureFailure(
            f"peaked integral overflowed (window [{a:.3g}, {b:.3g}])"
        )
    if total <= 0.0:
        return _LOG_ZERO
    if error > 1e4 * REL_TOL * total:
        raise QuadratureFailure(
            f"peaked integral error {error:.3e} exceeds tolerance "
            f"(value {total:.3e}, window [{a:.3g}, {b:.3g}])"
        )
    return m + math.log(total)
