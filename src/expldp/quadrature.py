"""Log-domain quadrature: the package's one integrator.

Every integral in the package has the form log ∫ exp(g(x)) dx with a
dominant peak: the posterior normalizing integrals, whose peak width
shrinks like n^(-1/2), and the two integrals of the Landau dual density.
Everything here subtracts the peak value before exponentiating and
reports results on the log scale.  The integrands take arrays: the
peaked integral is a globally adaptive Gauss-Kronrod 10/21 rule that
evaluates all pending panels of a round in one call, and the peak search
evaluates each of its grids in one call.  A panel with exactly one edge
at its window's end takes the rule on z = end ∓ s², with weight 2s: a
square-root endpoint (the strip curve's √(1 − z³) at z = 1) is smooth
in s, so the rule does not bisect toward it, and a smooth endpoint stays
smooth.  The peaked integral takes a stack of jobs, g = scale * logf on
windows [a, b] with their own peaks and widths, that share one ``logf``:
a posterior's normalizer and event pieces at every sample size of a
schedule, with scale = n.  The jobs run in lockstep, one ``logf`` call
per round for all of them, and each job's result is the float it gets
alone; a single integral is a stack of one.  The peaked integral's
tolerance and panel cap are the constants ``REL_TOL`` and
``QUAD_LIMIT``.  No module of the package calls the peak search;
``perfbench/tracer.py`` still looks ``locate_peak`` up by name.
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
_NODES_SQUARED = QK21_NODES * QK21_NODES
_EPS = np.finfo(float).eps


def _qk21(logf, lo, hi, side, m, scale):
    """QK21 of exp(scale * logf - m) on the panels [lo_i, hi_i], with one
    ``logf`` call over all their nodes; ``side``, ``m`` and ``scale`` are
    per panel.

    A panel whose ``side`` is +1 (its left edge is its job's window end)
    or -1 (its right edge is) takes the rule in s on z = end ± s², s from
    0 to √(hi - lo), with weight 2s: a √(end - z) or 1/√(end - z) factor
    there is smooth in s.  On the nodes x of [-1, 1] every panel is
    z = c + d·x + e·x² with d = (hi - lo) / 2, e = side · d / 2 and
    c = mid - e, and Jacobian d · (1 + side · x); side 0 is the plain
    affine map.  Returns the panel values and error estimates.  The
    estimate is QUADPACK's: the Gauss-Kronrod difference, sharpened
    against the panel's mean absolute deviation and floored at 50 ulps of
    its mass.  The rule's sums are ``einsum`` loops, not a BLAS
    matrix-vector product, whose rounding depends on how many panels
    share the call: a panel's value is the same in any stack.
    """
    half = 0.5 * (hi - lo)
    e = 0.5 * side * half
    nodes = ((0.5 * (lo + hi) - e)[:, None] + half[:, None] * QK21_NODES
             + e[:, None] * _NODES_SQUARED)
    logs = scale[:, None] * np.asarray(logf(nodes.ravel()), dtype=float).reshape(
        nodes.shape)
    if np.isnan(logs).any():
        raise NumericsError("NaN encountered in the log-integrand")
    f = np.exp(logs - m[:, None]) * (1.0 + side[:, None] * QK21_NODES)
    kronrod = np.einsum("ij,j->i", f, QK21_WEIGHTS)
    gauss = np.einsum("ij,j->i", f, QK21_GAUSS_WEIGHTS)
    spread = np.einsum("ij,j->i", np.abs(f - 0.5 * kronrod[:, None]), QK21_WEIGHTS)
    err = np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        sharpened = spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5)
    err = np.where((spread > 0.0) & (err > 0.0), sharpened, err)
    err = np.maximum(err, 50.0 * _EPS * kronrod)
    return kronrod * half, err * half


# breakpoints of a job's first panels, in widths from its peak
_BREAKS = np.array([-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0])


def _initial_panels(jobs, a, b, peak, width):
    """(owner, lo, hi) of the first panels of ``jobs``, grouped by job:
    each window broken at its peak and a few widths out, so that the
    spike is never skipped at small widths."""
    edges = np.empty((jobs.size, _BREAKS.size + 2))
    edges[:, 0] = a
    edges[:, 1:-1] = peak[:, None] + _BREAKS * width[:, None]
    edges[:, -1] = b
    # the breakpoints increase along a row; a repeated one is dropped
    used = np.ones(edges.shape, dtype=bool)
    inner = edges[:, 1:-1]
    used[:, 1:-1] = (a[:, None] < inner) & (inner < b[:, None])
    used[:, 2:-1] &= inner[:, 1:] > inner[:, :-1]
    owner = np.repeat(jobs, used.sum(axis=1) - 1)
    return owner, edges[:, :-1][used[:, :-1]], edges[:, 1:][used[:, 1:]]


def _log_total(m, total, error, a, b):
    """A finished job's log integral m + log(total), or QuadratureFailure
    where its sum overflowed or its error estimate exceeds 1e4 *
    ``REL_TOL`` of the value."""
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


def log_integral_peaked(logf, a, b, peak, width, scale=1.0):
    """log ∫_a^b exp(scale * logf(x)) dx with a known interior peak and
    width scale, for one job or a stack of them.

    ``a``, ``b``, ``peak``, ``width`` and ``scale`` are scalars or
    arrays that broadcast to one shape, a job per element; scalars give a
    float, arrays an array of that shape.  ``scale`` must be positive.
    ``logf`` takes an array of nodes and returns their log-integrand
    values; every job shares it.  Each job is globally adaptive
    Gauss-Kronrod 10/21 on the scale of its own peak value, from panels
    broken at its peak and a few widths out.  A panel with exactly one
    edge at its job's window end takes the rule on z = end ∓ s², which
    makes a square-root endpoint smooth and keeps a smooth one smooth.
    The jobs run in lockstep: one ``logf`` call takes every job's peak,
    and each round evaluates every pending panel of every job in one
    call.  Per job, a round keeps the panels whose error estimates fit in
    their share of the budget REL_TOL * |integral| and bisects the rest,
    and ``QUAD_LIMIT`` caps the number of panels; a job whose peak value
    is -inf is -inf at once.  A job's final error estimate above 1e4 *
    ``REL_TOL`` of its value raises QuadratureFailure naming its window.
    Every per-job step, its sums included, reads only that job's panels,
    so a job's result does not depend on the stack it is in.
    """
    args = [np.asarray(v, dtype=float) for v in (a, b, peak, width, scale)]
    if len({v.shape for v in args}) > 1:
        args = np.broadcast_arrays(*args)
    shape = args[0].shape
    a, b, peak, width, scale = (v.ravel() for v in args)
    results = np.full(a.size, _LOG_ZERO)
    peak_logs = scale * np.asarray(logf(peak), dtype=float)
    if np.isnan(peak_logs).any():
        raise NumericsError("NaN encountered in peak log-integrand")
    jobs = np.flatnonzero(peak_logs > _LOG_ZERO)
    # the panels of every running job: those it keeps, with their values
    # and error estimates, then those it has yet to evaluate.  A job's
    # panels are in the same order in any stack, and each of its sums
    # runs over them in that order
    owner, lo, hi = _initial_panels(jobs, a[jobs], b[jobs], peak[jobs],
                                    width[jobs])
    kept = (np.empty(0, dtype=int),) + (np.empty(0),) * 4
    while owner.size:
        side = (lo == a[owner]).astype(float) - (hi == b[owner])
        val, err = _qk21(logf, lo, hi, side, peak_logs[owner], scale[owner])
        owner, lo, hi, val, err = (
            np.concatenate(pair) for pair in zip(kept, (owner, lo, hi, val, err)))
        # per job, indexed by the job's number
        counts = np.bincount(owner, minlength=a.size)
        total = np.bincount(owner, val, minlength=a.size)
        error = np.bincount(owner, err, minlength=a.size)
        budget = REL_TOL * np.abs(total)
        done = (error <= budget) | (counts >= QUAD_LIMIT) | ~np.isfinite(total)
        for j in np.flatnonzero(done & (counts > 0)).tolist():
            results[j] = _log_total(float(peak_logs[j]), float(total[j]),
                                    float(error[j]), float(a[j]), float(b[j]))
        running = ~done[owner]
        if not running.any():
            break
        # per running job: rank its panels by error, keep the smallest
        # while their running sum stays within half of the budget (the
        # other half is for the bisected ones), and bisect the rest,
        # largest errors first, up to QUAD_LIMIT panels.  The running sums
        # are the rows of a table, one row a job, so each is the job's own
        by_error = np.lexsort((err, owner))
        rank = np.empty(owner.size, dtype=int)
        rank[by_error] = (np.arange(owner.size)
                          - (np.cumsum(counts) - counts)[owner[by_error]])
        table = np.full((a.size, counts.max()), np.inf)
        table[owner, rank] = err
        fits = (np.cumsum(table, axis=1) <= 0.5 * budget[:, None]).sum(axis=1)
        keep = running & (rank < np.maximum(fits, 2 * counts - QUAD_LIMIT)[owner])
        split = running & ~keep
        kept = tuple(v[keep] for v in (owner, lo, hi, val, err))
        mid = 0.5 * (lo[split] + hi[split])
        owner = np.concatenate([owner[split], owner[split]])
        lo, hi = (np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
    return float(results[0]) if shape == () else results.reshape(shape)
