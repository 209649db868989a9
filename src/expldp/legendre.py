"""Numerical convex conjugation.

The conjugate kappa*(t) = sup_theta {theta.t - kappa(theta)} is computed by
damped Newton on the strictly concave log-likelihood; the constrained
variant kappa*_B restricts the supremum to an affine subspace (the same
Newton, with its steps reduced onto the subspace) or to a parametrized
curve (a scan of the model coordinate whose local maxima are polished by a
derivative root).

``scan_maximize``, the package's one 1-D maximizer, also serves the
posterior peaks in ``models`` and the constant-MLE line minima in ``rates``.

When the supremum over a non-closed constraint set is approached but not
attained, the result reports the supremum with ``converged=False`` and no
argmax instead of guessing attainment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import families
from .errors import MeanOutsideDomain, NoConvergence, NumericsError, OutsideDomain
from .families import as_point, cumulant, log_likelihood, mean_map
from .intervals import Interval

# the contract requires gradient norm <= 1e-10 at convergence; aiming two
# orders tighter keeps directional stationarity residuals below 1e-10 even
# after multiplication by grid-sized coordinate offsets
GRAD_TOL = 1e-12
VALUE_TIE_TOL = 1e-10
COORD_TIE_TOL = 1e-6
# Newton iterations before a conjugate gives up with NoConvergence
MAX_NEWTON_ITER = 200


@dataclass
class LegendreResult:
    t: np.ndarray
    value: float
    argmax: np.ndarray | None
    converged: bool
    iterations: int
    multiplicity_flag: bool = False
    coordinate: float | None = None   # model coordinate for curve constraints

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "argmax": None if self.argmax is None else [float(v) for v in self.argmax],
            "converged": self.converged,
            "iterations": self.iterations,
            "multiplicity_flag": self.multiplicity_flag,
        }


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint B for kappa*_B: the full domain, an affine subspace
    (base point plus independent spanning directions, intersected with the
    essential domain), or a parametrized curve restricted to coordinate
    intervals."""

    kind: str                         # "full" | "affine" | "curve"
    base: np.ndarray | None = None
    directions: np.ndarray | None = None     # (k, d)
    model: object | None = None              # duck-typed CurvedModel
    intervals: tuple | None = None            # model-coordinate restriction

    @staticmethod
    def full() -> "ConstraintSet":
        return ConstraintSet(kind="full")

    @staticmethod
    def affine(base, directions) -> "ConstraintSet":
        base = np.asarray(base, dtype=float)
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if np.linalg.matrix_rank(directions) < directions.shape[0]:
            raise ValueError("affine directions must be linearly independent")
        return ConstraintSet(kind="affine", base=base, directions=directions)

    @staticmethod
    def curve(model, intervals=None) -> "ConstraintSet":
        ivs = tuple(intervals) if intervals is not None else tuple(model.coord_intervals)
        return ConstraintSet(kind="curve", model=model, intervals=ivs)


def _require_mean_point(family, t):
    tt = as_point(t, family.dim, "mean point")
    if not family.domain.mean_domain(tt):
        raise MeanOutsideDomain(
            f"t={tt} is outside the interior of the mean domain of {family.name}"
        )
    return tt


def _newton_max(family, t, theta0, dirs):
    """Damped Newton ascent of l(.; t) over theta0 + span(dirs).

    ``dirs`` is a (k, d) array of independent directions; the identity
    gives the full domain.  Every iterate stays in theta0 + span(dirs):
    the gradient and Hessian are reduced onto the directions, and the
    reduced step moves theta along ``step @ dirs``.  Returns (theta,
    iterations).  Backtracking halves the step until the strictly concave
    objective increases, which guarantees global convergence from any
    interior start, or until the step's predicted gain falls below the
    rounding floor of the objective; then the flat-step path below takes
    the full step.  ``t`` must already be a validated mean point: the
    iterates go to the families' trusted kernels, and only a non-finite
    Newton step is checked here.
    """
    theta = np.array(theta0, dtype=float)
    val = families._log_likelihood(family, theta, t)
    if not math.isfinite(val):
        raise NoConvergence(
            f"initial point theta={theta} is outside the domain of {family.name}"
        )
    flat_budget = 6
    for it in range(1, MAX_NEWTON_ITER + 1):
        mean, hess_full = families._moments(family, theta)
        grad = dirs @ (t - mean)
        if np.max(np.abs(grad)) <= GRAD_TOL:
            return theta, it - 1
        hess = dirs @ hess_full @ dirs.T
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad / max(np.max(np.abs(np.diag(hess))), 1e-12)
        if not np.all(np.isfinite(step)):
            raise NumericsError(
                f"non-finite Newton step for {family.name} at theta={theta}"
            )
        # the rounding of theta.t - kappa(theta) scales with |theta|.|t|,
        # not with the value: near-degenerate means give |theta| ~ 1e8
        flat = 1e-11 * (1.0 + abs(val) + float(np.abs(theta) @ np.abs(t)))
        # first-order gain of the unit step; it is positive for a positive
        # definite Hessian, and otherwise halving runs its full course
        slope = float(grad @ step)
        direction = step @ dirs
        scale = 1.0
        improved = False
        for _ in range(70):
            theta_new = theta + scale * direction
            val_new = families._log_likelihood(family, theta_new, t)
            # kappa can be finite at listed boundary points where the
            # gradient is not defined; iterates must stay interior
            if (
                math.isfinite(val_new)
                and val_new > val
                and family.domain.interior(theta_new)
            ):
                theta, val = theta_new, val_new
                improved = True
                break
            scale *= 0.5
            if 0.0 < scale * slope < flat:
                # a shorter step cannot gain more than rounding can hide
                break
        if not improved:
            # the objective is flat to double precision near the optimum;
            # full Newton steps still contract the gradient quadratically
            theta_new = theta + direction
            val_new = families._log_likelihood(family, theta_new, t)
            acceptable = (
                math.isfinite(val_new)
                and val_new >= val - flat
                and family.domain.interior(theta_new)
            )
            if acceptable and flat_budget > 0:
                flat_budget -= 1
                theta, val = theta_new, val_new
                continue
            raise NoConvergence(
                f"line search stalled for {family.name} at t={t}, ||grad||="
                f"{np.max(np.abs(grad)):.3e}"
            )
    raise NoConvergence(
        f"Newton did not reach gradient tolerance in {MAX_NEWTON_ITER} iterations "
        f"for {family.name} at t={t}"
    )


def _newton_result(family, t, theta0, dirs) -> LegendreResult:
    theta, iters = _newton_max(family, t, theta0, dirs)
    return LegendreResult(
        t=t,
        value=log_likelihood(family, theta, t),
        argmax=theta,
        converged=True,
        iterations=iters,
    )


def conjugate(family, t) -> LegendreResult:
    """kappa*(t) with its maximizer (the saturated-model MLE for data mean t)."""
    tt = _require_mean_point(family, t)
    return _newton_result(
        family, tt, family.domain.initial_point, np.eye(family.dim)
    )


def conjugate_constrained(family, constraint: ConstraintSet, t) -> LegendreResult:
    """kappa*_B(t) = sup over the constraint set of l(.; t)."""
    tt = _require_mean_point(family, t)
    if constraint.kind == "full":
        return conjugate(family, tt)
    if constraint.kind == "affine":
        base = constraint.base
        if not math.isfinite(cumulant(family, base)):
            raise NoConvergence("affine base point lies outside the domain")
        return _newton_result(family, tt, base, constraint.directions)
    if constraint.kind == "curve":
        return _maximize_on_curve(family, constraint.model, tt, constraint.intervals)
    raise ValueError(f"unknown constraint kind {constraint.kind!r}")


# ---------------------------------------------------------------------------
# scan-then-polish maximization
# ---------------------------------------------------------------------------


def scan_maximize(f, lo, hi, n, df=None):
    """Polished local maxima of f on [lo, hi] as (x, f(x)) pairs, best first.

    ``f`` takes the n equispaced scan points as one array in one call, and
    a float in the polish; non-finite values count as -inf.  Every scan
    point at least as high as both neighbours is polished on its two
    neighbouring cells: by ``brentq`` on ``df`` when ``df`` is given and
    its signs bracket a root there, otherwise by bounded Brent on -f.  A
    scan that is -inf everywhere gives no maxima.
    """
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(f(xs), dtype=float)
    vals = np.where(np.isfinite(vals), vals, -math.inf)
    padded = np.concatenate(([-math.inf], vals, [-math.inf]))
    peaks = np.flatnonzero(
        (vals > -math.inf) & (vals >= padded[:-2]) & (vals >= padded[2:])
    )
    maxima = [_polish(f, df, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)])
              for i in peaks]
    return sorted(maxima, key=lambda m: -m[1])


def _polish(f, df, a, b):
    """One local maximum of f inside [a, b]."""
    if df is not None:
        try:
            root = (brentq(df, a, b, xtol=1e-14, rtol=8.9e-16)
                    if -math.inf < df(b) < 0.0 < df(a) < math.inf else None)
        except (OutsideDomain, ValueError):
            root = None
        if root is not None:
            return float(root), float(f(root))

    def negated(x):
        v = f(x)
        return -v if math.isfinite(v) else 1e300

    res = minimize_scalar(
        negated, bounds=(a, b), method="bounded", options={"xatol": 1e-12},
    )
    return float(res.x), (-float(res.fun) if res.fun < 1e300 else -math.inf)


# ---------------------------------------------------------------------------
# curve constraints
# ---------------------------------------------------------------------------


# scan points per coordinate window of a curve conjugate
CURVE_SCAN = 16


def curve_loglik(family, model, t):
    """z -> l(eta(z); t) for a coordinate or an array of them, with one
    ``cumulant_many`` call on the stacked images."""

    def l_of(z):
        zs = np.asarray(z, dtype=float)
        thetas = np.asarray(model.map(zs.ravel()), dtype=float).T
        kappas = families.cumulant_many(family, thetas)
        if np.isnan(kappas).any():
            raise NumericsError(f"cumulant NaN on {model.name}")
        vals = thetas @ t - kappas
        return float(vals[0]) if zs.ndim == 0 else vals.reshape(zs.shape)

    return l_of


def _bounded_window(iv: Interval, l_of):
    """Finite scan window for one coordinate interval, expanding
    geometrically for unbounded intervals until the maximum brackets."""
    if iv.bounded:
        return iv.lo, iv.hi
    span = 1.0
    center = 0.0
    if math.isfinite(iv.lo):
        center = iv.lo + 1.0
    elif math.isfinite(iv.hi):
        center = iv.hi - 1.0
    for _ in range(64):
        lo = max(iv.lo, center - span)
        hi = min(iv.hi, center + span)
        vals = l_of(np.linspace(lo, hi, CURVE_SCAN))
        if np.all(np.isneginf(vals)):
            span *= 2.0
            continue
        # the window brackets the maximum unless its best point is a window
        # edge that can still move outwards
        best = int(np.nanargmax(vals))
        if not ((best == 0 and lo > iv.lo)
                or (best == CURVE_SCAN - 1 and hi < iv.hi)):
            return lo, hi
        span *= 2.0
    raise NoConvergence(
        "could not bracket the constrained maximum on an unbounded window"
    )


@dataclass
class _Candidate:
    z: float
    value: float
    attained: bool


def _maximize_on_curve(family, model, t, intervals) -> LegendreResult:
    l_of = curve_loglik(family, model, t)

    def dl_of(z):
        theta = model.map(float(z))
        grad = t - mean_map(family, theta)
        return float(model.jacobian(float(z)) @ grad)

    candidates: list[_Candidate] = []
    iterations = 0
    for iv in intervals:
        if iv.degenerate:
            candidates.append(_Candidate(iv.lo, l_of(iv.lo), True))
            continue
        lo, hi = _bounded_window(iv, l_of)
        inset = 1e-12 * max(1.0, abs(lo), abs(hi))
        maxima = scan_maximize(l_of, lo + inset, hi - inset, CURVE_SCAN, dl_of)
        iterations += len(maxima)
        for z_star, value in maxima:
            # only genuinely stationary points count as interior
            # maximizers; a polish clamped against a window edge is just a
            # monotone approach to an endpoint, which the endpoint
            # candidates below handle
            try:
                stationary = abs(dl_of(z_star)) <= 1e-6 * (
                    1.0 + float(np.max(np.abs(t)))
                )
            except OutsideDomain:
                stationary = False
            if stationary:
                candidates.append(_Candidate(z_star, value, True))
        # endpoint candidates: closed endpoints are evaluated exactly (the
        # natural image may be a listed boundary point with finite kappa);
        # open endpoints contribute only a supremum estimate from inside
        for z_end, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)):
            if not math.isfinite(z_end):
                continue
            if closed:
                candidates.append(_Candidate(z_end, l_of(z_end), True))
            else:
                z_in = z_end + inset if z_end == iv.lo else z_end - inset
                candidates.append(_Candidate(z_in, l_of(z_in), False))
    candidates = [c for c in candidates if math.isfinite(c.value)]
    if not candidates:
        raise NoConvergence("constrained likelihood is -inf on the whole set")
    best = max(candidates, key=lambda c: (c.value, -c.z))
    near = [
        c for c in candidates
        if c.value >= best.value - VALUE_TIE_TOL
    ]
    distinct = []
    for c in sorted(near, key=lambda c: c.z):
        if not distinct or abs(c.z - distinct[-1].z) > COORD_TIE_TOL:
            distinct.append(c)
    chosen = distinct[0]
    multiplicity = len(distinct) > 1
    if not chosen.attained:
        return LegendreResult(
            t=t, value=chosen.value, argmax=None, converged=False,
            iterations=iterations, multiplicity_flag=multiplicity,
            coordinate=None,
        )
    theta = model.map(chosen.z)
    return LegendreResult(
        t=t, value=chosen.value, argmax=np.asarray(theta, dtype=float),
        converged=True, iterations=iterations,
        multiplicity_flag=multiplicity, coordinate=float(chosen.z),
    )


# ---------------------------------------------------------------------------
# grid oracle (test support)
# ---------------------------------------------------------------------------


# grid points per block of the full-domain grid oracle: whole rows of the
# leading axis, at least one.  2^15 two-dimensional points are 512 KiB, so
# a block with its exp, kappa and objective temporaries stays inside a 2 MiB
# L2 cache while a stack of mean points rereads it: on a Xeon with 2 MiB of
# L2 per core, the Hardy–Weinberg 2001 x 2001 grid with 20 mean points took
# 150 ms in 2^15-point blocks and 242 ms in 2^17-point ones
GRID_BLOCK_POINTS = 1 << 15


def _full_grid_blocks(grid_spec):
    """The full-domain grid in C order, as (m, dim) blocks of whole rows
    along the leading axis.  Every block is a view of one buffer whose
    trailing-axis columns are filled once; each block rewrites only the
    leading coordinate, so a block is valid until the next one is drawn."""
    axes = [np.linspace(lo, hi, int(n)) for lo, hi, n in grid_spec]
    row_points = math.prod(len(ax) for ax in axes[1:])
    if row_points == 0 or len(axes[0]) == 0:
        return
    rows = min(len(axes[0]), max(1, GRID_BLOCK_POINTS // row_points))
    buf = np.empty((rows * row_points, len(axes)))
    grid = buf.reshape(rows, row_points, len(axes))
    for k, mesh in enumerate(np.meshgrid(*axes[1:], indexing="ij"), start=1):
        grid[:, :, k] = mesh.ravel()
    for i in range(0, len(axes[0]), rows):
        lead = axes[0][i:i + rows]
        grid[:len(lead), :, 0] = lead[:, None]
        yield buf[:len(lead) * row_points]


def conjugate_grid_oracle(family, constraint, t, grid_spec):
    """Exhaustive maximization of l(.; t) on an explicit grid.

    grid_spec: per-axis (lo, hi, count) triples; one triple for an affine
    constraint (reduced coordinate), ``dim`` triples for the full domain;
    other constraint kinds raise ValueError.
    Degenerate grids of a single point are allowed.  ``t`` is one mean
    point, giving (value, argmax), or an (m, dim) stack of them, giving
    arrays of the m values and argmaxes.  The full-domain grid is walked in
    blocks of ``GRID_BLOCK_POINTS`` points, each block's kappa values shared
    by the stack; a later block replaces a running maximum only when it is
    strictly larger, so ties go to the first grid point in C order.  The
    blocks share one buffer that the next block overwrites, so an argmax
    must be copied out of its block (``np.repeat`` and row assignment do)
    and never kept as a view.
    """
    stack = np.ndim(t) == 2
    ts = [as_point(row, family.dim, "mean point") for row in (t if stack else [t])]
    if constraint.kind == "full":
        blocks = _full_grid_blocks(grid_spec)
    elif constraint.kind == "affine":
        (lo, hi, n), = grid_spec
        us = np.linspace(lo, hi, int(n))
        blocks = [constraint.base[None, :] + us[:, None] * constraint.directions[0][None, :]]
    else:
        raise ValueError(constraint.kind)
    values = np.full(len(ts), -np.inf)
    argmaxes = None     # set by the first block: a grid that is -inf
                        # everywhere gives its first point, as argmax does
    for thetas in blocks:
        kappas = families.cumulant_many(family, thetas)
        if argmaxes is None:
            argmaxes = np.repeat(thetas[:1], len(ts), axis=0)
        for j, tt in enumerate(ts):
            vals = thetas @ tt
            vals -= kappas
            idx = int(np.argmax(vals))
            if vals[idx] > values[j]:
                values[j] = vals[idx]
                argmaxes[j] = thetas[idx]
    if argmaxes is None:
        raise ValueError("the grid has no points")
    if not stack:
        return float(values[0]), argmaxes[0]
    return values, argmaxes
