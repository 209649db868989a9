"""Numerical convex conjugation.

The conjugate kappa*(t) = sup_theta {theta.t - kappa(theta)} is computed by
damped Newton on the strictly concave log-likelihood; the constrained
variant kappa*_B restricts the supremum to an affine subspace (Newton in
affine coordinates) or to a parametrized curve (deterministic multistart
over the model coordinate followed by a derivative root polish).

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


def _newton_max(family, t, theta0, project=None, max_iter=200):
    """Damped Newton ascent of l(.; t), optionally in affine coordinates.

    ``project`` maps reduced coordinates u to theta; None means full space.
    Returns (theta, iterations).  Backtracking halves the step until the
    strictly concave objective increases, which guarantees global
    convergence from any interior start.  ``t`` must already be a
    validated mean point: the iterates go to the families' trusted
    kernels, and only a non-finite Newton step is checked here.
    """
    if project is None:
        dirs = np.eye(family.dim)
        base = np.zeros(family.dim)
    else:
        base, dirs = project
    u = np.zeros(dirs.shape[0]) if project is not None else np.array(theta0, float)
    if project is not None:
        theta = base + u @ dirs
    else:
        theta = u
    val = families._log_likelihood(family, theta, t)
    if not math.isfinite(val):
        raise NoConvergence(
            f"initial point theta={theta} is outside the domain of {family.name}"
        )
    flat_budget = 6
    for it in range(1, max_iter + 1):
        grad_full = t - families._mean_map(family, theta)
        grad = dirs @ grad_full
        if np.max(np.abs(grad)) <= GRAD_TOL:
            return theta, it - 1
        hess_full = families._hessian(family, theta)
        hess = dirs @ hess_full @ dirs.T
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad / max(np.max(np.abs(np.diag(hess))), 1e-12)
        if not np.all(np.isfinite(step)):
            raise NumericsError(
                f"non-finite Newton step for {family.name} at theta={theta}"
            )
        scale = 1.0
        improved = False
        for _ in range(70):
            u_new = u + scale * step
            theta_new = base + u_new @ dirs if project is not None else u_new
            val_new = families._log_likelihood(family, theta_new, t)
            # kappa can be finite at listed boundary points where the
            # gradient is not defined; iterates must stay interior
            if (
                math.isfinite(val_new)
                and val_new > val
                and family.domain.interior(theta_new)
            ):
                u, theta, val = u_new, theta_new, val_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            # the objective is flat to double precision near the optimum;
            # full Newton steps still contract the gradient quadratically.
            # The rounding of theta.t - kappa(theta) scales with |theta|.|t|,
            # not with the value: near-degenerate means give |theta| ~ 1e8
            u_new = u + step
            theta_new = base + u_new @ dirs if project is not None else u_new
            val_new = families._log_likelihood(family, theta_new, t)
            flat = 1e-11 * (1.0 + abs(val) + float(np.abs(theta) @ np.abs(t)))
            acceptable = (
                math.isfinite(val_new)
                and val_new >= val - flat
                and family.domain.interior(theta_new)
            )
            if acceptable and flat_budget > 0:
                flat_budget -= 1
                u, theta, val = u_new, theta_new, val_new
                continue
            raise NoConvergence(
                f"line search stalled for {family.name} at t={t}, ||grad||="
                f"{np.max(np.abs(grad)):.3e}"
            )
    raise NoConvergence(
        f"Newton did not reach gradient tolerance in {max_iter} iterations "
        f"for {family.name} at t={t}"
    )


def conjugate(family, t, max_iter=200) -> LegendreResult:
    """kappa*(t) with its maximizer (the saturated-model MLE for data mean t)."""
    tt = _require_mean_point(family, t)
    theta0 = family.domain.initial_point
    theta, iters = _newton_max(family, tt, theta0, project=None, max_iter=max_iter)
    return LegendreResult(
        t=tt,
        value=log_likelihood(family, theta, tt),
        argmax=theta,
        converged=True,
        iterations=iters,
    )


def conjugate_constrained(family, constraint: ConstraintSet, t, max_iter=200,
                          n_starts=16) -> LegendreResult:
    """kappa*_B(t) = sup over the constraint set of l(.; t)."""
    tt = _require_mean_point(family, t)
    if constraint.kind == "full":
        return conjugate(family, tt, max_iter=max_iter)
    if constraint.kind == "affine":
        base = constraint.base
        if not math.isfinite(cumulant(family, base)):
            raise NoConvergence("affine base point lies outside the domain")
        theta, iters = _newton_max(
            family, tt, None, project=(base, constraint.directions),
            max_iter=max_iter,
        )
        return LegendreResult(
            t=tt,
            value=log_likelihood(family, theta, tt),
            argmax=theta,
            converged=True,
            iterations=iters,
        )
    if constraint.kind == "curve":
        return _maximize_on_curve(
            family, constraint.model, tt, constraint.intervals, n_starts
        )
    raise ValueError(f"unknown constraint kind {constraint.kind!r}")


# ---------------------------------------------------------------------------
# curve constraints
# ---------------------------------------------------------------------------


def _curve_loglik(family, model, t):
    def l_of(z):
        return log_likelihood(family, model.map(float(z)), t)

    def dl_of(z):
        theta = model.map(float(z))
        grad = t - mean_map(family, theta)
        return float(model.jacobian(float(z)) @ grad)

    return l_of, dl_of


def _bounded_window(family, model, t, iv: Interval, l_of, n_starts):
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
        zs = np.linspace(lo, hi, n_starts)
        vals = np.array([l_of(z) for z in zs])
        if np.all(np.isneginf(vals)):
            span *= 2.0
            continue
        best = int(np.nanargmax(vals))
        interior_best = 0 < best < len(zs) - 1
        lo_is_edge = not math.isfinite(iv.lo) or lo > iv.lo
        hi_is_edge = not math.isfinite(iv.hi) or hi < iv.hi
        if interior_best or (best == 0 and not lo_is_edge) or (
            best == len(zs) - 1 and not hi_is_edge
        ):
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


def _refine_local_max(l_of, dl_of, a, b, z0):
    """Polish one interior local maximum inside (a, b)."""
    try:
        da, db = dl_of(a), dl_of(b)
        if math.isfinite(da) and math.isfinite(db) and da > 0.0 > db:
            z = brentq(dl_of, a, b, xtol=1e-14, rtol=8.9e-16)
            return float(z)
    except (OutsideDomain, ValueError):
        pass
    res = minimize_scalar(
        lambda z: -l_of(z), bounds=(a, b), method="bounded",
        options={"xatol": 1e-13},
    )
    return float(res.x)


def _maximize_on_curve(family, model, t, intervals, n_starts) -> LegendreResult:
    l_of, dl_of = _curve_loglik(family, model, t)
    candidates: list[_Candidate] = []
    iterations = 0
    for iv in intervals:
        if iv.degenerate:
            candidates.append(_Candidate(iv.lo, l_of(iv.lo), True))
            continue
        lo, hi = _bounded_window(family, model, t, iv, l_of, n_starts)
        span = hi - lo
        inset = 1e-12 * max(1.0, abs(lo), abs(hi))
        zs = np.linspace(lo + inset, hi - inset, n_starts)
        vals = np.array([l_of(z) for z in zs])
        finite = np.isfinite(vals)
        for i in range(len(zs)):
            if not finite[i]:
                continue
            left = vals[i - 1] if i > 0 else -math.inf
            right = vals[i + 1] if i < len(zs) - 1 else -math.inf
            if vals[i] >= left and vals[i] >= right:
                a = zs[i - 1] if i > 0 else lo + inset
                b = zs[i + 1] if i < len(zs) - 1 else hi - inset
                z_star = _refine_local_max(l_of, dl_of, a, b, zs[i])
                # only genuinely stationary points count as interior
                # maximizers; a refinement clamped against a window edge is
                # just a monotone approach to an endpoint, which the
                # endpoint candidates below handle
                try:
                    stationary = abs(dl_of(z_star)) <= 1e-6 * (
                        1.0 + float(np.max(np.abs(t)))
                    )
                except OutsideDomain:
                    stationary = False
                if stationary:
                    candidates.append(_Candidate(z_star, l_of(z_star), True))
                iterations += 1
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


def conjugate_grid_oracle(family, constraint, t, grid_spec):
    """Exhaustive maximization of l(.; t) on an explicit grid.

    grid_spec: per-axis (lo, hi, count) triples; one triple for affine/curve
    constraints (reduced coordinate), ``dim`` triples for the full domain.
    Degenerate grids of a single point are allowed.  ``t`` is one mean
    point, giving (value, argmax), or an (m, dim) stack of them, giving
    arrays of the m values and argmaxes; the grid and its kappa values
    are built once and shared by the stack.
    """
    stack = np.ndim(t) == 2
    ts = [as_point(row, family.dim, "mean point") for row in (t if stack else [t])]
    if constraint.kind == "full":
        axes = [np.linspace(lo, hi, int(n)) for lo, hi, n in grid_spec]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = np.column_stack([m.ravel() for m in mesh])
    elif constraint.kind == "affine":
        (lo, hi, n), = grid_spec
        us = np.linspace(lo, hi, int(n))
        thetas = constraint.base[None, :] + us[:, None] * constraint.directions[0][None, :]
    elif constraint.kind == "curve":
        (lo, hi, n), = grid_spec
        zs = np.linspace(lo, hi, int(n))
        thetas = np.array([constraint.model.map(z) for z in zs])
    else:
        raise ValueError(constraint.kind)
    kappas = families.cumulant_many(family, thetas)
    values, argmaxes = [], []
    for tt in ts:
        vals = thetas @ tt - kappas
        idx = int(np.argmax(vals))
        values.append(float(vals[idx]))
        argmaxes.append(thetas[idx])
    if not stack:
        return values[0], argmaxes[0]
    return np.array(values), np.array(argmaxes)
