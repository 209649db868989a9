"""Numerical convex conjugation.

The conjugate kappa*(t) = sup_theta {theta.t - kappa(theta)} is computed by
damped Newton on the strictly concave log-likelihood over the full domain,
``conjugate(family, t)``.  The constrained variant kappa*_B,
``conjugate_constrained(model, t, intervals=None)``, restricts the supremum
to a model's parametrized curve in the family the model carries;
``curve_loglik(model, t)`` and ``curve_dloglik(model, t)`` are the
curve's log-likelihood and its derivative.  An affine subfamily is a model
whose map is affine, such as ``hw-line``, and takes the same curve path.

``scan_window``, the package's one 1-D maximizer, also serves the
posterior peaks in ``models``: one scan per coordinate window tried, and
one polish (``scan_maximize``) of the window it accepts.  A curve
conjugate leaves maxima at the scan's ends to its endpoint candidates.
The polish uses two routines ported from scipy 1.17 operation for
operation, which give the same floats without importing scipy's optimize
subpackage: ``_brentq`` is scipy's ``brentq`` (its C source
``Zeros/brentq.c``), and ``_bounded_brent`` is scipy's
``minimize_scalar(method="bounded")`` (the Python function
``_minimize_scalar_bounded``).

When the supremum over a non-closed constraint set is approached but not
attained, the result reports the supremum with ``converged=False`` and no
argmax instead of guessing attainment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families
from .errors import MeanOutsideDomain, NoConvergence, NumericsError, OutsideDomain
from .families import as_point, mean_map
from .intervals import grid_axis

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
    """Constraint B of the grid oracle: only the full domain, ``full()``.
    A curve constraint is a model, passed to ``conjugate_constrained``."""

    kind: str                         # "full"

    @staticmethod
    def full() -> "ConstraintSet":
        return ConstraintSet(kind="full")


def _require_mean_point(family, t):
    tt = as_point(t, family.dim, "mean point")
    if not family.domain.mean_domain(tt):
        raise MeanOutsideDomain(
            f"t={tt} is outside the interior of the mean domain of {family.name}"
        )
    return tt


def _newton_max(family, t):
    """Damped Newton ascent of l(.; t) over the domain of kappa, from the
    family's initial point.

    Returns (theta, l(theta; t), iterations).  Backtracking halves the
    step until the strictly concave objective increases, which guarantees
    global convergence from any interior start, or until the step's
    predicted gain falls below the rounding floor of the objective; then
    the flat-step path below takes the full step.  ``t`` must already be
    a validated mean point: the iterates go to the families' trusted
    kernels, and only a non-finite Newton step is checked here.
    """
    theta = np.array(family.domain.initial_point, dtype=float)
    val = families._log_likelihood(family, theta, t)
    flat_budget = 6
    for it in range(1, MAX_NEWTON_ITER + 1):
        mean, hess = families._moments(family, theta)
        grad = t - mean
        if np.max(np.abs(grad)) <= GRAD_TOL:
            return theta, val, it - 1
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
        # definite Hessian, and otherwise (or if it overflows) halving runs
        # its full course
        with np.errstate(over="ignore"):
            slope = float(grad @ step)
        scale = 1.0
        improved = False
        for _ in range(70):
            theta_new = theta + scale * step
            val_new = families._log_likelihood(family, theta_new, t)
            if scale == 1.0:
                unit = theta_new, val_new
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
            # full Newton steps still contract the gradient quadratically,
            # and the first trial above was the full step
            theta_new, val_new = unit
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


def conjugate(family, t) -> LegendreResult:
    """kappa*(t) with its maximizer (the saturated-model MLE for data mean t)."""
    tt = _require_mean_point(family, t)
    theta, value, iters = _newton_max(family, tt)
    return LegendreResult(
        t=tt,
        value=value,
        argmax=theta,
        converged=True,
        iterations=iters,
    )


def conjugate_constrained(model, t, intervals=None) -> LegendreResult:
    """kappa*_B(t) = sup of l(.; t) over the model's curve in its family,
    restricted to the coordinate ``intervals`` (default: the model's
    coordinate set)."""
    tt = _require_mean_point(model.family, t)
    ivs = model.coord_intervals if intervals is None else intervals
    return _maximize_on_curve(model, tt, ivs)


# ---------------------------------------------------------------------------
# scan-then-polish maximization
# ---------------------------------------------------------------------------


def scan_window(iv, f, df, n):
    """(maxima, lo, hi): the maxima of f on the scan window [lo, hi] of
    the non-degenerate coordinate interval ``iv``, as ``scan_maximize``
    gives them, from one scan of n points per window tried.

    A bounded interval is its own window.  An unbounded one starts at
    width 2 around its finite end, or around 0, so its finite end stays
    in every window, and doubles until the best scan point is finite and
    is not a window end that can still move out; NoConvergence after 64
    windows.  Both ends of a window move in by 1e-12 of its endpoints'
    scale, but at most a quarter of its width, so an open end is never
    scanned.  Only the accepted window's maxima are polished.
    """
    center = (iv.lo + 1.0 if math.isfinite(iv.lo)
              else iv.hi - 1.0 if math.isfinite(iv.hi) else 0.0)
    for k in range(64):
        a = iv.lo if iv.bounded else max(iv.lo, center - 2.0 ** k)
        b = iv.hi if iv.bounded else min(iv.hi, center + 2.0 ** k)
        inset = min(1e-12 * max(1.0, abs(a), abs(b)), 0.25 * (b - a))
        lo, hi = a + inset, b - inset
        xs, vals = _scan(f, lo, hi, n)
        best = int(np.argmax(vals))
        if iv.bounded or (vals[best] > -math.inf and not (
                best == 0 and a > iv.lo or best == n - 1 and b < iv.hi)):
            return _maxima(f, df, xs, vals), lo, hi
    raise NoConvergence(
        "could not bracket the constrained maximum on an unbounded window"
    )


def scan_maximize(f, lo, hi, n, df):
    """Polished local maxima of f on [lo, hi] as (x, f(x)) pairs, best first.

    ``f`` takes the n equispaced scan points as one array in one call, and
    a float in the polish; non-finite values count as -inf.  Every scan
    point at least as high as both neighbours is a maximum.  At the first
    or last scan point, where ``df`` points out of the window (df <= 0 at
    the first point, df >= 0 at the last), the maximum is that end point
    itself, with no polish.  Every other maximum is polished on its two
    neighbouring cells: by ``_brentq`` (scipy's ``brentq``) on ``df``
    where its signs bracket a root there, otherwise by ``_bounded_brent``
    (scipy's bounded ``minimize_scalar``) on -f.  A scan that is -inf
    everywhere gives no maxima.
    """
    return _maxima(f, df, *_scan(f, lo, hi, n))


def _scan(f, lo, hi, n):
    """The n equispaced points of [lo, hi] and f on them, with every
    non-finite value as -inf."""
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(f(xs), dtype=float)
    return xs, np.where(np.isfinite(vals), vals, -math.inf)


def _maxima(f, df, xs, vals):
    """``scan_maximize``'s maxima from its scan points and values."""
    n = len(xs)
    padded = np.concatenate(([-math.inf], vals, [-math.inf]))
    peaks = np.flatnonzero(
        (vals > -math.inf) & (vals >= padded[:-2]) & (vals >= padded[2:])
    )
    maxima = [
        (float(xs[i]), float(vals[i]))
        if i in (0, n - 1) and _points_out(df, xs[i], i == 0)
        else _polish(f, df, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)])
        for i in peaks
    ]
    return sorted(maxima, key=lambda m: -m[1])


def _points_out(df, x, first):
    """Whether f rises out of the scan window at its end point x: df(x)
    <= 0 at the first point, >= 0 at the last.  A derivative that raises
    OutsideDomain or ValueError, or is NaN, does not."""
    try:
        slope = df(float(x))
    except (OutsideDomain, ValueError):
        return False
    return slope <= 0.0 if first else slope >= 0.0


# iterations of a polish: on a window of width 2e300, brentq takes about
# 1050 steps to its tolerances and the bounded Brent about 1300
POLISH_MAXITER = 4000


def _polish(f, df, a, b):
    """One local maximum of f inside [a, b]; NoConvergence where the
    polish stops short of its tolerance.

    The root polish is ``_brentq`` with scipy's tolerances xtol = 1e-14
    and rtol = 8.9e-16 (just above its floor of 4 eps); the fallback is
    ``_bounded_brent`` with xatol = 1e-12.  Both stop after
    ``POLISH_MAXITER`` iterations.
    """
    try:
        fb = df(b)
        root, converged = (
            _brentq(df, a, b, fa, fb, 1e-14, 8.9e-16, POLISH_MAXITER)
            if -math.inf < fb < 0.0 < (fa := df(a)) < math.inf else (None, None))
    except (OutsideDomain, ValueError):
        root = None
    if root is not None:
        if not converged:
            raise NoConvergence(f"root polish on [{a}, {b}]: convergence error")
        return root, float(f(root))

    def negated(x):
        v = f(x)
        return -v if math.isfinite(v) else 1e300

    x, fx, converged, nfev = _bounded_brent(negated, a, b, 1e-12, POLISH_MAXITER)
    if not converged:
        raise NoConvergence(f"bounded Brent polish on [{a}, {b}] stopped "
                            f"unconverged after {nfev} evaluations")
    return x, (-fx if fx < 1e300 else -math.inf)


# The two polish routines below follow scipy 1.17 step for step, with
# Python floats in place of C doubles and numpy scalars: the same
# operations in the same order give the same doubles, and Python float
# arithmetic overflows to inf without a warning (the parabolic step
# multiplies differences of x by differences of f, which overflows where
# both are huge, l ~ -1e300 over z ~ 1e150; Brent then takes a
# golden-section step, so the overflow is harmless).  Values of f are
# taken as floats.  tests/test_polish_parity.py checks both against scipy.


def _brentq(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """(root, converged) of f on [xa, xb] from fa = f(xa) and fb = f(xb):
    scipy's ``brentq``, Brent's method as in its C source ``Zeros/brentq.c``,
    with the checks of its Python wrapper.  ValueError when f is NaN at an
    end or an iterate or when fa and fb have the same sign bit."""

    def checked(x, fx):
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = checked(xpre, fa)
    fcur = checked(xcur, fb)
    if fpre == 0.0:
        return xpre, True
    if fcur == 0.0:
        return xcur, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to +-inf or NaN, and either fails the test below
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = checked(xcur, f(xcur))
    return xcur, False


def _bounded_brent(func, x1, x2, xatol, maxiter):
    """(x, func(x), converged, nfev) for a minimum of func on the finite
    interval [x1, x2]: scipy's ``minimize_scalar(method="bounded")``, the
    function ``_minimize_scalar_bounded`` of scipy's ``_optimize.py``.
    It stops unconverged after ``maxiter`` evaluations, and when the
    final x, f(x) or the last evaluation is NaN."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(x1), float(x2)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = float(func(x))
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    # np.sign(d) + (d == 0) for a d that is never NaN
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = float(func(x))
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
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            converged = False
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        converged = False
    return xf, fx, converged, num


# ---------------------------------------------------------------------------
# curve constraints
# ---------------------------------------------------------------------------


# scan points per coordinate window of a curve conjugate
CURVE_SCAN = 16


def curve_loglik(model, t):
    """z -> l(eta(z); t) for a coordinate or an array of them, with one
    ``cumulant_many`` call on the images, whose (d, m) array holds one
    coordinate per row.  t.eta(z) is the sum of the per-coordinate
    products t_k eta_k(z) in axis order, elementwise, so a point's value
    does not depend on the array it is in (a BLAS product's rounding
    does)."""
    kernel = model.family.payload.cumulant_many
    # Python floats: a numpy scalar costs more per product
    coeffs = [float(tk) for tk in t]

    def l_of(z):
        zs = np.asarray(z, dtype=float)
        thetas = model.map(zs.ravel())
        kappas = kernel(thetas)
        # |t.theta| past the largest double rounds to +-inf, its correctly
        # rounded value (t = (1, 3) on theta = (z, -z^2/2) at z ~ 1e154);
        # where that or kappa makes a NaN, the rare path takes over
        with np.errstate(over="ignore", invalid="ignore"):
            vals = thetas[0] * coeffs[0]
            for coord, tk in zip(thetas[1:], coeffs[1:]):
                vals = vals + coord * tk
            vals = vals - kappas
        # np.maximum propagates NaN, and its reduce costs less than
        # isnan(...).any() on the one-point calls of a polish
        if math.isnan(np.maximum.reduce(vals, axis=None, initial=-math.inf)):
            vals = families._nan_loglik(vals, thetas, coeffs, kappas, model.name)
        return float(vals[0]) if zs.ndim == 0 else vals.reshape(zs.shape)

    return l_of


def curve_dloglik(model, t):
    """z -> dl(eta(z); t)/dz = eta'(z).(t - grad kappa(eta(z))) at one
    coordinate: the derivative that polishes curve maxima."""

    def dl_of(z):
        z = float(z)
        theta = model.map(z)
        return float(model.jacobian(z) @ (t - mean_map(model.family, theta)))

    return dl_of


@dataclass
class _Candidate:
    z: float
    value: float
    attained: bool


def _maximize_on_curve(model, t, intervals) -> LegendreResult:
    l_of = curve_loglik(model, t)
    dl_of = curve_dloglik(model, t)

    candidates: list[_Candidate] = []
    iterations = 0
    for iv in intervals:
        if iv.degenerate:
            candidates.append(_Candidate(iv.lo, l_of(iv.lo), True))
            continue
        maxima, lo, hi = scan_window(iv, l_of, dl_of, CURVE_SCAN)
        iterations += len(maxima)
        # a maximum at a scan end is a monotone approach to that end of
        # the window, which the endpoint candidates below stand for
        candidates += [_Candidate(z, value, True) for z, value in maxima
                       if lo < z < hi]
        # endpoint candidates: closed endpoints are evaluated exactly (the
        # natural image may be a listed boundary point with finite kappa);
        # an open endpoint contributes only a supremum estimate at the
        # scan end beside it
        for z_end, closed, z_in in ((iv.lo, iv.lo_closed, lo),
                                    (iv.hi, iv.hi_closed, hi)):
            if math.isfinite(z_end):
                z = z_end if closed else z_in
                candidates.append(_Candidate(z, l_of(z), closed))
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
# leading axis, at least one.  A block's kappa and objective arrays of 2^15
# points take 256 KiB each and stay in L2 while a stack of mean points
# rereads them.  On a 2-vCPU Xeon with 2 MiB of L2 per core, the
# Hardy–Weinberg 2001 x 2001 grid took 26, 20, 19.6, 19.4, 21 and 24 ms for
# one mean point in blocks of 2^13 to 2^18 points (best of 5), and 238, 174,
# 154, 134, 149 and 196 ms for 20; 2^15 and 2^16 tie on criterion 4 (best
# of 7: 0.17 s), and 2^15 peaks at half the memory (1.1 MB)
GRID_BLOCK_POINTS = 1 << 15


def _full_grid_blocks(axes):
    """The full-domain grid on ``axes`` in C order, as blocks of whole rows
    along the leading axis.  A block is an open mesh: the block's slice of
    the leading axis and every trailing axis, each shaped to broadcast
    against the others."""
    row_points = math.prod(len(ax) for ax in axes[1:])
    if row_points == 0 or len(axes[0]) == 0:
        return
    rows = min(len(axes[0]), max(1, GRID_BLOCK_POINTS // row_points))
    for i in range(0, len(axes[0]), rows):
        yield np.ix_(axes[0][i:i + rows], *axes[1:])


def conjugate_grid_oracle(family, constraint, t, grid_spec):
    """Exhaustive maximization of l(.; t) on an explicit grid.

    grid_spec: ``dim`` per-axis (lo, hi, count) triples over the full
    domain, each checked by ``intervals.grid_axis`` before any work.  Other
    constraint kinds raise ValueError, and so does a grid with no points.
    Degenerate grids of a single point are allowed.  ``t`` is one mean
    point, giving (value, argmax), or an (m, dim) stack of them, giving
    arrays of the m values and argmaxes.  The full-domain grid is walked in
    blocks of ``GRID_BLOCK_POINTS`` points, open meshes on which the
    family's kernel gives kappa once for the whole stack; theta.t is the
    outer sum of the per-axis products theta_k t_k, in axis order.  A later
    block replaces a running maximum only when it is strictly larger, so
    ties go to the first grid point in C order.
    """
    if constraint.kind != "full":
        raise ValueError(f"the grid oracle has no {constraint.kind} form")
    if len(grid_spec) != family.dim:
        raise ValueError(f"grid_spec has {len(grid_spec)} axes; the family has "
                         f"{family.dim}")
    axes = [grid_axis(f"grid axis {k}", lo, hi, n)
            for k, (lo, hi, n) in enumerate(grid_spec)]
    stack = np.ndim(t) == 2
    ts = [as_point(row, family.dim, "mean point") for row in (t if stack else [t])]
    values = np.full(len(ts), -np.inf)
    argmaxes = None     # set by the first block: a grid that is -inf
                        # everywhere gives its first point, as argmax does
    for mesh in _full_grid_blocks(axes):
        kappas = family.payload.cumulant_many(mesh)
        if argmaxes is None:
            argmaxes = np.array([[coord.flat[0] for coord in mesh]] * len(ts))
        for j, tt in enumerate(ts):
            vals = mesh[0] * tt[0]
            for coord, tk in zip(mesh[1:], tt[1:]):
                vals = vals + coord * tk
            vals -= kappas
            idx = int(np.argmax(vals))
            if vals.flat[idx] > values[j]:
                values[j] = vals.flat[idx]
                pos = np.unravel_index(idx, vals.shape)
                argmaxes[j] = [coord.flat[p] for coord, p in zip(mesh, pos)]
    if argmaxes is None:
        raise ValueError("the grid has no points")
    if not stack:
        return float(values[0]), argmaxes[0]
    return values, argmaxes
