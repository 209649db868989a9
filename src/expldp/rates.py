"""Rate functions and the identities tying them together.

Covered here: Kullback-Leibler divergence inside a family, the posterior
rate l(theta_nu; mu0) - l(theta; mu0) with its excess-of-divergence form,
the sample-mean rate kappa*(t) - l(theta0; t), the constrained-MLE rate
(the least sample-mean rate over the MLE's fiber, for any model and any
theta0: by duality the conjugate on the line through theta0 normal to the
fiber's hyperplane, a curve conjugate; see ``contraction_rate``), the
Pythagorean residual for affine subfamilies, and the divergence identity
between a family and its dual.

Extended-real arithmetic: +inf propagates absorbingly, NaN is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families, legendre, models
from .errors import (
    MeanOutsideDomain, NoConvergence, NumericsError, OutsideDomain, RateFormMismatch,
    UnsupportedModel,
)
from .families import (
    GeneratingFamily,
    as_point,
    builtin,
    cumulant,
    log_likelihood,
    mean_map,
)
from .intervals import Interval
from .tables import Table

INF = float("inf")


# ---------------------------------------------------------------------------
# divergences and elementary rates
# ---------------------------------------------------------------------------


def _interior_point(family, theta, what="theta0"):
    """``as_point``, then OutsideDomain naming ``what`` off the interior."""
    th = as_point(theta, family.dim, what)
    if not family.domain.interior(th):
        raise OutsideDomain(f"{what}={th} is not interior for {family.name}")
    return th


def _no_nan(values, noun):
    """A float array; its first NaN raises ValueError as "<noun> i is NaN"."""
    arr = np.asarray(values, dtype=float)
    nan = np.flatnonzero(np.isnan(arr))
    if nan.size:
        raise ValueError(f"{noun} {int(nan[0])} is NaN")
    return arr


def kl_divergence(family: GeneratingFamily, theta0, theta):
    """D(P_theta0 || P_theta) = (theta0-theta).grad_kappa(theta0)
    - kappa(theta0) + kappa(theta); +inf when theta leaves the domain.
    One point theta gives a float and an (m, d) stack of them an array.
    Each point takes ``as_point`` and the scalar kappa kernel; theta0's
    mean and cumulant are taken once, if some kappa(theta) is finite.  A
    row whose terms overflowed into inf - inf or 0 * inf has no value in
    doubles and raises NumericsError."""
    th0 = _interior_point(family, theta0)
    stack = np.ndim(theta) == 2
    ths = [as_point(th, family.dim, "theta") for th in (theta if stack else [theta])]
    ks = [families._cumulant(family, th) for th in ths]
    if any(k < INF for k in ks):
        grad0, k0 = families._moments(family, th0)[0], families._cumulant(family, th0)
        # a product past the largest double rounds to +-inf, its correctly
        # rounded value; inf - inf and 0 * inf are NaN, raised on below
        with np.errstate(over="ignore", invalid="ignore"):
            ks = [k if k == INF else float((th0 - th) @ grad0) - k0 + k
                  for th, k in zip(ths, ks)]
        for th, k in zip(ths, ks):
            if k != k:
                raise NumericsError(
                    f"KL divergence from theta0={th0} to theta={th} on "
                    f"{family.name} has no value in doubles: its terms "
                    "overflowed")
    return np.array(ks) if stack else ks[0]


def cramer_rate(family: GeneratingFamily, theta0, t) -> float:
    """Rate for sample means from P_theta0 evaluated at t:
    kappa*(t) - l(theta0; t), which equals D(P_{grad kappa*(t)} || P_theta0)."""
    th0 = _interior_point(family, theta0)
    res = legendre.conjugate(family, t)
    return res.value - log_likelihood(family, th0, res.t)


# ---------------------------------------------------------------------------
# rate tables
# ---------------------------------------------------------------------------


@dataclass
class RateTable:
    coordinates: np.ndarray
    rates: np.ndarray
    metadata: dict

    def to_table(self, name: str) -> Table:
        rows = [
            (float(c), float(r))
            for c, r in zip(self.coordinates, self.rates)
        ]
        return Table(
            name=name, columns=("coordinate", "rate"), rows=rows,
            metadata=self.metadata,
        )


def posterior_rate(prior: models.Prior, mu0, grid) -> RateTable:
    """Posterior LDP rate l(theta_nu; mu0) - l(eta(z); mu0) over a
    model-coordinate grid, cross-checked against its excess-of-divergence
    form.  The posterior puts no mass off the prior's support at any n, so
    the rate is +inf at every grid point that no support interval contains.
    A NaN grid point raises ValueError."""
    family = prior.model.family
    mu = as_point(mu0, family.dim, "limit mean")
    grid = _no_nan(grid, "grid point")
    mle = models.limiting_mle(prior, mu)
    on_support = np.array(
        [any(iv.contains(z) for iv in prior.support) for z in grid.tolist()],
        dtype=bool,
    )
    values = np.full(grid.shape, INF)
    values[on_support] = mle.value - legendre.curve_loglik(
        prior.model, mu)(grid[on_support])
    theta0 = legendre.conjugate(family, mu).argmax
    on, direct = grid[on_support], values[on_support]
    excess = (kl_divergence(family, theta0, prior.model.map(on).T)
              - kl_divergence(family, theta0, mle.theta_nu))
    # the tolerance is absolute up to 1 and relative beyond, where the
    # forms' rounding grows with the rates.  Two infinities agree, and an
    # infinity never agrees with a finite rate; inf - inf is NaN, which
    # numpy would warn on
    inf_d, inf_e = np.isinf(direct), np.isinf(excess)
    tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(direct), np.abs(excess)))
    with np.errstate(invalid="ignore"):
        gap = np.abs(direct - excess)
    bad = np.where(inf_d | inf_e, inf_d != inf_e, gap > tol)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise RateFormMismatch(
            f"rate-form mismatch at z={on[i]}: direct {float(direct[i])!r} vs "
            f"excess-of-divergence {float(excess[i])!r}"
        )
    metadata = {
        "kind": "posterior",
        "model": prior.model.name,
        "mu0": [float(v) for v in mu],
        "theta_nu": [float(v) for v in mle.theta_nu],
        "theta_0": [float(v) for v in theta0],
        "constrained_max_value": mle.value,
    }
    return RateTable(coordinates=grid, rates=values, metadata=metadata)


# ---------------------------------------------------------------------------
# the contraction rate
# ---------------------------------------------------------------------------


# the fiber check's tolerance, relative to 1 + |l|: where the MLE at t* is
# c the excess is rounding, at most 5e-15 in 561 checks on the four built-in
# models; the failing strip-curve case (theta0 = eta(0.9), c = 0.2) shows 0.03
FIBER_TOL = 1e-10


def contraction_rate(model: models.CurvedModel, theta0, coord):
    """Rate for the constrained MLE at the model coordinate ``coord`` (a
    float, or an array of them, solved one at a time) under sampling from
    P_theta0, on the model or off it: the least sample-mean rate
    kappa*(t) - l(theta0; t) over the fiber {t : MLE(t) = c}.

    With a = eta'(c) and t_c = grad kappa(eta(c)), the MLE's first-order
    condition at c is the hyperplane H_c = {t : a.(t - t_c) = 0}.  By
    Fenchel duality the least sample-mean rate on H_c is sup_s [s a.t_c -
    kappa(theta0 + s a) + kappa(theta0)] = kappa*_L(t_c) - l(theta0; t_c),
    the conjugate restricted to the line L = {theta0 + s a} normal to H_c,
    attained at t* = grad kappa(theta0 + s* a).  At a closed endpoint of
    the coordinate set H_c becomes a half-space and L a half-line: s >= 0
    at an upper end, s <= 0 at a lower one.  The dual value is the rate
    when t* is in the fiber, so where the curve maximum of l(.; t*) exceeds
    l(eta(c); t*) by more than FIBER_TOL * (1 + |l|), UnsupportedModel is
    raised; on an affine model, whose MLE is unique, it never is.  The rate
    is +inf outside the model's coordinate set, which the MLE never takes,
    and where kappa(theta0) is +inf.  A NaN coordinate raises ValueError.
    """
    family = model.family
    th0 = _interior_point(family, theta0)
    coords = _no_nan(coord, "coordinate")
    values = np.full(coords.shape, INF)
    if cumulant(family, th0) < INF:
        # Python floats: the map of a huge coordinate overflows without a warning
        for i, c in enumerate(coords.ravel().tolist()):
            if any(iv.contains(c) for iv in model.coord_intervals):
                values.flat[i] = _fiber_minimum(model, th0, c)[0]
    return float(values) if coords.ndim == 0 else values


def _fiber_minimum(model, th0, c):
    """(rate, t*) at a coordinate c of the model's coordinate set: the
    conjugate at t_c on the line through theta0 normal to H_c, then the
    fiber check at t*."""
    family = model.family
    eta = np.asarray(model.map(c), dtype=float)
    # H_c does not depend on the scale of a; a unit normal keeps s on the
    # scale of theta, also where the Jacobian is huge (hypot does not overflow)
    a = np.asarray(model.jacobian(c), dtype=float)
    a = a / math.hypot(*a)
    t_c = mean_map(family, eta)
    s_set = Interval(-INF, INF)
    for iv in model.coord_intervals:
        if iv.hi_closed and c == iv.hi:
            s_set = Interval(0.0, INF)
        elif iv.lo_closed and c == iv.lo:
            s_set = Interval(-INF, 0.0)
    line = models.CurvedModel(
        name=f"the normal line of {model.name} at {c}", family=family,
        map=lambda s: (th0 + np.multiply.outer(s, a)).T,
        jacobian=lambda s: a, coord_intervals=(s_set,))
    try:
        dual = legendre.conjugate_constrained(line, t_c)
    except NoConvergence as exc:
        raise NoConvergence(f"the contraction dual did not converge at "
                            f"coordinate {c} on {model.name}: {exc}") from exc
    except MeanOutsideDomain as exc:
        # t_c rounds onto the mean domain's edge (hw-line from eta(0) past c = 33)
        raise MeanOutsideDomain(f"the contraction dual's mean point t_c at "
                                f"coordinate {c} on {model.name}: {exc}") from exc
    # s = 0 is feasible and gives 0, so the supremum is never below it
    rate = max(dual.value - legendre.curve_loglik(line, t_c)(0.0), 0.0)
    s = dual.coordinate
    mean, hess = families._moments(family, line.map(s))
    t_star = mean
    if s not in (s_set.lo, s_set.hi):
        # where the polish falls back to bounded Brent, s* is placed to about
        # sqrt(eps); a Newton step on the dual's slope a.(t_c - t), taken to
        # first order, puts t* on H_c.  At the half-line's end s = 0, t* is
        # the mean of P_theta0, which is not on H_c
        t_star = mean + (a @ (t_c - mean)) / (a @ hess @ a) * (hess @ a)
    at_c = log_likelihood(family, eta, t_star)
    best = legendre.conjugate_constrained(model, t_star)
    if best.value > at_c + FIBER_TOL * (1.0 + abs(at_c)):
        raise UnsupportedModel(
            f"on {model.name} the MLE at the dual minimizer t*={t_star} for {c} "
            f"is {best.coordinate}: {rate} only bounds the rate from below")
    return rate, t_star


# ---------------------------------------------------------------------------
# Pythagorean identity
# ---------------------------------------------------------------------------


def pythagorean_residual(model: models.CurvedModel, theta, mu0):
    """D(P_theta0||P_theta) - D(P_theta0||P_theta_nu) - D(P_theta_nu||P_theta)
    in the model's family, with theta0 = grad kappa*(mu0) and theta_nu the
    maximizer for mu0 on the model's curve.  Vanishes identically on affine
    models; bounded away from zero on genuinely curved ones.  One point
    theta gives a float and an (m, d) stack of them an array; theta0 and
    theta_nu are solved once per call."""
    family = model.family
    th0 = legendre.conjugate(family, mu0).argmax
    res = legendre.conjugate_constrained(model, mu0)
    if res.argmax is None:
        raise ValueError("constrained maximizer not attained; no decomposition")
    theta_nu = res.argmax
    return (kl_divergence(family, th0, theta) - kl_divergence(family, th0, theta_nu)
            - kl_divergence(family, theta_nu, theta))


# ---------------------------------------------------------------------------
# dual measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualPair:
    """Families whose cumulant generating functions are convex conjugates
    of one another; mean space of one is natural space of the other."""

    primal: GeneratingFamily
    dual: GeneratingFamily

    def swapped(self) -> "DualPair":
        return DualPair(primal=self.dual, dual=self.primal)


def poisson_landau_pair() -> DualPair:
    return DualPair(primal=builtin("poisson"), dual=builtin("landau-dual"))


def dual_rate_gap(pair: DualPair, theta0, theta) -> float:
    """|D(P_theta0 || P_theta) - D(Q_mu || Q_mu0)| with mu = grad kappa(theta)
    and mu0 = grad kappa(theta0), the dual-side divergence evaluated from
    the dual cumulant machinery."""
    th0 = _interior_point(pair.primal, theta0)
    th = _interior_point(pair.primal, theta, "theta")
    mu0 = mean_map(pair.primal, th0)
    mu = mean_map(pair.primal, th)
    d_primal = kl_divergence(pair.primal, th0, th)
    d_dual = kl_divergence(pair.dual, mu, mu0)
    return abs(d_primal - d_dual)
