"""Rate functions and the identities tying them together.

Covered here: Kullback-Leibler divergence inside a family, the posterior
rate l(theta_nu; mu0) - l(theta; mu0) with its excess-of-divergence form,
the sample-mean rate kappa*(t) - l(theta0; t), the constrained-MLE rate
(a divergence on an affine model, the minimum of the sample-mean rate over
a registered constant-MLE line on a curved one), the Pythagorean residual
for affine subfamilies, and the divergence identity between a family and
its dual.

Extended-real arithmetic: +inf propagates absorbingly, NaN is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import legendre, models
from .errors import OutsideDomain, RateFormMismatch, UnsupportedModel
from .families import (
    GeneratingFamily,
    as_point,
    builtin,
    cumulant,
    log_likelihood,
    mean_map,
)
from .tables import Table

INF = float("inf")


# ---------------------------------------------------------------------------
# divergences and elementary rates
# ---------------------------------------------------------------------------


def kl_divergence(family: GeneratingFamily, theta0, theta) -> float:
    """D(P_theta0 || P_theta) = (theta0-theta).grad_kappa(theta0)
    - kappa(theta0) + kappa(theta); +inf when theta leaves the domain."""
    th0 = as_point(theta0, family.dim, "theta0")
    th = as_point(theta, family.dim, "theta")
    if not family.domain.interior(th0):
        raise OutsideDomain(f"theta0={th0} is not interior for {family.name}")
    k_th = cumulant(family, th)
    if k_th == INF:
        return INF
    grad0 = mean_map(family, th0)
    return float((th0 - th) @ grad0) - cumulant(family, th0) + k_th


def cramer_rate(family: GeneratingFamily, theta0, t) -> float:
    """Rate for sample means from P_theta0 evaluated at t:
    kappa*(t) - l(theta0; t), which equals D(P_{grad kappa*(t)} || P_theta0)."""
    th0 = as_point(theta0, family.dim, "theta0")
    if not family.domain.interior(th0):
        raise OutsideDomain(f"theta0={th0} is not interior for {family.name}")
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
    grid = np.asarray(grid, dtype=float)
    nan = np.flatnonzero(np.isnan(grid))
    if nan.size:
        raise ValueError(f"grid point {int(nan[0])} is NaN")
    mle = models.limiting_mle(prior, mu)
    on_support = np.array(
        [any(iv.contains(z) for iv in prior.support) for z in grid.tolist()],
        dtype=bool,
    )
    values = np.full(grid.shape, INF)
    values[on_support] = mle.value - legendre.curve_loglik(
        family, prior.model, mu)(grid[on_support])
    theta0 = legendre.conjugate(family, mu).argmax
    d_nu = kl_divergence(family, theta0, mle.theta_nu)
    for z, direct in zip(grid[on_support], values[on_support]):
        excess = kl_divergence(family, theta0, prior.model.map(float(z))) - d_nu
        both_inf = math.isinf(direct) and math.isinf(excess)
        if not both_inf and abs(direct - excess) > 1e-10:
            raise RateFormMismatch(
                f"rate-form mismatch at z={z}: direct {float(direct)!r} vs "
                f"excess-of-divergence {float(excess)!r}"
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
# constant-MLE surfaces and the contraction rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantMleLine:
    """Mean-space line {t : constrained MLE of t equals the given model
    coordinate}, as an explicit parametrization x -> t(x) over an open
    window.  Surfaces are registered per model; inferring them numerically
    is an implicit-surface problem solved analytically per example."""

    window: Callable[[float], tuple]
    point: Callable[[float, float], np.ndarray]
    stationary_roots: Callable | None = None


def _hw_line_window(coord):
    delta = math.tanh(0.5 * coord)
    return max(0.0, delta), 0.5 * (1.0 + delta)


def _hw_line_point(x, coord):
    delta = math.tanh(0.5 * coord)
    return np.array([x, x - delta])


def _gauss_msd_window(coord):
    lo = (1.0 - math.sqrt(5.0)) / (2.0 * coord)
    hi = (1.0 + math.sqrt(5.0)) / (2.0 * coord)
    return lo, hi


def _gauss_msd_point(x, coord):
    return np.array([x, 1.0 / (coord * coord) + x / coord])


def _gauss_msd_roots(theta0, coord):
    """Stationary points of the restricted minimization, as the roots of
    the quadratic in z = coord*x; degenerates to a linear equation when
    the leading coefficient vanishes."""
    t01, t02 = float(theta0[0]), float(theta0[1])
    s = coord * t01 + t02
    a = 2.0 * s
    b = -2.0 * (s - coord * coord)
    c = -(2.0 * s + coord * coord)
    if abs(a) < 1e-14:
        if abs(b) < 1e-14:
            return ()
        return (-c / b / coord,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    return tuple(z / coord for z in ((-b - root) / (2 * a), (-b + root) / (2 * a)))


_MLE_LINES = {
    "hw-line": ConstantMleLine(_hw_line_window, _hw_line_point, None),
    "gauss-mean-eq-sd": ConstantMleLine(
        _gauss_msd_window, _gauss_msd_point, _gauss_msd_roots
    ),
}


def constant_mle_line(model: models.CurvedModel) -> ConstantMleLine:
    try:
        return _MLE_LINES[model.name]
    except KeyError:
        raise UnsupportedModel(
            f"no registered constant-MLE parametrization for {model.name!r}"
        ) from None


def constant_mle_stationary_points(model, theta0, coord):
    """Certificate stationary points (x values) on the registered line,
    filtered to the feasible window."""
    line = constant_mle_line(model)
    if line.stationary_roots is None:
        raise UnsupportedModel(
            f"no stationarity certificate registered for {model.name!r}"
        )
    lo, hi = line.window(coord)
    return tuple(x for x in line.stationary_roots(theta0, coord) if lo < x < hi)


# scan points on a constant-MLE line
LINE_SCAN = 24


def _line_minimum(family, theta0, line, coord):
    """Least sample-mean rate over the polished LINE_SCAN-point scan of the
    line and its stationary-root certificate points."""
    lo, hi = line.window(coord)
    inset = 1e-9 * (hi - lo)
    lo, hi = lo + inset, hi - inset

    def rate(x):
        return cramer_rate(family, theta0, line.point(float(x), coord))

    def neg_rate(x):
        return -np.array([rate(v) for v in x]) if np.ndim(x) else -rate(x)

    values = [-v for _, v in legendre.scan_maximize(neg_rate, lo, hi, LINE_SCAN)]
    if line.stationary_roots is not None:
        values += [rate(x) for x in line.stationary_roots(theta0, coord)
                   if lo < x < hi]
    return min(values)


def contraction_rate(model: models.CurvedModel, theta0, coord) -> float:
    """Rate for the constrained MLE at the model coordinate ``coord`` under
    sampling from P_theta0; the model's kind picks the form.

    An affine model gives D(P_eta(coord) || P_theta0): a uniquely defined
    MLE makes the constant-MLE fibers orthogonal, so the Pythagorean
    identity reduces the minimization to one divergence.  A curved model
    has no such identity; its rate is the least sample-mean rate over its
    registered constant-MLE line, scanned at LINE_SCAN points with every
    local minimum polished.  A curve with no registered line raises
    UnsupportedModel.  The MLE never takes a coordinate outside the
    model's coordinate set, so the rate there is +inf, as the posterior
    rate is off the prior's support.
    """
    family = model.family
    th0 = as_point(theta0, family.dim, "theta0")
    coord = float(coord)
    if not any(iv.contains(coord) for iv in model.coord_intervals):
        return INF
    if model.kind == "affine":
        return kl_divergence(family, model.map(coord), th0)
    return _line_minimum(family, th0, constant_mle_line(model), coord)


# ---------------------------------------------------------------------------
# Pythagorean identity
# ---------------------------------------------------------------------------


def pythagorean_residual(family: GeneratingFamily, constraint, theta0, theta,
                         mu0) -> float:
    """D(P_theta0||P_theta) - D(P_theta0||P_theta_nu) - D(P_theta_nu||P_theta)
    with theta_nu the constrained maximizer for mu0.  Vanishes identically
    on affine models; bounded away from zero on genuinely curved ones."""
    th0 = as_point(theta0, family.dim, "theta0")
    mu = as_point(mu0, family.dim, "mu0")
    grad0 = mean_map(family, th0)
    if np.max(np.abs(grad0 - mu)) > 1e-8:
        raise ValueError(
            f"mu0={mu} is not the mean of theta0={th0} (got {grad0})"
        )
    res = legendre.conjugate_constrained(family, constraint, mu)
    if res.argmax is None:
        raise ValueError("constrained maximizer not attained; no decomposition")
    theta_nu = res.argmax
    left = kl_divergence(family, th0, theta)
    mid = kl_divergence(family, th0, theta_nu)
    right = kl_divergence(family, theta_nu, theta)
    return left - mid - right


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
    th0 = as_point(theta0, pair.primal.dim, "theta0")
    th = as_point(theta, pair.primal.dim, "theta")
    if not (pair.primal.domain.interior(th0) and pair.primal.domain.interior(th)):
        raise OutsideDomain("both parameters must be interior to the primal domain")
    mu0 = mean_map(pair.primal, th0)
    mu = mean_map(pair.primal, th)
    d_primal = kl_divergence(pair.primal, th0, th)
    d_dual = kl_divergence(pair.dual, mu, mu0)
    return abs(d_primal - d_dual)
