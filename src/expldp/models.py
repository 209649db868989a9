"""Curved submodels, priors on model coordinates, and exact posterior
computation for deterministic data sequences.

A model is a map eta from a 1-D coordinate set M into the natural-parameter
domain of a generating family.  A prior on the model coordinate is given by
its topological support, the only part of it the limit theory sees; the
posterior masses weight the support uniformly.  They are computed in the
log domain by globally adaptive Gauss-Kronrod quadrature over the model
coordinate, with the peak value subtracted inside the exponent, which
keeps the n=4096 spike and the exponentially small tails representable.
The integrals of every sample size that shares a sample mean run as one
lockstep quadrature, so one round of a decay schedule covers every n:
it evaluates l(eta(z); xbar) at all of its nodes with one
``cumulant_many`` call on the stacked images eta(z), and scales each
node's value by its own n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import legendre
from .errors import DegeneratePosterior, RateUnbounded
from .families import GeneratingFamily, as_point, builtin, cumulant
from .intervals import Interval, complement, grid_axis, intersect_unions, normalize_union
from .quadrature import log_integral_peaked

INF = float("inf")


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelEvent:
    """Finite union of coordinate intervals; interiors and closures are
    derived exactly from the endpoints."""

    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", normalize_union(self.intervals))

    def contains(self, z: float) -> bool:
        return any(iv.contains(z) for iv in self.intervals)

    def interior(self) -> "ModelEvent":
        ivs = [iv.interior() for iv in self.intervals]
        return ModelEvent(tuple(iv for iv in ivs if iv is not None))

    def closure(self) -> "ModelEvent":
        return ModelEvent(tuple(iv.closure() for iv in self.intervals))

    def complement(self) -> "ModelEvent":
        return ModelEvent(complement(self.intervals))

    def to_json(self) -> dict:
        # JSON has no infinity: unbounded ends are written "inf" / "-inf"
        return {"intervals": [
            [v if math.isfinite(v) else str(v) for v in (iv.lo, iv.hi)]
            for iv in self.intervals
        ]}


def event_at_least(z0: float) -> ModelEvent:
    return ModelEvent((Interval(z0, INF),))


def event_interval(lo: float, hi: float, lo_closed=True, hi_closed=True) -> ModelEvent:
    return ModelEvent((Interval(lo, hi, lo_closed, hi_closed),))


# ---------------------------------------------------------------------------
# curved models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvedModel:
    """Parameter map eta: M -> dom(kappa) with Jacobian.

    ``map`` also takes an array of m coordinates and then returns the
    (d, m) array of their images, one column per coordinate."""

    name: str
    family: GeneratingFamily
    map: Callable[[float], np.ndarray]
    jacobian: Callable[[float], np.ndarray]
    coord_intervals: tuple    # M as a union of Intervals (with openness)


def _build_hw_line():
    fam = builtin("hardy-weinberg-saturated")
    return CurvedModel(
        name="hw-line",
        family=fam,
        map=lambda z: np.array([z, -z]),
        jacobian=lambda z: np.array([1.0, -1.0]),
        coord_intervals=(Interval(-INF, INF),),
    )


def _build_gauss_mean_eq_sd():
    fam = builtin("gauss-parabola")
    return CurvedModel(
        name="gauss-mean-eq-sd",
        family=fam,
        map=lambda z: np.array([z, -0.5 * z * z]),
        jacobian=lambda z: np.array([1.0, -z]),
        coord_intervals=(Interval(0.0, INF, lo_closed=False),),
    )


def _build_strip_curve():
    fam = builtin("strip-measure")

    def emb(z):
        return np.array([z, np.sqrt(np.maximum(1.0 - z ** 3, 0.0))])

    def jac(z):
        root = math.sqrt(max(1.0 - z ** 3, 1e-300))
        return np.array([1.0, -1.5 * z * z / root])

    return CurvedModel(
        name="strip-curve",
        family=fam,
        map=emb,
        jacobian=jac,
        coord_intervals=(Interval(0.0, 1.0, lo_closed=False, hi_closed=True),),
    )


def _build_poisson_line():
    fam = builtin("poisson")
    return CurvedModel(
        name="poisson-line",
        family=fam,
        map=lambda z: np.array([z]),
        jacobian=lambda z: np.array([1.0]),
        coord_intervals=(Interval(-INF, INF),),
    )


_MODEL_FACTORIES = {
    "hw-line": _build_hw_line,
    "gauss-mean-eq-sd": _build_gauss_mean_eq_sd,
    "strip-curve": _build_strip_curve,
    "poisson-line": _build_poisson_line,
}

_MODEL_CACHE: dict = {}


def model_names():
    return sorted(_MODEL_FACTORIES)


def builtin_model(name: str) -> CurvedModel:
    try:
        factory = _MODEL_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin model {name!r}; available: {model_names()}"
        ) from None
    if name not in _MODEL_CACHE:
        _MODEL_CACHE[name] = factory()
    return _MODEL_CACHE[name]


def with_adjoined_origin(model: CurvedModel) -> CurvedModel:
    """Close the lower coordinate endpoint of a model (adjoin the limit
    point to M); used to exhibit boundary-condition failures."""
    ivs = tuple(
        replace(iv, lo_closed=math.isfinite(iv.lo)) for iv in model.coord_intervals
    )
    return replace(model, name=model.name + "+origin", coord_intervals=ivs)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prior:
    """Atomless prior on model coordinates, given by its closed topological
    support of positive, finite length.

    The prior has no density: the posterior rates depend on the prior only
    through its support, and posterior masses weight the support uniformly,
    since a constant density cancels from every Bayes ratio.
    """

    model: CurvedModel
    support: tuple                       # closed, bounded Intervals

    def __post_init__(self):
        ivs = normalize_union(
            Interval(iv.lo, iv.hi, True, True) for iv in self.support
        )
        closure_m = normalize_union(
            iv.closure() for iv in self.model.coord_intervals
        )
        for iv in ivs:
            grid_axis("prior support interval", iv.lo, iv.hi)
            if not any(
                m.lo <= iv.lo and iv.hi <= m.hi for m in closure_m
            ):
                raise ValueError(
                    f"support interval [{iv.lo}, {iv.hi}] is not contained in "
                    f"the closure of the model coordinate set"
                )
            for z in (iv.lo, iv.hi):
                if not np.all(np.isfinite(self.model.map(float(z)))):
                    raise ValueError(
                        f"eta({z}) is not finite, so the model cannot "
                        f"represent the support")
        if sum(iv.length for iv in ivs) <= 0.0:
            raise ValueError("prior support has zero length")
        object.__setattr__(self, "support", ivs)


def uniform_prior(model: CurvedModel, lo: float, hi: float) -> Prior:
    return Prior(model=model, support=(Interval(lo, hi),))


# ---------------------------------------------------------------------------
# posterior quadrature
# ---------------------------------------------------------------------------


# scan points per integration piece when locating the integrand's peak
PEAK_SCAN = 33


def _sample_size(n) -> int:
    """A sample size as an int; anything but a whole number >= 1 raises."""
    if isinstance(n, numbers.Real) and float(n).is_integer() and n >= 1:
        return int(n)
    raise ValueError(f"sample size must be a whole number >= 1, got {n!r}")


def _piece_peaks(l_of, dl_of, pieces):
    """(lo, hi, peak, curvature) of l = l(eta(.); xbar) on each
    non-degenerate piece where l is finite somewhere: the part of a
    posterior integral that does not depend on n.  A piece is its own
    ``legendre.scan_window``, scanned once.  ``dl_of`` is dl/dz, so an
    interior peak is a root of it, and where l is monotone on a piece the
    peak is the scan's end."""
    peaks = []
    for iv in pieces:
        if iv.degenerate:
            continue
        a, b = iv.lo, iv.hi
        maxima, _, _ = legendre.scan_window(iv, l_of, dl_of, PEAK_SCAN)
        if not maxima:
            continue
        peak = maxima[0][0]
        h = 1e-5 * max(1.0, b - a)
        l_p, l_right, l_left = l_of(np.array([peak, peak + h, peak - h]))
        peaks.append((a, b, peak, abs(l_right + l_left - 2.0 * l_p) / (h * h)))
    return peaks


def _log_masses(prior: Prior, xbar, pieces_num, ns) -> list:
    """log pi_n(A | xbar) for each sample size n of ``ns``, with A ∩
    support given as ``pieces_num``.

    The peaks of both integrals are found once for every n.  Then one
    lockstep ``log_integral_peaked`` call takes log ∫ exp(n l(eta(z);
    xbar)) dz on every piece of the normalizer and of the event at every
    n, each with its own peak value subtracted and a width that shrinks
    like n^(-1/2)."""
    model = prior.model
    l_of = legendre.curve_loglik(model, xbar)
    dl_of = legendre.curve_dloglik(model, xbar)
    den_peaks = _piece_peaks(l_of, dl_of, prior.support)
    num_peaks = _piece_peaks(l_of, dl_of, pieces_num)
    # one job per sample size, integral and piece, in that order
    jobs = np.array([
        (a, b, peak, 1.0 / math.sqrt(max(n * curv, (2.0 / (b - a)) ** 2)), n)
        for n in ns for a, b, peak, curv in den_peaks + num_peaks
    ], dtype=float).reshape(-1, 5)
    piece_logs = iter(log_integral_peaked(l_of, *jobs.T).tolist())

    def log_sum(peaks):
        total = -INF
        for _ in peaks:
            total = float(np.logaddexp(total, next(piece_logs)))
        return total

    masses = []
    for _ in ns:
        log_den = log_sum(den_peaks)
        log_num = log_sum(num_peaks)
        if log_den == -INF:
            raise DegeneratePosterior(
                "posterior normalizer underflowed: support is off the domain"
            )
        masses.append(min(log_num - log_den, 0.0))
    return masses


def log_posterior_mass(prior: Prior, xbar, n: int, event: ModelEvent) -> float:
    """log pi_n(A | xbar): exact Bayes ratio in the log domain."""
    n = _sample_size(n)
    xb = as_point(xbar, prior.model.family.dim, "sample mean")
    pieces_num = intersect_unions(event.intervals, prior.support)
    return _log_masses(prior, xb, pieces_num, (n,))[0]


def posterior_mass(prior: Prior, xbar, n: int, event: ModelEvent) -> float:
    lm = log_posterior_mass(prior, xbar, n, event)
    return math.exp(lm) if lm > -745.0 else 0.0


# ---------------------------------------------------------------------------
# decay rates and extrapolation
# ---------------------------------------------------------------------------


@dataclass
class DecayEstimate:
    schedule: tuple
    rates: np.ndarray
    extrapolated: float


def fit_rate_limit(ns, rates) -> float:
    """Least-squares fit of r_n = r_inf + c/n over the last half of the
    schedule, and never fewer than its last two points, since the fit has
    two unknowns (shared by the posterior and enumeration oracles)."""
    ns = np.asarray(ns, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if len(ns) < 2:
        raise ValueError("extrapolating r_inf + c/n needs at least two sample sizes")
    if np.any(~np.isfinite(rates)):
        return INF
    start = len(ns) - max(2, len(ns) // 2)
    tail_n = ns[start:]
    tail_r = rates[start:]
    design = np.column_stack([np.ones_like(tail_n), 1.0 / tail_n])
    coef, *_ = np.linalg.lstsq(design, tail_r, rcond=None)
    return float(coef[0])


def decay_rate_estimate(
    prior: Prior, mu0, event: ModelEvent, schedule, sequence=None
) -> DecayEstimate:
    """Per-n rates r_n = -(1/n) log pi_n(A | xbar_n) and their extrapolated
    limit.  The default data sequence is constant at mu0.

    A ∩ support is intersected once per call.  The schedule falls into
    runs of sample sizes whose xbar_n equals the previous n's; each run
    finds the integrands' peaks and curvatures once and takes one lockstep
    quadrature for all its n.  The constant sequence is one run."""
    schedule = tuple(_sample_size(n) for n in schedule)
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two sample sizes")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    dim = prior.model.family.dim
    mu = as_point(mu0, dim, "limit mean")
    seq = sequence if sequence is not None else (lambda n: mu)
    pieces_num = intersect_unions(event.intervals, prior.support)
    if all(iv.degenerate for iv in pieces_num):
        rates = np.full(len(schedule), INF)
        return DecayEstimate(schedule, rates, INF)
    # the runs of equal sample means, each with its sample sizes
    runs = []
    for n in schedule:
        xb = as_point(seq(n), dim, "sample mean")
        if not runs or not np.array_equal(xb, runs[-1][0]):
            # a copy, in case the sequence refills one array in place
            runs.append((xb.copy(), []))
        runs[-1][1].append(n)
    rates = []
    for xb, ns in runs:
        for n, lm in zip(ns, _log_masses(prior, xb, pieces_num, ns)):
            if lm == -INF:
                raise RateUnbounded(
                    f"posterior mass is exactly zero at n={n} for a non-null event"
                )
            rates.append(-lm / n)
    rates = np.array(rates)
    return DecayEstimate(schedule, rates, fit_rate_limit(schedule, rates))


# ---------------------------------------------------------------------------
# limiting MLE over the prior support, with boundary-condition report
# ---------------------------------------------------------------------------


@dataclass
class LimitingMle:
    theta_nu: np.ndarray
    coordinate: float
    value: float
    boundary_flag: bool
    continuity_report: dict


def _continuity_check(model, z_point, z_inner):
    """kappa at z_point against kappa along the geometric coordinate
    sequence z_point + (z_inner - z_point) 2^-j, j = 1..8."""
    theta, family = model.map(z_point), model.family
    kappa_pt = float(cumulant(family, theta))
    zs = [z_point + (z_inner - z_point) * 2.0 ** -j for j in range(1, 9)]
    seq = [float(cumulant(family, model.map(z))) for z in zs]
    gap = abs(seq[-1] - kappa_pt)
    is_cont = math.isfinite(kappa_pt) and gap <= 0.05 * max(1.0, abs(kappa_pt))
    return {
        "coordinate": z_point,
        "theta": [float(v) for v in theta],
        "kappa_at_point": kappa_pt,
        "kappa_sequence": seq,
        "is_continuity_point": bool(is_cont),
    }


def _condition_c(model: CurvedModel):
    """Condition on T = eta(M): every boundary point of dom(kappa) that M
    reaches must be a continuity point for kappa along the curve."""
    checks = []
    for iv in model.coord_intervals:
        for z_end, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)):
            if not (closed and math.isfinite(z_end)):
                continue
            theta = model.map(z_end)
            if not model.family.domain.is_boundary(theta):
                continue
            z_inner = z_end + (0.5 if z_end == iv.lo else -0.5) * min(
                1.0, iv.length if iv.bounded else 1.0
            )
            checks.append(_continuity_check(model, z_end, z_inner))
    holds = all(c["is_continuity_point"] for c in checks)
    return {"holds": bool(holds), "boundary_points": checks}


def limiting_mle(prior: Prior, mu0) -> LimitingMle:
    """Maximizer of l(.; mu0) over the prior support, seen as the limiting
    constrained MLE, together with the numeric boundary-condition report."""
    model = prior.model
    family = model.family
    mu = as_point(mu0, family.dim, "limit mean")
    # the support is closed, so the maximum over it is attained
    res = legendre.conjugate_constrained(model, mu, prior.support)
    boundary_flag = not family.domain.interior(res.argmax)
    if not boundary_flag:
        cond_b = {"holds": True, "mode": "interior-maximizer"}
    else:
        z_nu = res.coordinate
        inner = None
        for iv in prior.support:
            if iv.contains(z_nu):
                inner = z_nu + (0.5 if abs(z_nu - iv.lo) < abs(z_nu - iv.hi) else -0.5) \
                    * min(1.0, iv.length)
                break
        check = _continuity_check(model, z_nu, inner)
        cond_b = {
            "holds": bool(check["is_continuity_point"]),
            "mode": "boundary-maximizer",
            "check": check,
        }
    report = {"condition_b": cond_b, "condition_c": _condition_c(model)}
    return LimitingMle(
        theta_nu=res.argmax,
        coordinate=res.coordinate,
        value=res.value,
        boundary_flag=boundary_flag,
        continuity_report=report,
    )
