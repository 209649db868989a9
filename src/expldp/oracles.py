"""Independent brute-force validators.

Exact finite-n enumeration over the three-outcome sample space gives tail
probabilities of the constrained-MLE statistic without any asymptotics,
and an exhaustive grid search minimizes the sample-mean rate along a
constant-MLE line.  Both exist to cross-check the analytic machinery and
share the r_n = r_inf + c/n extrapolation with the posterior decay
estimator for comparability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import TooLarge
from .families import builtin, mean_map
from .models import ModelEvent, builtin_model
from .rates import constant_mle_line

ENUMERATION_CAP = 2000


@dataclass(frozen=True)
class TrinomialSpec:
    """Sampling law for the three-outcome family: outcome probabilities for
    (0, e1, e2), derived from a natural parameter, plus the event on the
    constrained-MLE coordinate."""

    n: int
    probabilities: tuple
    event: ModelEvent

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.size != 3 or np.any(p <= 0.0):
            raise ValueError("need three strictly positive outcome probabilities")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probabilities", tuple(float(v) for v in p))

    @staticmethod
    def from_theta0(n: int, theta0, event: ModelEvent) -> "TrinomialSpec":
        fam = builtin("hardy-weinberg-saturated")
        p12 = mean_map(fam, theta0)
        p0 = 1.0 - float(p12.sum())
        return TrinomialSpec(n=n, probabilities=(p0, float(p12[0]), float(p12[1])),
                             event=event)


@dataclass
class MultinomialTailResult:
    probability: float
    log_probability: float
    rate: float
    outcomes: int


def _mle_coordinates(n: int):
    """Constrained-MLE coordinate of each count difference d = n1 - n2 in
    -n..n, via the closed form log(n + d) - log(n - d): the coordinate
    depends on the counts through d only.  The two degenerate corners
    d = +-n map to +inf/-inf and are treated as members of any unbounded
    event side they point into."""
    d = np.arange(-n, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(n + d) - np.log(n - d)


def _event_mask(event: ModelEvent, values):
    # openness applies at finite endpoints only: the +-inf coordinates of
    # the two degenerate corner outcomes count toward any unbounded side
    mask = np.zeros(values.shape, dtype=bool)
    for iv in event.intervals:
        m = (values >= iv.lo) & (values <= iv.hi)
        if math.isfinite(iv.lo) and not iv.lo_closed:
            m &= values > iv.lo
        if math.isfinite(iv.hi) and not iv.hi_closed:
            m &= values < iv.hi
        mask |= m
    return mask


def _log_sum_exp(values) -> float:
    top = float(values.max())
    shifted = values - top
    return top + math.log(float(np.exp(shifted, out=shifted).sum()))


def multinomial_mle_tail(spec: TrinomialSpec) -> MultinomialTailResult:
    """Exact probability that the constrained-MLE coordinate of an n-sample
    empirical mean falls in the event, by full enumeration of counts.

    The log pmf is laid out one row per n0 = m: with r = n - m, the row over
    n1 = 0..r is a[n1] + b[r - n1] + c[m], where a, b and c carry the
    factorial and probability terms of n1, n2 and n0, and c also log n!.  Its count
    differences d = 2 n1 - r step by 2, so the row's event mask is a strided
    slice of the mask over d."""
    n = int(spec.n)
    if n > ENUMERATION_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if n < 1:
        raise ValueError("n must be >= 1")
    log_p0, log_p1, log_p2 = (math.log(p) for p in spec.probabilities)
    k = np.arange(n + 1, dtype=float)
    log_fact = gammaln(k + 1.0)
    a = k * log_p1 - log_fact
    b = k * log_p2 - log_fact
    c = log_fact[n] + k * log_p0 - log_fact
    d_mask = _event_mask(spec.event, _mle_coordinates(n))
    outcomes = (n + 1) * (n + 2) // 2
    log_pmf = np.empty(outcomes)
    mask = np.empty(outcomes, dtype=bool)
    start = 0
    for m in range(n + 1):
        r = n - m
        row = log_pmf[start:start + r + 1]
        np.add(a[:r + 1], b[r::-1], out=row)
        row += c[m]
        mask[start:start + r + 1] = d_mask[n - r:n + r + 1:2]
        start += r + 1
    total = _log_sum_exp(log_pmf)
    if abs(total) > 1e-11:
        raise AssertionError(f"enumeration mass check failed: {total!r}")
    if not mask.any():
        return MultinomialTailResult(0.0, -math.inf, math.inf, outcomes)
    # shifting by the largest term of the event keeps deep tails finite
    log_p = _log_sum_exp(log_pmf[mask])
    return MultinomialTailResult(
        probability=math.exp(log_p),
        log_probability=log_p,
        rate=-log_p / n,
        outcomes=outcomes,
    )


def enumeration_rates(theta0, event: ModelEvent, schedule):
    """Tail rates over a sample-size schedule, one exact enumeration per n."""
    rates = []
    for n in schedule:
        spec = TrinomialSpec.from_theta0(int(n), theta0, event)
        rates.append(multinomial_mle_tail(spec).rate)
    return np.array(rates)


# ---------------------------------------------------------------------------
# exhaustive line minimization for the curved example
# ---------------------------------------------------------------------------


def curved_line_min_oracle(theta0_coord: float, theta_coord: float,
                           n_grid: int = 20001, refine_rounds: int = 12):
    """Exhaustive minimization of the sample-mean rate over the constant-MLE
    line of the mean=sd curve, using the analytic rate profile

        iota(x) = -log(g(x) - x^2)/2 - log(c0) - c0 x + (c0^2/2) g(x),

    g(x) = 1/c^2 + x/c, independent of the Newton conjugation path.
    Grid minimization over the feasible window, then nested refinement by
    halving; returns (min value, argmin x).
    """
    c0 = float(theta0_coord)
    c = float(theta_coord)
    if c0 <= 0.0 or c <= 0.0:
        raise ValueError("coordinates must be positive on this curve")
    line = constant_mle_line(builtin_model("gauss-mean-eq-sd"))
    lo, hi = line.window(c)
    inset = 1e-9 * (hi - lo)
    lo, hi = lo + inset, hi - inset

    def iota(xs):
        xs = np.asarray(xs, dtype=float)
        g = 1.0 / (c * c) + xs / c
        gap = g - xs * xs
        return -0.5 * np.log(gap) - math.log(c0) - c0 * xs + 0.5 * c0 * c0 * g

    xs = np.linspace(lo, hi, int(n_grid))
    vals = iota(xs)
    best = int(np.argmin(vals))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
    value, arg = float(vals[best]), float(xs[best])
    for _ in range(refine_rounds):
        xs = np.linspace(a, b, 65)
        vals = iota(xs)
        i = int(np.argmin(vals))
        if vals[i] < value:
            value, arg = float(vals[i]), float(xs[i])
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 64)]
    return value, arg
