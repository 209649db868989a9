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
from scipy.special import gammaln, logsumexp

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


def _count_grid(n: int):
    sizes = np.arange(n, -1, -1) + 1
    n1 = np.repeat(np.arange(n + 1), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    n2 = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    return n1, n2


def multinomial_log_pmf(n: int, n1, n2, probabilities):
    """Log multinomial pmf via a log-gamma factorial table (exact as
    floating point up to the enumeration cap, no overflow)."""
    log_fact = gammaln(np.arange(n + 1, dtype=float) + 1.0)
    n0 = n - n1 - n2
    p0, p1, p2 = probabilities
    return (
        log_fact[n] - log_fact[n0] - log_fact[n1] - log_fact[n2]
        + n0 * math.log(p0) + n1 * math.log(p1) + n2 * math.log(p2)
    )


def _mle_coordinates(n: int, n1, n2):
    """Constrained-MLE coordinate of each empirical mean, via the closed
    form on integer counts: log(n + n1 - n2) - log(n - n1 + n2).  The two
    degenerate corners map to -inf/+inf and are treated as members of any
    unbounded event side they point into."""
    num = (n + n1 - n2).astype(float)
    den = (n - n1 + n2).astype(float)
    with np.errstate(divide="ignore"):
        return np.log(num) - np.log(den)


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


def multinomial_mle_tail(spec: TrinomialSpec) -> MultinomialTailResult:
    """Exact probability that the constrained-MLE coordinate of an n-sample
    empirical mean falls in the event, by full enumeration of counts."""
    n = int(spec.n)
    if n > ENUMERATION_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if n < 1:
        raise ValueError("n must be >= 1")
    n1, n2 = _count_grid(n)
    log_pmf = multinomial_log_pmf(n, n1, n2, spec.probabilities)
    total = float(logsumexp(log_pmf))
    if abs(total) > 1e-11:
        raise AssertionError(f"enumeration mass check failed: {total!r}")
    coords = _mle_coordinates(n, n1, n2)
    mask = _event_mask(spec.event, coords)
    if not mask.any():
        return MultinomialTailResult(0.0, -math.inf, math.inf, int(n1.size))
    log_p = float(logsumexp(log_pmf[mask]))
    return MultinomialTailResult(
        probability=math.exp(log_p),
        log_probability=log_p,
        rate=-log_p / n,
        outcomes=int(n1.size),
    )


def enumeration_rates(theta0, event: ModelEvent, schedule):
    """Tail rates over a sample-size schedule (shares the counting grid
    logic; one enumeration per n)."""
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
