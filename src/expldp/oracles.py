"""Independent brute-force validators.

Exact finite-n tail probabilities of the constrained-MLE statistic over
the three-outcome sample space, without any asymptotics: the statistic
depends on the counts through n1 - n2 only, so conditioning on
r = n1 + n2 turns the sum over all (n+1)(n+2)/2 count triples into n + 1
binomial tail terms per run of the event.  An exhaustive grid search
minimizes the sample-mean rate along a constant-MLE line.  Both exist to
cross-check the analytic machinery and share the r_n = r_inf + c/n
extrapolation with the posterior decay estimator for comparability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .families import builtin, mean_map
from .models import ModelEvent, builtin_model
from .rates import constant_mle_line

# the sums take O(n) time and memory, but a deep-tail row sums its O(n)
# pmf terms (``_log_window``), so a tail whose rows are all deep costs
# O(n^2); the cap bounds that worst case
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


def _log_diff(a, b):
    """log(exp(a) - exp(b)) for b <= a; NaN where both are -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return a + np.log1p(-np.exp(b - a))


# scipy's binomial ``logsf`` and ``logcdf`` lose digits, and then return
# -inf, on tails far below 1e-200: a scan of r <= 2000 and q <= 1/2 found
# the first wrong digits at about exp(-555) (lower tail, r = 1837,
# q = 0.32), long before the doubles run out
_DEEP_LOG_TAIL = math.log(1e-200)


def _log_window(binom, lo, hi, r, q):
    """log P(lo <= K <= hi) for K ~ Bin(r, q), one row per r; the window is
    already clipped to 0..r and is empty where lo > hi.

    A window below the conditional mean r q is a difference of lower tails,
    and any other a difference of upper tails, so no difference of two
    near-equal CDFs cancels: a window that holds the mean also holds the
    mode, whose mass of about 1 / sqrt(r) bounds the cancellation.  A row
    whose result is deep sums its log pmf terms directly."""
    rows = lo <= hi
    below = rows & (hi < r * q)
    above = rows & ~below
    out = np.full(r.shape, -math.inf)
    # scipy gives -inf, without a warning, for logsf(r) and logcdf(-1)
    out[above] = _log_diff(binom.logsf(lo[above] - 1, r[above], q),
                           binom.logsf(hi[above], r[above], q))
    out[below] = _log_diff(binom.logcdf(hi[below], r[below], q),
                           binom.logcdf(lo[below] - 1, r[below], q))
    deep = np.flatnonzero(rows & ~(out >= _DEEP_LOG_TAIL))
    if deep.size:
        # all deep rows' terms in one flat array, summed row by row
        width = hi[deep] - lo[deep] + 1
        start = np.cumsum(width) - width
        row = np.repeat(deep, width)
        k = lo[row] + np.arange(width.sum()) - np.repeat(start, width)
        terms = binom.logpmf(k, r[row], q)
        top = np.maximum.reduceat(terms, start)
        out[deep] = top + np.log(
            np.add.reduceat(np.exp(terms - np.repeat(top, width)), start))
    return out


def multinomial_mle_tail(spec: TrinomialSpec) -> MultinomialTailResult:
    """Exact probability that the constrained-MLE coordinate of an n-sample
    empirical mean falls in the event, summed over r = n1 + n2.

    The coordinate depends on the counts through d = n1 - n2 only.  Given
    r ~ Bin(n, p1 + p2), n1 is Bin(r, p1 / (p1 + p2)) and d = 2 n1 - r, so
    each run [d_a, d_b] of the event over d is, in row r, the n1 window
    [ceil((d_a + r)/2), floor((d_b + r)/2)] clipped to 0..r, whose binomial
    mass is taken from the tail it lies in (``_log_window``).  log P is one
    log-sum-exp over r of the marginal log pmf plus the window's log mass.
    Each binomial takes the smaller of its two cell probabilities as its
    success probability (counting n0 instead of r, or n2 instead of n1),
    so that 1 - p is never a rounded complement of a number near 1.

    A row whose window mass lies below 1e-200 sums its log pmf terms
    directly, which keeps deep tails finite and exact at O(n) per such row.
    ``outcomes`` counts the terms of the sum over r: n + 1 per run."""
    n = int(spec.n)
    if n > ENUMERATION_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if n < 1:
        raise ValueError("n must be >= 1")
    # imported here: scipy.stats adds about 0.5 s and 20 MB to
    # ``import expldp``, and only the exact tails need it
    from scipy.stats import binom

    p0, p1, p2 = spec.probabilities
    r = np.arange(n + 1)
    if p0 < p1 + p2:
        log_marginal = binom.logpmf(n - r, n, p0)
    else:
        log_marginal = binom.logpmf(r, n, p1 + p2)
    total = _log_sum_exp(log_marginal)
    if abs(total) > 1e-11:
        raise AssertionError(f"r-marginal mass check failed: {total!r}")
    # counting n2 = r - n1 instead of n1 mirrors d, and a run [d_a, d_b]
    # becomes [-d_b, -d_a]
    d_mask = _event_mask(spec.event, _mle_coordinates(n))
    q = p1 / (p1 + p2)
    if q > 0.5:
        d_mask, q = d_mask[::-1], p2 / (p1 + p2)
    edges = np.diff(d_mask.astype(np.int8), prepend=0, append=0)
    d_a = np.flatnonzero(edges == 1) - n
    d_b = np.flatnonzero(edges == -1) - 1 - n
    if d_a.size == 0:
        return MultinomialTailResult(0.0, -math.inf, math.inf, 0)
    terms = [
        log_marginal + _log_window(binom, np.maximum(-((-a - r) // 2), 0),
                                   np.minimum((b + r) // 2, r), r, q)
        for a, b in zip(d_a, d_b)
    ]
    log_p = _log_sum_exp(np.concatenate(terms))
    return MultinomialTailResult(
        probability=math.exp(log_p),
        log_probability=log_p,
        rate=-log_p / n,
        outcomes=(n + 1) * len(terms),
    )


def enumeration_rates(theta0, event: ModelEvent, schedule):
    """Tail rates over a sample-size schedule, one exact conditional-binomial
    sum (``multinomial_mle_tail``) per n."""
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
