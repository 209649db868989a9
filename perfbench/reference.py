"""Reference values computed apart from expldp.

Nothing here imports expldp: every value comes from a closed form, from a
vectorized quadrature written for this benchmark, from mpmath at 30
digits, or from scipy.stats.  The benchmark compares expldp's outputs with
these values outside every timed interval.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import stats

MP_DPS = 30
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def gl_nodes(edges):
    """Nodes and weights of composite 10-point Gauss-Legendre over the
    panels between consecutive ``edges``."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    z = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return z, w


def log_sum(w, vals):
    """log sum(w * exp(vals)) with the maximum of ``vals`` factored out."""
    top = np.max(vals)
    return float(top + math.log(np.sum(w * np.exp(vals - top))))


def log_integral(logf, edges):
    """log ∫ exp(logf(z)) dz over [edges[0], edges[-1]]; ``logf`` takes an
    array."""
    z, w = gl_nodes(edges)
    return log_sum(w, logf(z))


def graded_edges(lo, hi, toward, panels=160, depth=1e-9):
    """Panel edges on [lo, hi], geometrically refined toward the endpoint
    ``toward`` (lo or hi), for integrands with an exponential layer there."""
    offsets = (hi - lo) * np.geomspace(1.0, depth, panels)
    if toward == hi:
        return np.concatenate([hi - offsets, [hi]])
    return np.concatenate([[lo], (lo + offsets)[::-1]])


# ---------------------------------------------------------------------------
# hw-line: trinomial family on the line theta = (z, -z)
# ---------------------------------------------------------------------------


def hw_loglik(z, mu):
    """l(eta(z); mu) = z (mu1 - mu2) - 2 log cosh(z / 2)."""
    z = np.asarray(z, dtype=float)
    log_cosh = np.logaddexp(0.5 * z, -0.5 * z) - math.log(2.0)
    return z * (mu[0] - mu[1]) - 2.0 * log_cosh


def hw_mle(mu, support):
    """Maximizer of the concave hw_loglik over a support interval."""
    return min(max(2.0 * math.atanh(mu[0] - mu[1]), support[0]), support[1])


def hw_rate(z, mu, support):
    z_nu = hw_mle(mu, support)
    return float(hw_loglik(z_nu, mu)) - hw_loglik(z, mu)


def hw_log_mass(n, mu, support, event_lo):
    """log pi_n(z >= event_lo) under the uniform prior on ``support``."""
    a, b = support
    # l'' = sech(z/2)^2 / 2 <= 1/2, so the posterior is at least
    # 1/sqrt(n/2) wide; panels of half that resolve it wherever it peaks
    panels = int(math.ceil(2.0 * (b - a) * math.sqrt(0.5 * n)))

    def logf(z):
        return n * hw_loglik(z, mu)

    num = log_integral(logf, graded_edges(event_lo, b, event_lo))
    den = log_integral(logf, np.linspace(a, b, panels + 1))
    return num - den


# ---------------------------------------------------------------------------
# strip measure: kappa(t1, t2) = log ∫ exp(t1 x - (1-t2^2) x^2 + t2^2) / (1+x^2) dx
# ---------------------------------------------------------------------------


def _strip_mp_integrals(t1, t2):
    t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
    a2 = 1 - t2 * t2

    def f(x):
        return mpmath.exp(t1 * x - a2 * x * x + t2 * t2) / (1 + x * x)

    peak, width = t1 / (2 * a2), 1 / mpmath.sqrt(2 * a2)
    cuts = {mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(1)}
    cuts.update(peak + k * width for k in (-8, -2, 0, 2, 8))
    pts = [-mpmath.inf] + sorted(cuts) + [mpmath.inf]
    return t2, f, pts


def strip_cumulant_mp(t1, t2):
    """Strip cumulant at an interior natural point, mpmath at 30 digits."""
    with mpmath.workdps(MP_DPS):
        _, f, pts = _strip_mp_integrals(t1, t2)
        return float(mpmath.log(mpmath.quad(f, pts)))


def strip_mean_mp(t1, t2):
    """Strip mean map (E[x], E[2 t2 (1 + x^2)]) under the tilted law,
    mpmath at 30 digits."""
    with mpmath.workdps(MP_DPS):
        t2m, f, pts = _strip_mp_integrals(t1, t2)
        total = mpmath.quad(f, pts)
        first = mpmath.quad(lambda x: x * f(x), pts)
        second = mpmath.quad(lambda x: (1 + x * x) * f(x), pts)
        return np.array([float(first / total), float(2 * t2m * second / total)])


STRIP_BOUNDARY_CUMULANT = 1.0 + math.log(math.pi)   # kappa(0, +-1)


def strip_curve_cumulant(z, nodes=4001):
    """kappa(z, sqrt(1 - z^3)) for an array of curve coordinates z in (0, 1],
    by the trapezoid rule in s with x = sinh(s) (spectrally accurate for
    this analytic integrand), one window per coordinate."""
    z = np.asarray(z, dtype=float)[:, None]
    a2 = z ** 3
    t2sq = 1.0 - a2
    peak = z / (2.0 * a2)
    reach = np.sqrt(60.0 / a2)
    right = np.arcsinh(peak + reach + 50.0)
    left = -np.arcsinh(np.minimum(60.0 / z + 50.0, reach + 50.0))
    s = left + (right - left) * np.linspace(0.0, 1.0, nodes)[None, :]
    x = np.sinh(s)
    logf = z * x - a2 * x * x + t2sq - np.log1p(x * x) + np.log(np.cosh(s))
    top = np.max(logf, axis=1, keepdims=True)
    step = (right - left) / (nodes - 1)
    inner = np.exp(logf - top)
    total = step[:, 0] * (inner.sum(axis=1) - 0.5 * (inner[:, 0] + inner[:, -1]))
    return top[:, 0] + np.log(total)


def strip_curve_loglik(z, mu):
    z = np.asarray(z, dtype=float)
    out = np.empty(z.size)
    for i in range(0, z.size, 256):
        chunk = z[i:i + 256]
        out[i:i + 256] = (
            chunk * mu[0] + np.sqrt(1.0 - chunk ** 3) * mu[1]
            - strip_curve_cumulant(chunk)
        )
    return out


def strip_log_masses(mu, cases):
    """log pi_n((0, eps)) under the uniform prior on [0, 1] for each
    (n, eps) in ``cases``; returns a dict keyed by (n, eps).

    The posterior density is below exp(-1000) on (0, 1e-3), so both
    integrals start there.  sqrt(1 - z^3) has an infinite slope at z = 1,
    so the normalizer's panels are graded toward 1."""
    den_edges = np.union1d(np.linspace(1e-3, 1.0, 401),
                           graded_edges(0.5, 1.0, 1.0))
    den_z, den_w = gl_nodes(den_edges)
    den_l = strip_curve_loglik(den_z, mu)
    out = {}
    for n, eps in cases:
        num_z, num_w = gl_nodes(graded_edges(1e-3, eps, eps))
        num_l = strip_curve_loglik(num_z, mu)
        out[(n, eps)] = log_sum(num_w, n * num_l) - log_sum(den_w, n * den_l)
    return out


# ---------------------------------------------------------------------------
# Gaussian mean = sd curve, eta(c) = (c, -c^2/2): N(1/c, 1/c^2)
# ---------------------------------------------------------------------------


def gauss_curve_kl(c, c0):
    """D(N(1/c, 1/c^2) || N(1/c0, 1/c0^2))."""
    m1, s1 = 1.0 / c, 1.0 / c
    m0, s0 = 1.0 / c0, 1.0 / c0
    return math.log(s0 / s1) + (s1 * s1 + (m1 - m0) ** 2) / (2.0 * s0 * s0) - 0.5


def gauss_contraction_rate(c, c0, n_grid=20001, rounds=14):
    """Minimum over the means t = (x, 1/c^2 + x/c) whose constrained MLE is
    c of the sample-mean rate of N(1/c0, 1/c0^2) at t,
        iota(x) = -log(t2 - x^2)/2 - log(c0) - c0 x + (c0^2/2) t2,
    by a dense grid and nested refinement."""
    lo = (1.0 - math.sqrt(5.0)) / (2.0 * c)
    hi = (1.0 + math.sqrt(5.0)) / (2.0 * c)
    inset = 1e-9 * (hi - lo)

    def iota(x):
        t2 = 1.0 / (c * c) + x / c
        return -0.5 * np.log(t2 - x * x) - math.log(c0) - c0 * x + 0.5 * c0 * c0 * t2

    xs = np.linspace(lo + inset, hi - inset, n_grid)
    for _ in range(rounds):
        vals = iota(xs)
        i = int(np.argmin(vals))
        best = float(vals[i])
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 65)
    return best


# ---------------------------------------------------------------------------
# conjugates of the analytic families
# ---------------------------------------------------------------------------


def conjugate_closed_form(family, t):
    if family == "poisson":
        return t[0] * math.log(t[0]) - t[0] + 1.0
    if family == "gauss-mean":
        return 0.5 * t[0] * t[0]
    if family == "gauss-parabola":
        return -0.5 - 0.5 * math.log((t[1] - t[0] * t[0]) / (2.0 * math.pi))
    if family == "hardy-weinberg-saturated":
        probs = (1.0 - t[0] - t[1], t[0], t[1])
        return sum(p * math.log(p / q) for p, q in zip(probs, (0.5, 0.25, 0.25)))
    raise ValueError(family)


def hw_trinomial_kl(z):
    """D(P_(z,-z) || P_0) on the trinomial with base weights (1/2, 1/4, 1/4)."""
    weights = np.array([2.0, math.exp(z), math.exp(-z)])
    probs = weights / weights.sum()
    return float(np.sum(probs * np.log(probs / np.array([0.5, 0.25, 0.25]))))


def hw_mle_tail_log_probability(n, z0):
    """log P(constrained-MLE coordinate >= z0) for n draws at theta = 0.

    The coordinate is log((n + k) / (n - k)) with k = n1 - n2, and at
    theta = 0 the count k is Binomial(2n, 1/2) - n."""
    k0 = math.ceil(n * math.tanh(0.5 * z0))
    return float(stats.binom.logsf(n + k0 - 1, 2 * n, 0.5))


# ---------------------------------------------------------------------------
# Poisson and its Landau dual
# ---------------------------------------------------------------------------


def poisson_kl(theta0, theta):
    return math.exp(theta0) * (theta0 - theta) - math.exp(theta0) + math.exp(theta)


def landau_dual_kl(mu, mu0):
    """Divergence between dual-family members, mu0 log(mu0/mu) + mu - mu0."""
    return mu0 * math.log(mu0 / mu) + mu - mu0


def landau_density(y):
    """Density of -X-1 for X Landau distributed, from scipy.stats."""
    return float(
        stats.landau.pdf(-y - 1.0, loc=math.log(math.pi / 2.0), scale=math.pi / 2.0)
    )


def landau_dual_cumulant(mu):
    return mu * math.log(mu) - mu + 1.0
