"""Generating measures and their cumulant machinery.

A family is a generating measure lambda on R^d together with evaluators
for its cumulant generating function kappa(theta) = log ∫ exp(theta.x) dλ,
the mean map ∇kappa, the Hessian, and domain predicates.  Three payload
kinds are supported: finite discrete measures (stabilized log-sum-exp),
closed-form analytic families, and 1-D quadrature-reduced measures whose
kappa, ∇kappa and Hess kappa come from one composite Gauss-Legendre node
set over the reduced integrand, graded around its located peak and around
the origin; a lower-order companion rule on the same panels estimates the
error, and an estimate above 1e4 * rel_tol raises QuadratureFailure.

Natural points and mean points are plain float vectors; ``as_point``
enforces finiteness and dimension at the API boundary.

Values follow extended-real conventions: kappa is +inf off its essential
domain, the log-likelihood is -inf there, and NaN is never a value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from .errors import NumericsError, OutsideDomain, QuadratureFailure
from .quadrature import (
    DEFAULT_POLICY,
    QuadraturePolicy,
    gauss_legendre,
    locate_peak,
)

DISCRETE = "discrete"
ANALYTIC = "analytic"
QUADRATURE1D = "quadrature1d"

INF = float("inf")


def as_point(x, dim, what="point"):
    """Validate a coordinate vector: finite entries, matching dimension."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size != dim:
        raise ValueError(f"{what} must have dimension {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{what} has non-finite coordinates: {arr}")
    return arr


@dataclass(frozen=True)
class DomainSpec:
    """Essential domain of kappa, its listed boundary points, and the
    interior of the convex support C(lambda) in mean coordinates.

    Boundary points where kappa stays finite are enumerated explicitly;
    finiteness at isolated boundary points is measure-specific and not
    discoverable numerically.
    """

    interior: Callable[[np.ndarray], bool]
    mean_domain: Callable[[np.ndarray], bool]
    initial_point: np.ndarray
    boundary_points: tuple = ()
    description: str = ""

    def is_boundary(self, theta) -> bool:
        return any(np.array_equal(theta, b) for b in self.boundary_points)

    def contains(self, theta) -> bool:
        return bool(self.interior(theta)) or self.is_boundary(theta)


@dataclass(frozen=True)
class DiscretePayload:
    atoms: np.ndarray       # (m, d)
    weights: np.ndarray     # (m,), strictly positive
    log_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] != weights.size:
            raise ValueError("atoms must be (m, d) with one weight per atom")
        if not np.all(weights > 0.0):
            raise ValueError("all atom weights must be strictly positive")
        d = atoms.shape[1]
        centered = atoms - atoms.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-12) < d:
            raise ValueError(
                "atoms are concentrated on a proper affine submanifold; "
                "the family would not be regular"
            )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "log_weights", np.log(weights))


@dataclass(frozen=True)
class AnalyticPayload:
    cumulant: Callable[[np.ndarray], float]      # total: +inf off the domain
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    cumulant_many: Callable | None = None        # optional vectorized (m,d)->(m,)


@dataclass(frozen=True)
class Quadrature1DPayload:
    """Reduced 1-D integrand: kappa(theta) = log ∫ exp(g(x; theta)) dx.

    ``tilt_gradient``/``tilt_curvature`` give dh/dtheta and d2h/dtheta2 of
    the exponent h entering the tilt, so that
        ∇kappa = E[dh],   Hess kappa = E[d2h] + Cov(dh)
    under the tilted density proportional to exp(g).
    ``width_floor`` is a lower bound on the integration half-width scale,
    for near-boundary thetas where the local curvature at the peak
    understates how slowly the integrand decays.

    At interior thetas all three come from one array evaluation of
    ``log_integrand`` on a shared node set: composite Gauss-Legendre on
    panels graded around the located peak and, geometrically, around
    x = 0 (where a factor such as 1/(1+x^2) has a mode of unit width),
    clipped to the window of ``window_halfwidth`` widths about the peak.
    The companion rule's disagreement on the same panels must stay within
    1e4 * rel_tol of the mass.  Listed boundary points take QUADPACK's
    infinite-interval path instead.
    """

    log_integrand: Callable
    dlog_integrand: Callable
    d2log_integrand: Callable
    peak_guess: Callable[[np.ndarray], float]
    tilt_gradient: Callable
    tilt_curvature: Callable
    width_floor: Callable[[np.ndarray], float] = lambda theta: 0.0


@dataclass(frozen=True)
class GeneratingFamily:
    name: str
    kind: str
    dim: int
    domain: DomainSpec
    payload: object
    quad_policy: QuadraturePolicy = DEFAULT_POLICY


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def cumulant(family: GeneratingFamily, theta) -> float:
    """kappa(theta); +inf outside the essential domain."""
    return _cumulant(family, as_point(theta, family.dim, "natural point"))


def _cumulant(family, th) -> float:
    # the kernels behind the public functions take a trusted float vector
    if family.kind == DISCRETE:
        p = family.payload
        return float(logsumexp(p.atoms @ th + p.log_weights))
    if family.kind == ANALYTIC:
        val = float(family.payload.cumulant(th))
        if math.isnan(val):
            raise NumericsError(f"cumulant NaN at theta={th}")
        return val
    if not family.domain.contains(th):
        return INF
    if family.domain.is_boundary(th):
        return _boundary_cumulant(family, th)
    return _tilted_moments(family, th, 0).kappa


def cumulant_many(family: GeneratingFamily, thetas) -> np.ndarray:
    """Vectorized kappa over rows of an (m, d) array (grid oracles)."""
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if family.kind == DISCRETE:
        p = family.payload
        return logsumexp(arr @ p.atoms.T + p.log_weights[None, :], axis=1)
    if family.kind == ANALYTIC and family.payload.cumulant_many is not None:
        return np.asarray(family.payload.cumulant_many(arr), dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NumericsError("natural points have non-finite coordinates")
    return np.array([_cumulant(family, row) for row in arr])


def mean_map(family: GeneratingFamily, theta) -> np.ndarray:
    """∇kappa(theta) = mean of the tilted law P_theta."""
    return _mean_map(family, as_point(theta, family.dim, "natural point"))


def _mean_map(family, th) -> np.ndarray:
    if family.kind != DISCRETE and not family.domain.interior(th):
        raise OutsideDomain(f"theta={th} is not interior for {family.name}")
    if family.kind == DISCRETE:
        p = family.payload
        logits = p.atoms @ th + p.log_weights
        w = np.exp(logits - logits.max())
        w /= w.sum()
        return p.atoms.T @ w
    if family.kind == ANALYTIC:
        return np.asarray(family.payload.grad(th), dtype=float)
    return _tilted_moments(family, th, 1).grad


def hessian(family: GeneratingFamily, theta) -> np.ndarray:
    """Hess kappa(theta): the covariance of P_theta, symmetric PD on the
    interior."""
    return _hessian(family, as_point(theta, family.dim, "natural point"))


def _hessian(family, th) -> np.ndarray:
    if family.kind != DISCRETE and not family.domain.interior(th):
        raise OutsideDomain(f"theta={th} is not interior for {family.name}")
    if family.kind == DISCRETE:
        p = family.payload
        logits = p.atoms @ th + p.log_weights
        w = np.exp(logits - logits.max())
        w /= w.sum()
        mu = p.atoms.T @ w
        centered = p.atoms - mu
        return (centered * w[:, None]).T @ centered
    if family.kind == ANALYTIC:
        return np.asarray(family.payload.hess(th), dtype=float)
    return _tilted_moments(family, th, 2).hess


def log_likelihood(family: GeneratingFamily, theta, t) -> float:
    """Normalized log-likelihood l(theta; t) = theta.t - kappa(theta),
    set to -inf off the essential domain."""
    th = as_point(theta, family.dim, "natural point")
    tt = as_point(t, family.dim, "mean point")
    return _log_likelihood(family, th, tt)


def _log_likelihood(family, th, tt) -> float:
    k = _cumulant(family, th)
    if k == INF:
        return -INF
    return float(th @ tt) - k


def in_mean_domain(family: GeneratingFamily, t) -> bool:
    tt = as_point(t, family.dim, "mean point")
    return bool(family.domain.mean_domain(tt))


# ---------------------------------------------------------------------------
# quadrature-reduced families
# ---------------------------------------------------------------------------


def _quad_window(family, th):
    # Newton from the guess meets nonnegative curvature when the tilt has
    # no far mode; a restart from the mode that a factor such as 1/(1+x^2)
    # puts at the origin then finds the peak without the grid search
    p = family.payload
    x_star = locate_peak(
        lambda x: p.log_integrand(x, th),
        lambda x: p.dlog_integrand(x, th),
        lambda x: p.d2log_integrand(x, th),
        p.peak_guess(th),
        steps=family.quad_policy.newton_steps,
        restarts=(0.0,),
    )
    curv = p.d2log_integrand(x_star, th)
    if not math.isfinite(curv) or curv >= 0.0:
        raise QuadratureFailure(
            f"{family.name}: no concave peak located at theta={th}"
        )
    width = max(1.0 / math.sqrt(-curv), p.width_floor(th))
    half = family.quad_policy.window_halfwidth * width
    return x_star, width, x_star - half, x_star + half


def _boundary_cumulant(family, th):
    # boundary integrands decay only algebraically; use the infinite-
    # interval transform instead of a peak window
    p = family.payload

    def shifted(x):
        return math.exp(p.log_integrand(x, th))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(
            shifted, -np.inf, np.inf,
            limit=family.quad_policy.quad_limit,
            epsabs=0.0, epsrel=max(family.quad_policy.rel_tol, 1e-13),
        )
    if val <= 0.0 or err > 1e4 * family.quad_policy.rel_tol * val:
        raise QuadratureFailure(
            f"{family.name}: boundary cumulant did not converge at {th}"
        )
    return math.log(val)


# Gauss-Legendre orders of the rule and of its error-estimating companion,
# and the panel edges about the peak in multiples of its width
_RULE_ORDER = 20
_COMPANION_ORDER = 10
_PEAK_OFFSETS = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0])
# no sum of doubles is relatively accurate beyond a few dozen ulps
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps


class TiltedMoments(NamedTuple):
    kappa: float
    grad: np.ndarray | None
    hess: np.ndarray | None
    rel_err: float          # estimated relative error of exp(kappa)


def _panel_edges(x_star, width, a, b):
    """Panel edges on the window [a, b]: graded around the peak and,
    geometrically from a half unit, around the origin."""
    reach = max(abs(a), abs(b), 1.0)
    octaves = 2.0 ** np.arange(-1.0, math.ceil(math.log2(reach)) + 1.0)
    edges = np.concatenate([
        x_star - _PEAK_OFFSETS * width, x_star + _PEAK_OFFSETS * width,
        -octaves, [0.0], octaves, [a, b],
    ])
    return np.unique(np.clip(edges, a, b))


def _panel_rule(edges, order):
    nodes, weights = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _tilted_moments(family, th, derivatives) -> TiltedMoments:
    """kappa, plus ∇kappa when ``derivatives`` >= 1 and Hess kappa when it
    is 2, at an interior theta (see ``Quadrature1DPayload``).  Grading the
    panels around the origin as well as the located peak resolves both
    modes of a bimodal tilt."""
    p = family.payload
    x_star, width, a, b = _quad_window(family, th)
    edges = _panel_edges(x_star, width, a, b)
    x, w = _panel_rule(edges, _RULE_ORDER)
    x_c, w_c = _panel_rule(edges, _COMPANION_ORDER)
    logf = p.log_integrand(np.concatenate([x, x_c]), th)
    top = float(np.max(logf))
    if math.isnan(top):
        raise NumericsError(f"{family.name}: NaN log-integrand at theta={th}")
    shifted = np.exp(logf - top)
    e, e_c = shifted[: x.size], shifted[x.size:]
    mass = float(w @ e)
    if not math.isfinite(mass) or mass <= 0.0:
        raise QuadratureFailure(f"{family.name}: degenerate tilt at {th}")
    rel_err = max(abs(mass - float(w_c @ e_c)) / mass, _ROUNDOFF_FLOOR)
    if rel_err > 1e4 * family.quad_policy.rel_tol:
        raise QuadratureFailure(
            f"{family.name}: tilted-moment error {rel_err:.3e} exceeds "
            f"tolerance at theta={th} (window [{a:.3g}, {b:.3g}])"
        )
    kappa = top + math.log(mass)
    if derivatives < 1:
        return TiltedMoments(kappa, None, None, rel_err)
    weights = w * e / mass
    dh = p.tilt_gradient(x, th)            # (n, d)
    grad = dh.T @ weights
    if derivatives < 2:
        return TiltedMoments(kappa, grad, None, rel_err)
    d2h = p.tilt_curvature(x, th)          # (n, d, d)
    e_d2h = np.einsum("n,nij->ij", weights, d2h)
    centered = dh - grad[None, :]
    cov = (centered * weights[:, None]).T @ centered
    hess = e_d2h + cov
    return TiltedMoments(kappa, grad, 0.5 * (hess + hess.T), rel_err)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)


def _hw_lse(th):
    """log(2 + exp(th[0]) + exp(th[1])), shifted by the largest term."""
    top = max(_LOG2, th[0], th[1])
    return top + math.log(
        math.exp(_LOG2 - top) + math.exp(th[0] - top) + math.exp(th[1] - top)
    )


def _hw_cumulant(th):
    return _hw_lse(th) - _LOG4


def _hw_probs(th):
    return np.exp(np.array([th[0], th[1]]) - _hw_lse(th))


def _make_hardy_weinberg():
    def grad(th):
        return _hw_probs(th)

    def hess(th):
        prob = _hw_probs(th)
        return np.diag(prob) - np.outer(prob, prob)

    def many(arr):
        return np.logaddexp(np.logaddexp(_LOG2, arr[:, 0]), arr[:, 1]) - _LOG4

    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=lambda t: t[0] > 0.0 and t[1] > 0.0 and t[0] + t[1] < 1.0,
        initial_point=np.zeros(2),
        description="three-outcome simplex family, atoms 0, e1, e2",
    )
    return GeneratingFamily(
        name="hardy-weinberg-saturated",
        kind=ANALYTIC,
        dim=2,
        domain=domain,
        payload=AnalyticPayload(_hw_cumulant, grad, hess, many),
    )


def _make_gauss_parabola():
    # Gaussian laws lifted to (x, x^2); the normalisation below keeps the
    # textbook closed form, which differs from the image of Lebesgue
    # measure by the constant -log(2*pi) (constants cancel in every rate)
    def cml(th):
        t1, t2 = th
        if t2 >= 0.0:
            return INF
        return -0.5 * (
            2.0 * math.log(2.0) + math.log(math.pi) + math.log(-t2)
            + t1 * t1 / (2.0 * t2)
        )

    def grad(th):
        t1, t2 = th
        return np.array(
            [-t1 / (2.0 * t2), t1 * t1 / (4.0 * t2 * t2) - 1.0 / (2.0 * t2)]
        )

    def hess(th):
        t1, t2 = th
        h11 = -1.0 / (2.0 * t2)
        h12 = t1 / (2.0 * t2 * t2)
        h22 = -t1 * t1 / (2.0 * t2 ** 3) + 1.0 / (2.0 * t2 * t2)
        return np.array([[h11, h12], [h12, h22]])

    def many(arr):
        t1, t2 = arr[:, 0], arr[:, 1]
        out = np.full(arr.shape[0], INF)
        ok = t2 < 0.0
        out[ok] = -0.5 * (
            2.0 * math.log(2.0) + math.log(math.pi) + np.log(-t2[ok])
            + t1[ok] ** 2 / (2.0 * t2[ok])
        )
        return out

    domain = DomainSpec(
        interior=lambda th: th[1] < 0.0,
        mean_domain=lambda t: t[1] > t[0] * t[0],
        initial_point=np.array([0.0, -1.0]),
        description="Gaussian family on the parabola (x, x^2)",
    )
    return GeneratingFamily(
        name="gauss-parabola",
        kind=ANALYTIC,
        dim=2,
        domain=domain,
        payload=AnalyticPayload(cml, grad, hess, many),
    )


def _make_poisson():
    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=lambda t: t[0] > 0.0,
        initial_point=np.zeros(1),
        description="Poisson(1) family",
    )
    return GeneratingFamily(
        name="poisson",
        kind=ANALYTIC,
        dim=1,
        domain=domain,
        payload=AnalyticPayload(
            cumulant=lambda th: float(np.expm1(th[0])),
            grad=lambda th: np.array([math.exp(th[0])]),
            hess=lambda th: np.array([[math.exp(th[0])]]),
            cumulant_many=lambda arr: np.expm1(arr[:, 0]),
        ),
    )


def _make_gauss_mean():
    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=lambda t: True,
        initial_point=np.zeros(1),
        description="standard Gaussian location family",
    )
    return GeneratingFamily(
        name="gauss-mean",
        kind=ANALYTIC,
        dim=1,
        domain=domain,
        payload=AnalyticPayload(
            cumulant=lambda th: 0.5 * th[0] * th[0],
            grad=lambda th: th.copy(),
            hess=lambda th: np.ones((1, 1)),
            cumulant_many=lambda arr: 0.5 * arr[:, 0] ** 2,
        ),
    )


def _landau_dual_cumulant(th):
    mu = th[0]
    if mu < 0.0:
        return INF
    if mu == 0.0:
        return 1.0
    return mu * math.log(mu) - mu + 1.0


def _make_landau_dual():
    domain = DomainSpec(
        interior=lambda th: th[0] > 0.0,
        mean_domain=lambda t: True,
        initial_point=np.ones(1),
        boundary_points=(np.zeros(1),),
        description="dual of the Poisson family (shifted negated Landau law)",
    )

    def many(arr):
        mu = arr[:, 0]
        out = np.full(arr.shape[0], INF)
        out[mu == 0.0] = 1.0
        pos = mu > 0.0
        out[pos] = mu[pos] * np.log(mu[pos]) - mu[pos] + 1.0
        return out

    return GeneratingFamily(
        name="landau-dual",
        kind=ANALYTIC,
        dim=1,
        domain=domain,
        payload=AnalyticPayload(
            cumulant=_landau_dual_cumulant,
            grad=lambda th: np.array([math.log(th[0])]),
            hess=lambda th: np.array([[1.0 / th[0]]]),
            cumulant_many=many,
        ),
    )


def _make_strip_measure():
    # reduced from the planar measure
    #   dλ = exp(-(x1^2 + x2^2/(4(1+x1^2)))) / (2 sqrt(pi) (1+x1^2)^{3/2})
    # by integrating out x2:
    #   kappa(t1, t2) = log ∫ exp(t1 x - x^2 + t2^2 (1+x^2)) / (1+x^2) dx
    # finite on {|t2| < 1} plus the two boundary points (0, +-1)
    # the quadratic coefficient 1 - t2^2 is factored once: the naive form
    # x^2 - t2^2 x^2 cancels catastrophically for the huge peak abscissas
    # that occur as t2 approaches the strip boundary, and the product
    # (1 - t2)(1 + t2) keeps it to an ulp where 1 - t2*t2 would lose digits
    def quad_coef(t2):
        return (1.0 - t2) * (1.0 + t2)

    def logf(x, th):
        x = np.asarray(x, dtype=float)
        t1, t2 = th
        a2 = quad_coef(t2)
        return t1 * x - a2 * x * x + t2 * t2 - np.log1p(x * x)

    def dlogf(x, th):
        t1, t2 = th
        a2 = quad_coef(t2)
        return t1 - 2.0 * a2 * x - 2.0 * x / (1.0 + x * x)

    def d2logf(x, th):
        a2 = quad_coef(th[1])
        return -2.0 * a2 - 2.0 * (1.0 - x * x) / (1.0 + x * x) ** 2

    def peak_guess(th):
        t1, t2 = th
        return t1 / (2.0 * max(quad_coef(t2), 1e-12))

    def tilt_gradient(x, th):
        t2 = th[1]
        return np.column_stack([x, 2.0 * t2 * (1.0 + x * x)])

    def tilt_curvature(x, th):
        n = x.size
        out = np.zeros((n, 2, 2))
        out[:, 1, 1] = 2.0 * (1.0 + x * x)
        return out

    def width_floor(th):
        return 1.0 / math.sqrt(2.0 * max(quad_coef(th[1]), 1e-12))

    boundary = (np.array([0.0, 1.0]), np.array([0.0, -1.0]))
    domain = DomainSpec(
        interior=lambda th: abs(th[1]) < 1.0,
        mean_domain=lambda t: True,
        initial_point=np.zeros(2),
        boundary_points=boundary,
        description="strip essential domain with two finite boundary points",
    )
    return GeneratingFamily(
        name="strip-measure",
        kind=QUADRATURE1D,
        dim=2,
        domain=domain,
        payload=Quadrature1DPayload(
            log_integrand=logf,
            dlog_integrand=dlogf,
            d2log_integrand=d2logf,
            peak_guess=peak_guess,
            tilt_gradient=tilt_gradient,
            tilt_curvature=tilt_curvature,
            width_floor=width_floor,
        ),
    )


_BUILTIN_FACTORIES = {
    "hardy-weinberg-saturated": _make_hardy_weinberg,
    "gauss-parabola": _make_gauss_parabola,
    "poisson": _make_poisson,
    "gauss-mean": _make_gauss_mean,
    "landau-dual": _make_landau_dual,
    "strip-measure": _make_strip_measure,
}

_BUILTIN_CACHE: dict = {}


def builtin_names():
    return sorted(_BUILTIN_FACTORIES)


def builtin(name: str) -> GeneratingFamily:
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin family {name!r}; available: {builtin_names()}"
        ) from None
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = factory()
    return _BUILTIN_CACHE[name]


def discrete_family(atoms, weights, name="discrete") -> GeneratingFamily:
    payload = DiscretePayload(np.asarray(atoms, float), np.asarray(weights, float))
    d = payload.atoms.shape[1]
    if d == 1:
        lo = float(payload.atoms.min())
        hi = float(payload.atoms.max())

        def mean_dom(t):
            return lo < t[0] < hi
    else:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(payload.atoms)
        eqs = hull.equations  # rows (normal, offset): normal.x + offset <= 0

        def mean_dom(t, eqs=eqs):
            return bool(np.all(eqs[:, :-1] @ t + eqs[:, -1] < -1e-12))

    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=mean_dom,
        initial_point=np.zeros(d),
        description=f"finite discrete measure with {payload.atoms.shape[0]} atoms",
    )
    return GeneratingFamily(
        name=name, kind=DISCRETE, dim=d, domain=domain, payload=payload
    )


def family_from_descriptor(obj: dict) -> GeneratingFamily:
    """Construct a family from its JSON descriptor.

    Accepted forms (field names fixed):
      {"kind": "builtin", "name": "hardy-weinberg-saturated"}
      {"kind": "discrete", "atoms": [{"x": [...], "w": ...}, ...]}
    """
    kind = obj.get("kind")
    if kind == "builtin":
        return builtin(obj["name"])
    if kind == "discrete":
        atoms = [entry["x"] for entry in obj["atoms"]]
        weights = [entry["w"] for entry in obj["atoms"]]
        return discrete_family(atoms, weights)
    raise ValueError(f"unknown family descriptor kind {kind!r}")


def family_descriptor(family: GeneratingFamily) -> dict:
    """JSON descriptor for a family (inverse of ``family_from_descriptor``)."""
    if family.name in _BUILTIN_FACTORIES:
        return {"kind": "builtin", "name": family.name}
    if family.kind == DISCRETE:
        p = family.payload
        return {
            "kind": "discrete",
            "atoms": [
                {"x": list(map(float, x)), "w": float(w)}
                for x, w in zip(p.atoms, p.weights)
            ],
        }
    raise ValueError(f"family {family.name!r} has no JSON descriptor form")
