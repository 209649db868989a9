"""Generating measures and their cumulant machinery.

A family is a generating measure lambda on R^d together with its domain
and a payload of three kernels: ``cumulant(th)`` for kappa(theta) =
log ∫ exp(theta.x) dλ, ``cumulant_many(th)`` for kappa at many points at
once, and ``moments(th)``, which returns the mean map ∇kappa and the
Hessian Hess kappa together.  ``cumulant_many`` takes the points by
coordinate: ``th[k]`` is coordinate k, the d coordinates are broadcastable
arrays, and the result has their broadcast shape.  A (d, m) array is m
points, and an open mesh such as (a[:, None], b[None, :]) is the product
grid of its axes, on which a kernel computes what depends on one
coordinate once per axis value rather than once per point.  Finite
discrete measures (``DiscretePayload``, a max-shifted log-sum-exp over the
atoms, which broadcasts the coordinates back into rows) and closed-form
families (``AnalyticPayload``) follow the same protocol.
Hardy–Weinberg's batched kernel is log(1/2 + (e^th1 + e^th2)/4) with no
shift: exp runs once per axis of a product grid and only the log once per
point.  A call with a coordinate above 700, +inf or NaN, where exp could
overflow, takes the shifted logaddexp form instead.  The strip measure's
closed form goes through the Faddeeva function w; its moments come from
the tilted density, which needs only w, or, far from the origin, from the
asymptotic series of w' and w''.

Natural points and mean points are plain float vectors; ``as_point``
enforces finiteness and dimension at the API boundary.

Values follow extended-real conventions: kappa is +inf off its essential
domain, the log-likelihood is -inf there, and NaN is never a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable

import numpy as np

from .errors import NumericsError, OutsideDomain

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
    initial_point: np.ndarray        # interior; Newton conjugation starts here
    boundary_points: tuple = ()

    def is_boundary(self, theta) -> bool:
        return any(np.array_equal(theta, b) for b in self.boundary_points)


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

    def cumulant(self, th):
        return float(self.cumulant_many(th[:, None])[0])

    def cumulant_many(self, th):
        # the logits are a product with the atoms, so the coordinates are
        # broadcast back into (points, d) rows
        cols = np.broadcast_arrays(*th)
        arr = np.stack(cols, axis=-1).reshape(-1, len(cols))
        finite = np.isfinite(arr).all(axis=1)
        if finite.all():
            logits = arr @ self.atoms.T + self.log_weights
        else:
            logits = self._limit_logits(arr, finite) + self.log_weights
        # a row whose largest logit overflowed to +inf is left unshifted, so
        # its kappa is +inf rather than inf - inf
        top = logits.max(axis=1, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)
        kappa = top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
        return kappa.reshape(cols[0].shape)

    def _limit_logits(self, arr, finite):
        """Row-by-atom logits, taken as limits on the rows that are not
        ``finite``: an atom with 0 in an infinite coordinate does not see
        it (0 * inf is 0).  Finite rows keep the matmul."""
        logits = np.empty((arr.shape[0], self.atoms.shape[0]))
        logits[finite] = arr[finite] @ self.atoms.T
        rows = arr[~finite, None, :]
        with np.errstate(invalid="ignore"):
            terms = rows * self.atoms
            terms[np.isinf(rows) & (self.atoms == 0.0)] = 0.0
            logits[~finite] = terms.sum(axis=2)
        if np.isnan(logits).any():
            raise NumericsError(
                "cumulant has no limit: a row is NaN or an atom's logit is "
                "inf - inf"
            )
        return logits

    def moments(self, th):
        logits = self.atoms @ th + self.log_weights
        w = np.exp(logits - logits.max())
        w /= w.sum()
        mean = self.atoms.T @ w
        centered = self.atoms - mean
        return mean, (centered * w[:, None]).T @ centered


@dataclass(frozen=True)
class AnalyticPayload:
    cumulant: Callable[[np.ndarray], float]      # total: +inf off the domain
    moments: Callable[[np.ndarray], tuple]       # interior th -> (∇kappa, Hess kappa)
    # d broadcastable coordinate arrays -> kappa in their broadcast shape
    cumulant_many: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GeneratingFamily:
    name: str
    dim: int
    domain: DomainSpec
    payload: DiscretePayload | AnalyticPayload


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def cumulant(family: GeneratingFamily, theta) -> float:
    """kappa(theta); +inf outside the essential domain."""
    return _cumulant(family, as_point(theta, family.dim, "natural point"))


def _cumulant(family, th) -> float:
    # the kernels behind the public functions take a trusted float vector
    val = float(family.payload.cumulant(th))
    if math.isnan(val):
        raise NumericsError(f"cumulant NaN at theta={th}")
    return val


def cumulant_many(family: GeneratingFamily, thetas) -> np.ndarray:
    """Vectorized kappa over the rows of an (m, d) array, or over an (m,)
    array when d = 1; the rows reach the payload's kernel as its d
    coordinate columns."""
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return np.asarray(family.payload.cumulant_many(arr.T), dtype=float)


def _moments(family, th):
    """(∇kappa, Hess kappa) at a trusted interior natural point."""
    if not family.domain.interior(th):
        raise OutsideDomain(f"theta={th} is not interior for {family.name}")
    return family.payload.moments(th)


def mean_map(family: GeneratingFamily, theta) -> np.ndarray:
    """∇kappa(theta) = mean of the tilted law P_theta."""
    return _moments(family, as_point(theta, family.dim, "natural point"))[0]


def hessian(family: GeneratingFamily, theta) -> np.ndarray:
    """Hess kappa(theta): the covariance of P_theta, symmetric PD on the
    interior."""
    return _moments(family, as_point(theta, family.dim, "natural point"))[1]


def log_likelihood(family: GeneratingFamily, theta, t) -> float:
    """Normalized log-likelihood l(theta; t) = theta.t - kappa(theta),
    set to -inf off the essential domain."""
    th = as_point(theta, family.dim, "natural point")
    tt = as_point(t, family.dim, "mean point")
    return _log_likelihood(family, th, tt)


def _log_likelihood(family, th, tt) -> float:
    # the kernel itself, not _cumulant: a NaN kappa makes v NaN, and the
    # rare path raises on it, so the common path pays for one NaN test only
    k = float(family.payload.cumulant(th))
    if k == INF:
        return -INF
    # Python floats overflow to inf without numpy's RuntimeWarning
    v = sum(map(mul, th.tolist(), tt.tolist())) - k
    if v != v:
        where = f"{family.name} at theta={th}"
        return float(_nan_loglik(v, th[:, None], tt, k, where)[0])
    return v


def _nan_loglik(vals, thetas, t, kappas, name):
    """theta.t - kappa at the points where the plain ``vals`` came out NaN:
    the rare path of every log-likelihood.  ``thetas`` holds the d
    coordinates of the points, ``t`` the mean point and ``kappas`` kappa at
    each point.  A NaN kappa raises NumericsError, and l is -inf where kappa
    is +inf.  Where two products overflowed with opposite signs, the
    products are summed as mantissas scaled by 2^-e, e the largest
    product's binary exponent; scaling by a power of two is exact, so the
    sum rounds as the plain one would with no overflow, and then to +-inf
    only where it is past the largest double."""
    vals = np.array(vals, dtype=float, ndmin=1)
    kappas = np.broadcast_to(np.asarray(kappas, dtype=float), vals.shape)
    if np.isnan(kappas).any():
        raise NumericsError(f"cumulant NaN on {name}")
    bad = np.isnan(vals)
    off = bad & (kappas == INF)
    vals[off] = -INF
    bad &= ~off
    if bad.any():
        mant, exps = np.frexp(np.asarray(thetas, dtype=float)[:, bad])
        mt, et = np.frexp(np.asarray(t, dtype=float))
        exps = exps + et[:, None]
        top = exps.max(axis=0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            parts = np.ldexp(mant * mt[:, None], exps - top)
            dot = parts[0]
            for part in parts[1:]:
                dot = dot + part
            vals[bad] = np.ldexp(dot, top) - kappas[bad]
        if np.isnan(vals[bad]).any():
            raise NumericsError(f"log-likelihood NaN on {name}")
    return vals


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)


def _hw_lse(th):
    """log(2 + exp(th[0]) + exp(th[1])), shifted by the largest term; in
    Python floats, whose overflow to -inf in a shift is quiet."""
    t1, t2 = th.tolist()
    top = max(_LOG2, t1, t2)
    return top + math.log(
        math.exp(_LOG2 - top) + math.exp(t1 - top) + math.exp(t2 - top)
    )


def _hw_cumulant(th):
    return _hw_lse(th) - _LOG4


def _hw_moments(th):
    prob = np.exp(np.array([th[0], th[1]]) - _hw_lse(th))
    return prob, np.diag(prob) - np.outer(prob, prob)


# exp stays finite up to about 709.78; the batched kernel needs no shift
# below this bound
_HW_EXP_BOUND = 700.0


def _top(th):
    """The largest coordinate of any point of ``th``, NaN if one is NaN and
    -inf if there are no points.  A stacked array takes one reduction, and
    the ufunc's reduce costs half of ``max()`` on the one-point arrays of a
    polish."""
    if isinstance(th, np.ndarray):
        return np.maximum.reduce(th, axis=None, initial=-INF)
    return np.maximum.reduce([_top(coord) for coord in th])


def _make_hardy_weinberg():
    def many(th):
        # kappa = log(1/2 + (e^th1 + e^th2)/4): scaling by 1/4 is exact.  A
        # point with NaN, +inf or a coordinate past the bound takes the
        # shifted form and every other point this one, so a point's value
        # is the same in any batch
        t1, t2 = th[0], th[1]
        if _top(th) <= _HW_EXP_BOUND:
            return np.log((np.exp(t1) + np.exp(t2)) * 0.25 + 0.5)
        t1, t2 = np.broadcast_arrays(t1, t2)
        near = np.maximum(t1, t2) <= _HW_EXP_BOUND
        far = ~near
        kappa = np.empty(t1.shape)
        kappa[near] = np.log((np.exp(t1[near]) + np.exp(t2[near])) * 0.25 + 0.5)
        kappa[far] = np.logaddexp(np.logaddexp(_LOG2, t1[far]), t2[far]) - _LOG4
        return kappa

    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=lambda t: t[0] > 0.0 and t[1] > 0.0 and t[0] + t[1] < 1.0,
        initial_point=np.zeros(2),
    )
    return GeneratingFamily(
        name="hardy-weinberg-saturated",
        dim=2,
        domain=domain,
        payload=AnalyticPayload(_hw_cumulant, _hw_moments, many),
    )


# Gaussian laws lifted to (x, x^2); the normalisation below keeps the
# textbook closed form, which differs from the image of Lebesgue measure by
# the constant -log(2*pi) (constants cancel in every rate)
_GAUSS_PARABOLA_CONST = 2.0 * math.log(2.0) + math.log(math.pi)


def _make_gauss_parabola():
    def cml(th):
        # Python floats: t1 * t1 saturates to inf without numpy's warning
        t1, t2 = th.tolist()
        if t2 >= 0.0:
            return INF
        return -0.5 * (
            _GAUSS_PARABOLA_CONST + math.log(-t2) + t1 * t1 / (2.0 * t2)
        )

    def moments(th):
        # through E[x] = -t1/(2 t2) and Var x = -1/(2 t2), which stay finite
        # wherever the moments are; t2^2 and t2^3 overflow from |t2| = 1.4e154
        # and 5.7e102 on
        t1, t2 = th
        m1 = -t1 / (2.0 * t2)
        h11 = -0.5 / t2
        h12 = -m1 / t2
        h22 = -(2.0 * m1 * m1 + h11) / t2
        return np.array([m1, m1 * m1 + h11]), np.array([[h11, h12], [h12, h22]])

    def many(th):
        t1, t2 = th[0], th[1]
        off = t2 >= 0.0
        # off the domain t2 = -1 stands in, so log and the division stay
        # quiet there; kappa saturates to +inf where it overflows, NaN stays NaN
        neg = np.where(off, -1.0, t2)
        with np.errstate(over="ignore"):
            kappa = -0.5 * (
                _GAUSS_PARABOLA_CONST + np.log(-neg) + t1 ** 2 / (2.0 * neg)
            )
        return np.where(off & ~np.isnan(t1), INF, kappa)

    domain = DomainSpec(
        interior=lambda th: th[1] < 0.0,
        mean_domain=lambda t: float(t[1]) > float(t[0]) * float(t[0]),
        initial_point=np.array([0.0, -1.0]),
    )
    return GeneratingFamily(
        name="gauss-parabola",
        dim=2,
        domain=domain,
        payload=AnalyticPayload(cml, moments, many),
    )


# the largest argument at which expm1 is finite; past it kappa is +inf
_EXPM1_BOUND = math.log(np.finfo(float).max)


def _poisson_moments(th):
    if th[0] > _EXPM1_BOUND:
        raise OutsideDomain(f"theta={th}: e^theta overflows and kappa is +inf")
    rate = math.exp(th[0])
    return np.array([rate]), np.array([[rate]])


def _poisson_cumulant(th):
    return INF if th[0] > _EXPM1_BOUND else float(np.expm1(th[0]))


def _poisson_cumulant_many(th):
    x = th[0]
    # NaN stays NaN: it fails the comparison and passes through the minimum
    return np.where(x > _EXPM1_BOUND, INF, np.expm1(np.minimum(x, _EXPM1_BOUND)))


def _make_poisson():
    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=lambda t: t[0] > 0.0,
        initial_point=np.zeros(1),
    )
    return GeneratingFamily(
        name="poisson",
        dim=1,
        domain=domain,
        payload=AnalyticPayload(
            cumulant=_poisson_cumulant,
            moments=_poisson_moments,
            cumulant_many=_poisson_cumulant_many,
        ),
    )


def _make_gauss_mean():
    domain = DomainSpec(
        interior=lambda th: True,
        mean_domain=lambda t: True,
        initial_point=np.zeros(1),
    )
    return GeneratingFamily(
        name="gauss-mean",
        dim=1,
        domain=domain,
        payload=AnalyticPayload(
            # a Python float, which overflows to inf without a warning
            cumulant=lambda th: 0.5 * float(th[0]) * float(th[0]),
            moments=lambda th: (th.copy(), np.ones((1, 1))),
            cumulant_many=lambda th: 0.5 * th[0] ** 2,
        ),
    )


def _landau_dual_cumulant(th):
    mu = float(th[0])     # overflows to inf without numpy's warning
    if mu < 0.0 or mu == INF:
        return INF
    if mu == 0.0:
        return 1.0
    return mu * math.log(mu) - mu + 1.0


def _landau_dual_moments(th):
    return np.array([math.log(th[0])]), np.array([[1.0 / th[0]]])


def _make_landau_dual():
    domain = DomainSpec(
        interior=lambda th: th[0] > 0.0,
        mean_domain=lambda t: True,
        initial_point=np.ones(1),
        boundary_points=(np.zeros(1),),
    )

    def many(th):
        mu = th[0]
        off = (mu <= 0.0) | (mu == INF)
        # mu = 1 stands in off the open half-line, where log would warn, and
        # at mu = +inf, where inf - inf would; past about 2.6e305 the product
        # overflows to kappa = +inf, as in the scalar kernel.  NaN stays NaN
        inner = np.where(off, 1.0, mu)
        with np.errstate(over="ignore"):
            kappa = inner * np.log(inner) - inner + 1.0
        return np.where(off, np.where(mu == 0.0, 1.0, INF), kappa)

    return GeneratingFamily(
        name="landau-dual",
        dim=1,
        domain=domain,
        payload=AnalyticPayload(
            cumulant=_landau_dual_cumulant,
            moments=_landau_dual_moments,
            cumulant_many=many,
        ),
    )


# The strip measure, reduced from the planar measure
#   dλ = exp(-(x1^2 + x2^2/(4(1+x1^2)))) / (2 sqrt(pi) (1+x1^2)^{3/2})
# by integrating out x2:
#   kappa(t1, t2) = t2^2 + log ∫ exp(t1 x - a x^2) / (1 + x^2) dx,  a = 1 - t2^2,
# finite on {|t2| < 1} plus the two boundary points (0, +-1), where the
# integral is pi e.  With zeta = -t1 / (2 sqrt a) + i sqrt a and the
# Faddeeva function w(z) = exp(-z^2) erfc(-iz), the integral is
# pi exp(t1^2 / (4a)) Re w(zeta), so
#   kappa = t2^2 + log(pi) + F(t1, a),  F = t1^2 / (4a) + log Re w(zeta).

_SQRT_PI = math.sqrt(math.pi)
_STRIP_BOUNDARY_KAPPA = 1.0 + math.log(math.pi)
# Hess kappa comes from the tilt's moments, which need only w, while
# |zeta| < 7.5; their cancellation grows like |zeta|^2.  Farther out the
# tilt is nearly Gaussian and the chain rule through (t1, a) keeps the
# Gaussian part exact, with w' and w'' summed from the asymptotic series
#   w(z) ~ (i/sqrt(pi)) sum_n c_n z^-(2n+1),  c_n = (2n-1)!!/2^n.
# The series omits a term of size exp(Im^2 - Re^2) <= exp(-55), below
# an ulp of Re w' down to the smallest 1 - |t2| > 0.
_FAR = 7.5
_N = np.arange(30.0)
_C = np.cumprod(np.concatenate([[1.0], (2.0 * _N[1:] - 1.0) / 2.0]))
# Horner coefficients of the series of w' and w'' in 1/z^2, highest first
_FADDEEVA_SERIES = tuple(zip(
    ((2.0 * _N + 1.0) * _C).tolist(),
    ((2.0 * _N + 1.0) * (2.0 * _N + 2.0) * _C).tolist(),
))[::-1]


def _faddeeva_derivatives_far(z):
    """w'(z) and w''(z) from the asymptotic series, for Im z > 0 and
    |z| >= _FAR."""
    u = 1.0 / (z * z)
    s1 = s2 = 0.0
    for c1, c2 in _FADDEEVA_SERIES:
        s1 = s1 * u + c1
        s2 = s2 * u + c2
    return -1j * u * s1 / _SQRT_PI, 1j * u * s2 / (_SQRT_PI * z)


def _strip_zeta(t1, t2):
    # (1 - t2)(1 + t2) keeps a to an ulp where 1 - t2*t2 would lose digits
    a = (1.0 - t2) * (1.0 + t2)
    root = np.sqrt(a)
    return a, root, -t1 / (2.0 * root) + 1j * root


def _strip_cumulant(th):
    t1, t2 = th
    if abs(t2) >= 1.0:
        return _STRIP_BOUNDARY_KAPPA if t1 == 0.0 and abs(t2) == 1.0 else INF
    a, _, zeta = _strip_zeta(t1, t2)
    re_w = wofz(zeta).real
    # Re w > 0 in the upper half-plane; it underflows only where
    # t1^2 / (4a) has already overflowed
    if re_w == 0.0:
        return INF
    return float(t2 * t2 + t1 * t1 / (4.0 * a) + math.log(math.pi * re_w))


def _strip_cumulant_many(th):
    # the domain masks below would send a NaN point to +inf
    if math.isnan(_top(th)):
        raise NumericsError("strip natural points have NaN coordinates")
    t1, t2 = th[0], th[1]
    # off the open strip a <= 0 and the closed form is NaN or +inf; the
    # masks below replace it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, _, zeta = _strip_zeta(t1, t2)
        re_w = wofz(zeta).real
        kappa = t2 * t2 + t1 * t1 / (4.0 * a) + np.log(np.pi * re_w)
    r2 = np.abs(t2)
    edge = np.where((t1 == 0.0) & (r2 == 1.0), _STRIP_BOUNDARY_KAPPA, INF)
    return np.where((r2 < 1.0) & (re_w > 0.0), kappa, edge)


def _strip_moments(th):
    """∇kappa and Hess kappa at an interior point of the strip, from
    moments of the tilt exp(t1 x - a x^2) / (1 + x^2):
    ∇kappa = (E[x], 2 t2 E[1 + x^2])."""
    t1, t2 = th
    a, root, zeta = _strip_zeta(t1, t2)
    w = wofz(zeta)
    re_w = w.real
    # (1 + x^2) times the tilt is the Gaussian N(t1/(2a), 1/(2a)) scaled
    # by E[1 + x^2] = sqrt(pi/a) / (pi Re w); E[x] = -Im w / Re w is the
    # recurrence w' = -2 zeta w + 2i/sqrt(pi) in closed form
    mean = -w.imag / re_w
    e_quad = 1.0 / (_SQRT_PI * root * re_w)
    gauss_mean = t1 / (2.0 * a)
    if abs(zeta) < _FAR:
        var_x = e_quad - 1.0 - mean * mean
        cov_x_x2 = e_quad * (gauss_mean - mean)
        var_x2 = e_quad * (gauss_mean * gauss_mean + 0.5 / a + 1.0 - e_quad)
    else:
        # F_t1t1, F_t1a and F_aa from the partial derivatives of zeta;
        # zeta_t1t1 = 0
        d1, d2 = _faddeeva_derivatives_far(zeta)
        z1 = -0.5 / root
        za = complex(t1 / (4.0 * a * root), 0.5 / root)
        z1a = 0.25 / (a * root)
        zaa = complex(-3.0 * t1 / (8.0 * a * a * root), -0.25 / (a * root))
        r1 = (d1 * z1).real / re_w
        ra = (d1 * za).real / re_w
        var_x = 0.5 / a + (d2 * z1 * z1).real / re_w - r1 * r1
        # with a_t2 = -2 t2: kappa_t1t2 = -2 t2 F_t1a = 2 t2 Cov(x, x^2)
        cov_x_x2 = gauss_mean / a - (d2 * z1 * za + d1 * z1a).real / re_w + r1 * ra
        var_x2 = (
            t1 * t1 / (2.0 * a ** 3) + (d2 * za * za + d1 * zaa).real / re_w - ra * ra
        )
    h12 = 2.0 * t2 * cov_x_x2
    return (
        np.array([mean, 2.0 * t2 * e_quad]),
        np.array([[var_x, h12], [h12, 2.0 * e_quad + 4.0 * t2 * t2 * var_x2]]),
    )


def _make_strip_measure():
    # scipy.special is imported with the first strip family, not with the
    # package; the kernels above find wofz as a module global
    global wofz
    from scipy.special import wofz

    boundary = (np.array([0.0, 1.0]), np.array([0.0, -1.0]))
    domain = DomainSpec(
        interior=lambda th: abs(th[1]) < 1.0,
        mean_domain=lambda t: True,
        initial_point=np.zeros(2),
        boundary_points=boundary,
    )
    return GeneratingFamily(
        name="strip-measure",
        dim=2,
        domain=domain,
        payload=AnalyticPayload(
            cumulant=_strip_cumulant,
            moments=_strip_moments,
            cumulant_many=_strip_cumulant_many,
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
    )
    return GeneratingFamily(name=name, dim=d, domain=domain, payload=payload)
