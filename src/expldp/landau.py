"""Density and cumulant numerics for the heavy-tailed dual of the Poisson
family.

The generating measure dual to Poisson(1) has cumulant generating function
mu*log(mu) - mu + 1 on [0, inf).  Up to that additive constant 1 it is the
cgf of a probability density f, the law of -X-1 for X Landau-distributed.
Inverting the bilateral Laplace transform along the imaginary axis gives

    f(y) = (1/pi) * int_0^inf exp(-pi*v/2) * cos(v*log(v) - v*(1+y)) dv.

That integral is the Landau density in Landau's own scale, so f is
evaluated as ``scipy.stats.landau`` with location log(pi/2) and scale
pi/2, reflected through y -> -y-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import composite_gl

TAIL_EDGE = -250.0
_LOC = math.log(math.pi / 2.0)
_SCALE = math.pi / 2.0


def landau_density(y):
    """Probability density of -X-1 for X Landau-distributed.

    ``y`` may be a scalar (returns a float) or an array (returns an array).
    """
    # imported here: scipy.stats adds about 0.5 s and 20 MB to
    # ``import expldp``, and only the Landau numerics need it
    from scipy.stats import landau

    vals = landau.pdf(-np.asarray(y, dtype=float) - 1.0, loc=_LOC, scale=_SCALE)
    return float(vals) if np.ndim(vals) == 0 else vals


@dataclass(frozen=True)
class NormalizationReport:
    """Measured total mass of the density, with the far-tail completion."""

    value: float
    body: float
    tail_correction: float
    tail_edge: float


def landau_normalization() -> NormalizationReport:
    """Integrate the density over the real line.

    The left tail decays like 1/y^2 (the Landau 1/x^2 tail), so beyond
    ``TAIL_EDGE`` the integral is completed analytically with the locally
    matched A/y^2 coefficient; the body is composite quadrature, with the
    deep region handled under the u = 1/y substitution where the integrand
    y^2 f(y) varies slowly.
    """
    # y = 1/u maps [TAIL_EDGE, -9] to the increasing u-range [-1/9, 1/TAIL_EDGE]
    deep = composite_gl(
        lambda u: landau_density(1.0 / u) / (u * u),
        np.linspace(-1.0 / 9.0, 1.0 / TAIL_EDGE, 4),
        order=32,
    )
    near = composite_gl(
        landau_density, [-9.0, -5.0, -3.0, -1.5, 0.0, 1.5, 3.0, 5.0, 8.0],
        order=40,
    )
    tail = (TAIL_EDGE * TAIL_EDGE * landau_density(TAIL_EDGE)) / abs(TAIL_EDGE)
    body = deep + near
    return NormalizationReport(
        value=body + tail, body=body, tail_correction=tail, tail_edge=TAIL_EDGE
    )


def landau_dual_numeric_cumulant(mu):
    """Numeric cumulant of the dual generating measure at mu > 0.

    The dual measure carries total mass e (its cgf at 0 equals 1), so this
    returns 1 + log ∫ exp(mu*y) f(y) dy.  The true density is
    double-exponentially small on the right, so the integral stops at y = 4.
    """
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("numeric dual cumulant requires mu > 0")
    panels = [-60.0 / mu, -25.0 / mu, -9.0 / mu, -5.0, -3.0, -1.5, 0.0, 1.5,
              3.0, 4.0]
    panels = sorted(set(panels))
    val = composite_gl(
        lambda yy: np.exp(mu * yy) * landau_density(yy), panels, order=40
    )
    return 1.0 + math.log(val)
