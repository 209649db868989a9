"""Density and cumulant numerics for the heavy-tailed dual of the Poisson
family.

The generating measure dual to Poisson(1) has cumulant generating function
mu*log(mu) - mu + 1 on [0, inf).  Up to that additive constant 1 it is the
cgf of a probability density f, the law of -X-1 for X Landau-distributed.
Inverting the bilateral Laplace transform along the imaginary axis gives

    f(y) = (1/pi) * int_0^inf exp(-pi*v/2) * cos(v*log(v) - v*(1+y)) dv.

That integral is the Landau density in Landau's own scale, so f is the
standard Landau density (``scipy.stats.landau``) with location log(pi/2)
and scale pi/2, reflected through y -> -y-1.  f and log f are
``scipy.stats.landau.pdf`` and ``logpdf``'s arithmetic on the scipy.special
ufunc they call, the private ``_landau_pdf``, imported on first use;
scipy.stats itself would add about 45 MB and 0.5 s to the process.
tests/test_stats_parity.py checks both against scipy.stats bit for bit at
every finite y.  At y = +-inf they are the limits 0 and -inf, where
scipy.stats gives NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import log_integral_peaked

TAIL_EDGE = -250.0
_LOC = math.log(math.pi / 2.0)
_SCALE = math.pi / 2.0
# the density's mode, and a width scale for the quadrature's first panels
_MODE = -0.7772
_WIDTH = 4.0


def _standard_pdf(x):
    """The standard Landau density: ``scipy.stats.landau._pdf`` at every
    finite x, and its limit 0 at +-inf, where that ufunc gives NaN; NaN at
    NaN."""
    from scipy.special._ufuncs import _landau_pdf

    return np.where(np.isinf(x), 0.0, _landau_pdf(x, 0, 1))


def landau_density(y):
    """Probability density of -X-1 for X Landau-distributed; 0 at +-inf.

    ``y`` may be a scalar (returns a float) or an array (returns an array).
    """
    x = -np.asarray(y, dtype=float) - 1.0
    vals = _standard_pdf((x - _LOC) / _SCALE) / _SCALE
    return float(vals) if np.ndim(vals) == 0 else vals


@dataclass(frozen=True)
class NormalizationReport:
    """Measured total mass of the density, with the far-tail completion."""

    value: float
    body: float
    tail_correction: float
    tail_edge: float


def _log_density(y):
    """log f(y) on an array of points; -inf where f underflows and at
    +-inf."""
    with np.errstate(divide="ignore"):
        return np.log(_standard_pdf((-y - 1.0 - _LOC) / _SCALE)) - np.log(_SCALE)


def landau_normalization() -> NormalizationReport:
    """Integrate the density over the real line.

    The left tail decays like 1/y^2 (the Landau 1/x^2 tail), so beyond
    ``TAIL_EDGE`` the integral is completed analytically with the locally
    matched A/y^2 coefficient; the body is the peaked integral over
    [``TAIL_EDGE``, 8], past which the density is double-exponentially
    small.
    """
    body = math.exp(
        log_integral_peaked(_log_density, TAIL_EDGE, 8.0, _MODE, _WIDTH)
    )
    tail = (TAIL_EDGE * TAIL_EDGE * landau_density(TAIL_EDGE)) / abs(TAIL_EDGE)
    return NormalizationReport(
        value=body + tail, body=body, tail_correction=tail, tail_edge=TAIL_EDGE
    )


def landau_dual_numeric_cumulant(mu):
    """Numeric cumulant of the dual generating measure at mu > 0.

    The dual measure carries total mass e (its cgf at 0 equals 1), so this
    returns 1 + log ∫ exp(mu*y) f(y) dy.  The true density is
    double-exponentially small on the right, so the integral stops at y = 4,
    and exp(mu*y) is below e^-60 left of y = -60/mu.
    """
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("numeric dual cumulant requires mu > 0")
    return 1.0 + log_integral_peaked(
        lambda y: mu * y + _log_density(y), -60.0 / mu, 4.0, _MODE, _WIDTH
    )
