"""Error-path contracts: each semantic exception fires where promised."""

import math

import numpy as np
import pytest

from expldp import (
    DegeneratePosterior,
    OutsideDomain,
    RateUnbounded,
    builtin,
    builtin_model,
    cramer_rate,
    decay_rate_estimate,
    hessian,
    kl_divergence,
    posterior_mass,
    uniform_prior,
)
from expldp.intervals import Interval
from expldp.models import ModelEvent, event_interval

STRIP_MODEL = builtin_model("strip-curve")


def test_hessian_outside_domain():
    with pytest.raises(OutsideDomain):
        hessian(builtin("gauss-parabola"), [0.0, 0.5])


def test_kl_requires_interior_theta0():
    with pytest.raises(OutsideDomain):
        kl_divergence(builtin("gauss-parabola"), [0.0, 0.5], [0.0, -1.0])


def test_cramer_requires_interior_theta0():
    with pytest.raises(OutsideDomain):
        cramer_rate(builtin("landau-dual"), [0.0], [1.0])


def test_degenerate_posterior_when_support_off_domain():
    # below z ~ 5e-6 the curve image rounds onto the closed strip boundary,
    # so a support confined there carries -inf likelihood everywhere
    prior = uniform_prior(STRIP_MODEL, 1e-8, 5e-7)
    with pytest.raises(DegeneratePosterior):
        posterior_mass(prior, [0.3, 0.5], 10, event_interval(0.0, 1.0))


def test_rate_unbounded_when_event_mass_vanishes_exactly():
    prior = uniform_prior(STRIP_MODEL, 1e-7, 1.0)
    dead = ModelEvent((Interval(1e-7, 2e-7),))
    with pytest.raises(RateUnbounded):
        decay_rate_estimate(prior, [0.3, 0.5], dead, (8, 16))


def test_decay_with_converging_data_sequence():
    # deterministic x_n -> mu0 drifting at O(1/n) leaves the limit intact
    prior = uniform_prior(builtin_model("hw-line"), -3.0, 3.0)
    mu0 = np.array([0.3, 0.2])

    def seq(n):
        return mu0 + np.array([0.05 / n, -0.05 / n])

    ev = event_interval(0.5, math.inf)
    drift = decay_rate_estimate(prior, mu0, ev, (256, 512, 1024), sequence=seq)
    fixed = decay_rate_estimate(prior, mu0, ev, (256, 512, 1024))
    np.testing.assert_allclose(drift.rates, fixed.rates, rtol=2e-2)


def test_hessian_positive_definite_across_families(rng):
    for name, lo, hi in (
        ("hardy-weinberg-saturated", [-2, -2], [2, 2]),
        ("gauss-parabola", [-2, -3], [2, -0.2]),
        ("strip-measure", [-1, -0.8], [1, 0.8]),
    ):
        family = builtin(name)
        for _ in range(5):
            theta = rng.uniform(lo, hi)
            eig = np.linalg.eigvalsh(hessian(family, theta))
            assert np.all(eig > 0.0), (name, theta, eig)
