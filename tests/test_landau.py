import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import expldp
from expldp import landau_density, landau_dual_numeric_cumulant, landau_normalization
from expldp.landau import TAIL_EDGE


def branch_cut_density(y):
    """Independent representation: deforming the inversion contour around
    the negative axis gives an absolutely convergent non-oscillatory form
    (numerically usable for y <= ~1.5 before cancellation sets in)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v, _ = quad(
            lambda t: math.exp(-t * math.log(t) + t * (1 + y)) * math.sin(math.pi * t)
            if t > 0 else 0.0,
            0.0, 60.0, limit=500, epsabs=1e-13, epsrel=1e-12,
        )
    return v / math.pi


def inversion_density(y):
    """The paper's inversion formula, integrated by mpmath at 20 digits.

    The envelope exp(-pi v/2) is below 1e-40 past v = 64, so the range
    stops there; the breakpoints keep each piece a few oscillations long.
    """
    with mpmath.workdps(20):
        y = mpmath.mpf(y)

        def integrand(v):
            return mpmath.exp(-mpmath.pi * v / 2) * mpmath.cos(
                v * mpmath.log(v) - v * (1 + y)
            )

        value = mpmath.quad(integrand, [0, 1, 2, 4, 8, 16, 32, 64])
        return float(value / mpmath.pi)


@pytest.mark.parametrize("y", [-6.0, -2.0, -0.7772, 0.0, 0.8, 1.5])
def test_density_matches_independent_representation(y):
    assert landau_density(y) == pytest.approx(branch_cut_density(y), abs=1e-6)


@pytest.mark.parametrize("y", [-6.0, -2.0, -0.7772, 0.0, 1.5, 3.0])
def test_density_matches_inversion_formula(y):
    assert landau_density(y) == pytest.approx(inversion_density(y), abs=1e-12)


def test_density_accepts_arrays():
    ys = np.array([-6.0, -0.7772, 1.5])
    np.testing.assert_array_equal(
        landau_density(ys), [landau_density(float(y)) for y in ys]
    )


def test_density_peak_location_and_height():
    # the underlying unit law peaks near -0.2228 at about 0.18066, which the
    # shifted negation places near y = -0.777
    peak = landau_density(-0.7772)
    assert peak == pytest.approx(0.180656, abs=1e-4)
    assert peak > landau_density(-1.5)
    assert peak > landau_density(0.0)


def test_density_nonnegative_on_grid():
    ys = np.linspace(-10.0, 50.0, 121)
    vals = [landau_density(float(y)) for y in ys]
    assert min(vals) >= -1e-6


def test_left_tail_inverse_square():
    for y in (-100.0, -400.0):
        assert y * y * landau_density(y) == pytest.approx(1.0, rel=0.12)


def test_normalization_within_tolerance():
    report = landau_normalization()
    assert report.value == pytest.approx(1.0, abs=1e-3)
    assert report.tail_correction > 0.0


def test_numeric_cumulant_matches_closed_form():
    for mu in (0.5, 1.0, 2.0):
        measured = landau_dual_numeric_cumulant(mu)
        assert measured == pytest.approx(
            mu * math.log(mu) - mu + 1.0, abs=1e-3
        )


def test_normalization_body_matches_quadpack():
    # an independent adaptive rule on the same range, broken at the mode and
    # on either side of it; epsrel 1e-13 stays clear of its roundoff warning
    want, _ = quad(landau_density, TAIL_EDGE, 8.0,
                   points=(-20.0, -5.0, -0.7772, 3.0),
                   epsabs=0.0, epsrel=1e-13, limit=200)
    assert landau_normalization().body == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("mu", [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
def test_numeric_cumulant_to_rounding(mu):
    want = mu * math.log(mu) - mu + 1.0
    measured = landau_dual_numeric_cumulant(mu)
    assert measured == pytest.approx(want, rel=0.0, abs=1e-12)


def test_numeric_cumulant_vanishes_at_one():
    assert landau_dual_numeric_cumulant(1.0) == pytest.approx(0.0, abs=1e-3)


def test_cumulant_requires_positive_argument():
    with pytest.raises(ValueError):
        landau_dual_numeric_cumulant(0.0)


def test_deterministic_for_fixed_policy():
    assert landau_density(0.123) == landau_density(0.123)


IMPORT_FOOTPRINT = """
import sys

def scipy_modules():
    # scipy and its subpackages, without their submodules
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m.split(".")[0] == "scipy"})

import expldp
assert scipy_modules() == [], scipy_modules()
from expldp import (builtin, builtin_model, conjugate, limiting_mle,
                    posterior_rate, uniform_prior)
prior = uniform_prior(builtin_model("hw-line"), -3.0, 3.0)
posterior_rate(prior, [0.3, 0.2], [-1.0, 0.0, 1.0])
limiting_mle(prior, [0.3, 0.2])
conjugate(builtin("poisson"), [2.0])
assert scipy_modules() == [], scipy_modules()
builtin("strip-measure")
loaded = scipy_modules()
assert "scipy.special" in loaded, loaded
assert "scipy.optimize" not in loaded and "scipy.stats" not in loaded, loaded
from expldp import (TrinomialSpec, landau_density, landau_dual_numeric_cumulant,
                    landau_normalization, multinomial_mle_tail)
from expldp.models import event_at_least
multinomial_mle_tail(TrinomialSpec.from_theta0(50, [0.0, 0.0], event_at_least(0.5)))
landau_density(0.5)
landau_normalization()
landau_dual_numeric_cumulant(0.5)
assert scipy_modules() == loaded, scipy_modules()
"""


def test_import_does_not_load_scipy_stats():
    # scipy is imported by the features that use it, never by the package:
    # scipy.special with the strip family, the first Landau evaluation or
    # MLE tail, and scipy.optimize and scipy.stats by nothing.  Loading
    # scipy.optimize and scipy.special with the package took about 0.5 s
    # and 50 MB of every import, and scipy.stats about 0.5 s and 45 MB more
    env = dict(os.environ, PYTHONPATH=str(Path(expldp.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], env=env, check=True)
