"""The package's binomial and Landau helpers against scipy.stats, bit for
bit.  The helpers call the scipy.special ufuncs behind ``scipy.stats.binom``
and ``scipy.stats.landau``, two of them private names, with scipy.stats's
own arithmetic; a scipy whose stats change their numbers, or that moves a
name, fails here instead of changing a result."""

import math

import numpy as np
import pytest
from scipy.stats import binom, landau

from expldp.landau import _LOC, _SCALE, _log_density, landau_density
from expldp.oracles import _binom_logcdf, _binom_logpmf, _binom_logsf

ROWS = (0, 1, 2, 3, 10, 57, 200, 999, 1837, 2000)
QS = tuple(np.geomspace(1e-3, 0.5, 9).tolist()) + (0.32, 1.0 / 3.0)
HELPERS = [
    (_binom_logpmf, binom.logpmf),
    (_binom_logsf, binom.logsf),
    (_binom_logcdf, binom.logcdf),
]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("helper, ref", HELPERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("r", ROWS)
def test_binomial_rows(helper, ref, r):
    # every k of a row, deep tails included, and two past each support edge,
    # where rv_discrete does not call the ufunc: logsf is 0 below and -inf
    # from r on, logcdf -inf below and 0 from r on, and logpmf -inf off the
    # support; n as an array and as the Python int the MLE tail's marginal
    # passes
    k = np.arange(-2, r + 2)
    for q in QS:
        _same_bits(helper(k, np.full(k.shape, r), q), ref(k, r, q))
        _same_bits(helper(k, r, q), ref(k, r, q))


@pytest.mark.parametrize("helper, ref", HELPERS, ids=lambda f: f.__name__)
def test_binomial_mixed_rows(helper, ref):
    # one call over many rows, as the tail windows make it; empty, too
    rng = np.random.default_rng(7)
    n = rng.integers(0, 2001, 5000)
    k = rng.integers(-2, n + 2)
    for q in QS:
        _same_bits(helper(k, n, q), ref(k, n, q))
    empty = np.array([], dtype=np.int64)
    _same_bits(helper(empty, empty, 0.3), ref(empty, empty, 0.3))


LANDAU_Y = np.concatenate([
    np.linspace(-400.0, 50.0, 45001),
    [-250.0, -60.0, -0.7772, -0.0, 4.0, 8.0],
])


def test_landau_density_array():
    _same_bits(landau_density(LANDAU_Y),
               landau.pdf(-LANDAU_Y - 1.0, loc=_LOC, scale=_SCALE))


def test_landau_log_density_array():
    # -inf, without a warning, right of y = 6.6, where the density underflows
    _same_bits(_log_density(LANDAU_Y),
               landau.logpdf(-LANDAU_Y - 1.0, loc=_LOC, scale=_SCALE))


@pytest.mark.parametrize("y", [-400.0, -250.0, -1.0, 0.123, 3.0, 50.0])
def test_landau_density_scalar(y):
    got = landau_density(y)
    want = float(landau.pdf(-y - 1.0, loc=_LOC, scale=_SCALE))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_landau_limits_at_infinity():
    # scipy.stats gives NaN at +-inf, whose support test admits them; the
    # density's limits are 0 and its log's -inf (a RuntimeWarning is an
    # error in this suite), and NaN stays NaN
    ends = np.array([math.inf, -math.inf])
    assert landau_density(math.inf) == landau_density(-math.inf) == 0.0
    assert type(landau_density(math.inf)) is float
    _same_bits(landau_density(ends), np.zeros(2))
    _same_bits(_log_density(ends), np.full(2, -math.inf))
    assert np.isnan(landau_density(math.nan))
    mixed = np.array([math.inf, 0.123, -math.inf])
    _same_bits(landau_density(mixed)[1], landau_density(0.123))
