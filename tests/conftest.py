import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from expldp.oracles import _event_mask, _mle_coordinates


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _enumerate_outcomes(spec):
    """Test-only reference: log P of the event by full enumeration of the
    (n+1)(n+2)/2 count triples, and that count.

    The log pmf is laid out one row per n0 = m: with r = n - m, the row over
    n1 = 0..r is a[n1] + b[r - n1] + c[m], where a, b and c carry the
    factorial and probability terms of n1, n2 and n0, and c also log n!.
    Its count differences d = 2 n1 - r step by 2, so the row's event mask
    is a strided slice of the mask over d."""
    n = spec.n
    log_p0, log_p1, log_p2 = (math.log(p) for p in spec.probabilities)
    k = np.arange(n + 1, dtype=float)
    log_fact = gammaln(k + 1.0)
    a = k * log_p1 - log_fact
    b = k * log_p2 - log_fact
    c = log_fact[n] + k * log_p0 - log_fact
    d_mask = _event_mask(spec.event, _mle_coordinates(n))
    outcomes = (n + 1) * (n + 2) // 2
    log_pmf = np.empty(outcomes)
    mask = np.empty(outcomes, dtype=bool)
    start = 0
    for m in range(n + 1):
        r = n - m
        log_pmf[start:start + r + 1] = a[:r + 1] + b[r::-1] + c[m]
        mask[start:start + r + 1] = d_mask[n - r:n + r + 1:2]
        start += r + 1
    assert abs(logsumexp(log_pmf)) <= 1e-11
    log_p = float(logsumexp(log_pmf[mask])) if mask.any() else -math.inf
    return log_p, outcomes


@pytest.fixture(scope="session")
def enumerate_outcomes():
    return _enumerate_outcomes


def _hw_line_mle_coordinate(t):
    """Test-only reference: the closed-form constrained MLE coordinate on
    the hw-line for data mean t = (x, y), log(1+x-y) - log(1-x+y); infinite
    at the two degenerate corners."""
    x, y = float(t[0]), float(t[1])
    a = 1.0 + x - y
    b = 1.0 - x + y
    if a <= 0.0:
        return -math.inf
    if b <= 0.0:
        return math.inf
    return math.log(a) - math.log(b)


@pytest.fixture(scope="session")
def hw_line_mle_coordinate():
    return _hw_line_mle_coordinate
