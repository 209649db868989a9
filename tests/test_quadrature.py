import numpy as np
import pytest

from expldp import quadrature
from expldp.quadrature import locate_peak


def test_locate_peak_fallback_evaluates_each_point_once(monkeypatch):
    results = []
    original = quadrature.minimize_scalar

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(quadrature, "minimize_scalar", recording)
    calls = []

    def f(x):
        calls.append(np.ndim(x))
        return -(np.asarray(x, dtype=float) - 3.0) ** 2

    # a nonnegative curvature stops Newton at once, so the grid search runs:
    # [-1, 1] has its maximum at the edge, [-4, 4] brackets the peak
    x = locate_peak(f, lambda x: 0.0, lambda x: 1.0, 0.0)
    assert x == pytest.approx(3.0, abs=1e-9)
    assert len(results) == 1
    assert calls.count(1) == 2
    assert calls.count(0) == results[0].nfev
