import numpy as np
import pytest

from expldp import quadrature
from expldp.errors import NumericsError, QuadratureFailure
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


class TestQk21Table:
    def test_exact_for_polynomials_up_to_degree_31(self):
        nodes, weights = quadrature.QK21_NODES, quadrature.QK21_WEIGHTS
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert weights @ nodes ** k == pytest.approx(exact, abs=1e-15)
        # one degree further the rule is no longer exact
        assert abs(weights @ nodes ** 32 - 2.0 / 33) > 1e-13

    def test_embedded_gauss_rule_is_leggauss_10(self):
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
        embedded = quadrature.QK21_GAUSS_WEIGHTS != 0.0
        np.testing.assert_allclose(
            quadrature.QK21_NODES[embedded], gauss_x, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            quadrature.QK21_GAUSS_WEIGHTS[embedded], gauss_w, rtol=0, atol=1e-15
        )
        assert np.all(np.diff(quadrature.QK21_NODES) > 0.0)


class TestLogIntegralPeaked:
    def test_gaussian_spike_and_batched_calls(self):
        calls = []
        sigma = 1e-4

        def logf(x):
            calls.append(np.shape(x))
            return -0.5 * ((x - 0.3) / sigma) ** 2

        val = quadrature.log_integral_peaked(logf, -3.0, 3.0, 0.3, sigma)
        assert val == pytest.approx(np.log(np.sqrt(2.0 * np.pi) * sigma), rel=1e-12)
        # the peak value, then one array call per round
        assert calls[0] == (1,)
        assert all(len(shape) == 1 and shape[0] % 21 == 0 for shape in calls[1:])

    def test_endpoint_peak_and_sqrt_singularity(self):
        # ∫_0^1 sqrt(x) e^{-x} dx = gamma(3/2) P(3/2, 1)
        from scipy.special import gamma, gammainc

        exact = gamma(1.5) * gammainc(1.5, 1.0)

        def logf(x):
            with np.errstate(divide="ignore"):
                return 0.5 * np.log(x) - x

        val = quadrature.log_integral_peaked(logf, 0.0, 1.0, 0.5, 0.5)
        assert val == pytest.approx(np.log(exact), rel=1e-9)

    def test_minus_infinity_regions_integrate_to_zero(self):
        def logf(x):
            return np.where(x < 0.0, -np.inf, -x)

        val = quadrature.log_integral_peaked(logf, -1.0, 1.0, 0.0, 0.1)
        # the jump at 0 is a panel edge, so the rule sees a smooth piece
        assert val == pytest.approx(np.log(1.0 - np.exp(-1.0)), rel=1e-12)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-20)
        with pytest.raises(QuadratureFailure):
            quadrature.log_integral_peaked(lambda x: -x * x, -5.0, 5.0, 0.0, 1.0)

    def test_panel_cap_raises_instead_of_returning(self, monkeypatch):
        # a kink away from every breakpoint needs many bisections
        def logf(x):
            return -np.abs(x - 0.123456789)

        with monkeypatch.context() as capped:
            capped.setattr(quadrature, "QUAD_LIMIT", 10)
            with pytest.raises(QuadratureFailure):
                quadrature.log_integral_peaked(logf, -1.0, 1.0, 0.9, 0.01)
        val = quadrature.log_integral_peaked(logf, -1.0, 1.0, 0.9, 0.01)
        exact = 2.0 - np.exp(-1.123456789) - np.exp(-0.876543211)
        assert val == pytest.approx(np.log(exact), rel=1e-9)

    def test_nan_log_integrand_is_an_error(self):
        with pytest.raises(NumericsError):
            quadrature.log_integral_peaked(
                lambda x: np.where(x > 0.5, np.nan, -x * x), -1.0, 1.0, 0.0, 0.2
            )


def test_locate_peak_restarts_newton_before_the_grid(monkeypatch):
    fallbacks = []
    original = quadrature.minimize_scalar

    def recording(*args, **kwargs):
        fallbacks.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "minimize_scalar", recording)

    # -log(1 + x^2) is convex beyond |x| = 1, so Newton from 5 stops at once
    def f(x):
        return -np.log1p(np.asarray(x, dtype=float) ** 2)

    def df(x):
        return -2.0 * x / (1.0 + x * x)

    def d2f(x):
        return -2.0 * (1.0 - x * x) / (1.0 + x * x) ** 2

    assert locate_peak(f, df, d2f, 5.0, restarts=(0.5,)) == pytest.approx(0.0, abs=1e-12)
    assert fallbacks == []
    assert locate_peak(f, df, d2f, 5.0) == pytest.approx(0.0, abs=1e-9)
    assert fallbacks == [1]
