import mpmath
import numpy as np
import pytest
from scipy.special import erf

from expldp import builtin_model, legendre, models, quadrature
from expldp.errors import NumericsError, QuadratureFailure
from expldp.intervals import Interval
from expldp.quadrature import locate_peak


def test_locate_peak_fallback_evaluates_each_point_once(monkeypatch):
    results = []
    original = quadrature._bounded_brent

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(quadrature, "_bounded_brent", recording)
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
    assert calls.count(0) == results[0][3]


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

    @pytest.mark.parametrize("case", ["sqrt(x) e^-x", "x^-1/2 (1-x)^1/2"])
    def test_endpoint_peak_and_sqrt_singularity(self, case):
        # a square-root factor at either window end: the end panels take
        # the rule on z = end -+ s^2, where both integrands are smooth
        logs = {
            "sqrt(x) e^-x": (lambda x: 0.5 * np.log(x) - x,
                             lambda x: mpmath.sqrt(x) * mpmath.exp(-x)),
            "x^-1/2 (1-x)^1/2": (lambda x: 0.5 * (np.log1p(-x) - np.log(x)),
                                 lambda x: mpmath.sqrt((1 - x) / x)),
        }
        logf, density = logs[case]
        with mpmath.workdps(30):
            exact = float(mpmath.log(mpmath.quad(density, [0, 1])))
        val, rounds = _rounds(logf, 0.0, 1.0, 0.5, 0.5)
        assert val == pytest.approx(exact, rel=1e-12)
        assert rounds <= 2

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


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _alone(logf, *jobs):
    """Each job of a stack run alone, as a stack of one."""
    return [quadrature.log_integral_peaked(logf, *job) for job in zip(*jobs)]


def _rounds(logf, *job):
    """A job's log integral and the number of its rounds: the ``logf``
    calls after the one that takes its peak value."""
    calls = []
    val = quadrature.log_integral_peaked(
        lambda x: calls.append(x.size) or logf(x), *job)
    return val, len(calls) - 1


def _schedule_jobs(name, mu0, pieces, ns):
    """The jobs of a decay schedule on model ``name``: every piece of the
    normalizer and of the event at every sample size, as ``models`` builds
    them."""
    model = builtin_model(name)
    mu0 = np.array(mu0)
    l_of = legendre.curve_loglik(model, mu0)
    dl_of = legendre.curve_dloglik(model, mu0)
    peaks = models._piece_peaks(l_of, dl_of, pieces)
    jobs = [(a, b, peak, 1.0 / np.sqrt(max(n * curv, (2.0 / (b - a)) ** 2)), n)
            for n in ns for a, b, peak, curv in peaks]
    return l_of, np.array(jobs).T


def _hw_schedule_jobs():
    return _schedule_jobs("hw-line", [0.3, 0.2],
                          (Interval(-3.0, 3.0), Interval(0.5, 3.0)),
                          (64, 128, 256, 512, 1024, 2048, 4096))


def _strip_schedule_jobs(ns=(16, 64, 128, 1024)):
    # the normalizer on (0, 1] peaks near z = 1, where sqrt(1 - z^3) has
    # an infinite slope; the event (0, 0.05) peaks at its right end
    return _schedule_jobs("strip-curve", [0.3, 0.5],
                          (Interval(0.0, 1.0, lo_closed=False),
                           Interval(0.0, 0.05, lo_closed=False, hi_closed=False)),
                          ns)


class TestStackedJobs:
    def test_hw_schedule_equals_each_job_alone(self):
        l_of, jobs = _hw_schedule_jobs()
        stacked = quadrature.log_integral_peaked(l_of, *jobs)
        assert stacked.shape == (14,)
        assert np.all(np.isfinite(stacked))
        _same_bits(stacked, _alone(l_of, *jobs))

    def test_strip_schedule_with_end_panels_equals_each_job_alone(self):
        l_of, jobs = _strip_schedule_jobs()
        stacked = quadrature.log_integral_peaked(l_of, *jobs)
        assert stacked.shape == (8,)
        assert np.all(np.isfinite(stacked))
        _same_bits(stacked, _alone(l_of, *jobs))

    def test_strip_normalizer_is_not_bisected_toward_its_end(self):
        # bisecting toward z = 1 took 12 rounds of plain panels at n = 128
        l_of, jobs = _strip_schedule_jobs(ns=(128,))
        val, rounds = _rounds(l_of, *jobs[:, 0])
        assert np.isfinite(val)
        assert rounds <= 3

    def test_gaussians_of_different_widths(self):
        # exp(-x^2 / (2 sigma^2)) is exp(scale * logf) with logf = -x^2 / 2
        # and scale = sigma^-2; the windows put the peak inside, off
        # centre, and at an end
        sigma = np.array([1e-4, 3e-3, 0.05, 0.7, 2.0, 1e-2])
        a = np.array([-3.0, -1.0, -0.2, -5.0, -1.0, 0.0])
        b = np.array([3.0, 0.5, 2.0, 5.0, 9.0, 1.0])

        def logf(x):
            return -0.5 * x * x

        stacked = quadrature.log_integral_peaked(
            logf, a, b, 0.0, sigma, sigma ** -2.0)
        _same_bits(stacked, _alone(logf, a, b, np.zeros(6), sigma, sigma ** -2.0))
        exact = np.log(np.sqrt(np.pi / 2.0) * sigma * (
            erf(b / (np.sqrt(2.0) * sigma)) - erf(a / (np.sqrt(2.0) * sigma))))
        np.testing.assert_allclose(stacked, exact, rtol=1e-12)

    def test_scalars_give_a_float_and_arrays_their_shape(self):
        def logf(x):
            return -np.abs(x)

        one = quadrature.log_integral_peaked(logf, -1.0, 1.0, 0.0, 0.1)
        assert type(one) is float
        grid = quadrature.log_integral_peaked(
            logf, -1.0, np.array([[1.0, 2.0], [3.0, 4.0]]), 0.0, 0.1)
        assert grid.shape == (2, 2)
        assert grid[0, 0] == one
        assert quadrature.log_integral_peaked(logf, [], [], [], []).shape == (0,)

    def test_one_call_per_round_of_the_slowest_job(self):
        l_of, jobs = _hw_schedule_jobs()
        alone = []
        for job in zip(*jobs):
            calls = []
            quadrature.log_integral_peaked(
                lambda x: calls.append(x.size) or l_of(x), *job)
            alone.append(len(calls))
        calls = []
        quadrature.log_integral_peaked(
            lambda x: calls.append(x.size) or l_of(x), *jobs)
        # the peaks of every job in one call, then one call per round
        assert calls[0] == 14
        assert len(calls) == max(alone) < sum(alone)

    def test_panel_cap_names_the_job_that_hit_it(self, monkeypatch):
        # the kink needs many bisections; the other job converges at once
        def logf(x):
            return -np.abs(x - 0.123456789)

        monkeypatch.setattr(quadrature, "QUAD_LIMIT", 10)
        with pytest.raises(QuadratureFailure, match=r"window \[-1\.5, 1\.25\]"):
            quadrature.log_integral_peaked(
                logf, [2.0, -1.5], [3.0, 1.25], [2.5, 0.9], [0.1, 0.01])

    def test_minus_infinity_peak_leaves_the_other_jobs_running(self):
        def logf(x):
            return np.where(x < 0.0, -np.inf, -x)

        a, b, peak, width = [-2.0, 0.0, -1.0], [-1.0, 1.0, 2.0], [-1.5, 0.5, 1.0], 0.1
        stacked = quadrature.log_integral_peaked(logf, a, b, peak, width)
        assert stacked[0] == -np.inf
        assert stacked[1] == pytest.approx(np.log(1.0 - np.exp(-1.0)), rel=1e-12)
        assert stacked[2] == pytest.approx(np.log(1.0 - np.exp(-2.0)), rel=1e-12)
        _same_bits(stacked, _alone(logf, a, b, peak, np.full(3, width)))

    @pytest.mark.parametrize("peak", [4.5, 5.5])
    def test_nan_in_any_job_is_an_error(self, peak):
        # NaN right of 5 reaches the second job's nodes, or its peak value
        def logf(x):
            return np.where(x > 5.0, np.nan, -x * x)

        with pytest.raises(NumericsError):
            quadrature.log_integral_peaked(
                logf, [-1.0, 4.0], [1.0, 6.0], [0.0, peak], [0.2, 0.2])


def test_locate_peak_restarts_newton_before_the_grid(monkeypatch):
    fallbacks = []
    original = quadrature._bounded_brent

    def recording(*args, **kwargs):
        fallbacks.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_bounded_brent", recording)

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
