import functools
import math

import mpmath
import numpy as np
import pytest

from expldp import (
    ModelEvent,
    builtin_model,
    conjugate_constrained,
    decay_rate_estimate,
    limiting_mle,
    model_names,
    posterior_mass,
    uniform_prior,
)
from expldp import legendre, models
from expldp.intervals import Interval
from expldp.families import cumulant
from expldp.models import (
    event_at_least,
    event_interval,
    fit_rate_limit,
    with_adjoined_origin,
)

MU0 = np.array([0.3, 0.2])
LOG_11_9 = math.log(11.0 / 9.0)


def hw_l(z):
    # closed-form coordinate log-likelihood on the hw line at MU0
    return 0.1 * z - (np.logaddexp(np.logaddexp(math.log(2.0), z), -z) - math.log(4.0))


def validate_model(model, n_grid=64):
    """Grid checks of the model invariants: image inside the essential
    domain, nonvanishing Jacobian on the coordinate interior, injectivity.

    The grid insets by 1e-4 of the span: closer to an open endpoint the
    image can fall on the domain boundary in double precision even though
    it is interior mathematically (e.g. sqrt(1 - z^3) rounds to 1)."""
    for iv in model.coord_intervals:
        lo = iv.lo if math.isfinite(iv.lo) else -4.0
        hi = iv.hi if math.isfinite(iv.hi) else 4.0
        span = hi - lo
        zs = np.linspace(lo + 1e-4 * span, hi - 1e-4 * span, n_grid)
        images = np.array([model.map(z) for z in zs])
        for z, th in zip(zs, images):
            if not math.isfinite(cumulant(model.family, th)):
                raise ValueError(f"{model.name}: eta({z}) leaves the domain")
            if np.linalg.norm(model.jacobian(z)) <= 0.0:
                raise ValueError(f"{model.name}: Jacobian vanishes at {z}")
        diffs = np.linalg.norm(np.diff(images, axis=0), axis=1)
        if np.any(diffs <= 0.0):
            raise ValueError(f"{model.name}: eta is not injective on the grid")


def gauss_mean_eq_sd_mle_coordinate(t):
    """Closed-form constrained MLE coordinate for the mean=sd curve at data
    mean t = (x, y) with y > x^2: (x + sqrt(x^2 + 4y)) / (2y)."""
    x, y = float(t[0]), float(t[1])
    return (x + math.sqrt(x * x + 4.0 * y)) / (2.0 * y)


@pytest.fixture(scope="module")
def hw_prior():
    return uniform_prior(builtin_model("hw-line"), -3.0, 3.0)


class TestModelEvents:
    def test_interior_closure(self):
        ev = event_interval(0.0, 1.0)
        assert ev.interior().intervals[0].lo_closed is False
        assert ev.closure() == ev
        assert ev.contains(0.0) and not ev.interior().contains(0.0)

    def test_nan_is_in_no_interval(self):
        for iv in (Interval(0.0, 1.0), Interval(-math.inf, math.inf),
                   Interval(2.0, 2.0), Interval(0.0, 1.0, False, False)):
            assert not iv.contains(math.nan)
        ev = event_interval(0.0, 1.0)
        assert not ev.contains(math.nan) and not ev.complement().contains(math.nan)

    def test_complement_partitions_line(self):
        ev = event_at_least(0.5)
        comp = ev.complement()
        for z in (-10.0, 0.49999, 0.5, 0.51, 42.0):
            assert ev.contains(z) != comp.contains(z)


class TestBuiltinModels:
    @pytest.mark.parametrize("name", model_names())
    def test_invariants_on_grid(self, name):
        validate_model(builtin_model(name), n_grid=48)

    def test_hw_mle_closed_form_consistency(self, rng, hw_line_mle_coordinate):
        # closed form against the stationarity equation tanh(z/2) = x - y
        for _ in range(25):
            x = rng.uniform(0.05, 0.6)
            y = rng.uniform(0.05, min(0.6, 0.9 - x))
            z = hw_line_mle_coordinate((x, y))
            assert math.tanh(0.5 * z) == pytest.approx(x - y, abs=1e-12)

    def test_gauss_mle_closed_form(self):
        assert gauss_mean_eq_sd_mle_coordinate((1.0, 2.0)) == pytest.approx(1.0)


class TestPrior:
    def test_zero_length_support_rejected(self):
        with pytest.raises(ValueError, match="zero length"):
            uniform_prior(builtin_model("hw-line"), 1.0, 1.0)

    def test_unbounded_support_rejected(self):
        with pytest.raises(ValueError):
            uniform_prior(builtin_model("hw-line"), 0.0, math.inf)

    def test_support_of_overflowing_length_rejected(self):
        # both endpoints are finite, but hi - lo overflows to inf
        with pytest.raises(ValueError, match="finite distance apart"):
            uniform_prior(builtin_model("hw-line"), -1e308, 1e308)

    def test_support_outside_model_closure_rejected(self):
        with pytest.raises(ValueError, match="closure"):
            uniform_prior(builtin_model("strip-curve"), -0.5, 0.5)


class TestPosteriorMass:
    def test_full_event_is_one(self, hw_prior):
        ev = event_interval(-5.0, 5.0)
        assert posterior_mass(hw_prior, MU0, 37, ev) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_half_mass(self, hw_prior):
        ev = ModelEvent((Interval(0.0, math.inf, lo_closed=False),))
        mass = posterior_mass(hw_prior, [0.27, 0.27], 150, ev)
        assert mass == pytest.approx(0.5, abs=1e-9)

    def test_additivity(self, hw_prior):
        ev = event_at_least(0.5)
        m1 = posterior_mass(hw_prior, MU0, 100, ev)
        m2 = posterior_mass(hw_prior, MU0, 100, ev.complement())
        assert m1 + m2 == pytest.approx(1.0, abs=1e-9)

    def test_against_fine_simpson_oracle(self, hw_prior):
        from scipy.integrate import simpson

        n = 100
        z = np.arange(-3.0, 3.0 + 1e-12, 1e-5)
        weights = np.exp(n * (hw_l(z) - hw_l(z).max()))
        oracle = simpson(weights[z >= 0.5], x=z[z >= 0.5]) / simpson(weights, x=z)
        mass = posterior_mass(hw_prior, MU0, n, event_at_least(0.5))
        assert mass == pytest.approx(oracle, rel=1e-6)

    def test_sharp_spike_at_large_n(self, hw_prior):
        # width ~ n^(-1/2) at n = 4096; the adaptive splitting must still
        # resolve the spike (checked against a two-million-point grid)
        n = 4096
        ev = event_interval(LOG_11_9 - 0.05, LOG_11_9 + 0.05)
        mass = posterior_mass(hw_prior, MU0, n, ev)
        z = np.linspace(-3.0, 3.0, 2_000_001)
        weights = np.exp(n * (hw_l(z) - hw_l(z).max()))
        sel = (z >= LOG_11_9 - 0.05) & (z <= LOG_11_9 + 0.05)
        oracle = weights[sel].sum() / weights.sum()
        assert mass == pytest.approx(oracle, rel=1e-4)


def gl_log_integral(l_of, n, edges, order=20):
    """log ∫ exp(n l(z)) dz by composite Gauss-Legendre on ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    vals = n * l_of((mid + half * x).ravel())
    top = vals.max()
    return top + math.log((half * w).ravel() @ np.exp(vals - top))


def hw_l_closed(z):
    # l(eta(z); MU0) = 0.1 z - 2 log cosh(z/2), written without overflow
    a = np.abs(z)
    return 0.1 * z - (a + 2.0 * np.log1p(np.exp(-a)) - 2.0 * math.log(2.0))


def strip_l_closed(z, mu=(0.3, 0.5)):
    # kappa on the strip curve through the Faddeeva function w (see
    # strip_exact in test_families): with a = 1 - t2^2,
    # kappa = t2^2 + t1^2 / (4a) + log(pi Re w(-t1 / (2 sqrt a) + i sqrt a))
    from scipy.special import wofz

    t1, t2 = z, np.sqrt(1.0 - z ** 3)
    root = np.sqrt((1.0 - t2) * (1.0 + t2))
    kappa = (
        t2 * t2 + t1 * t1 / (4.0 * root * root)
        + np.log(np.pi * wofz(-t1 / (2.0 * root) + 1j * root).real)
    )
    return mu[0] * t1 + mu[1] * t2 - kappa


class TestMassAgainstClosedForm:
    """Log posterior masses against composite Gauss-Legendre on 4000
    panels of the closed-form coordinate log-likelihood."""

    @pytest.mark.parametrize("support, event, n", [
        ((-3.0, 3.0), (0.5, 3.0), 64),
        ((-3.0, 3.0), (0.5, 3.0), 65536),
        # misspecified: both integrals peak at their left endpoints
        ((0.5, 3.0), (1.0, 3.0), 4096),
        # the numerator peaks at the event's right endpoint
        ((-3.0, 3.0), (0.0, 0.05), 4096),
    ])
    def test_hw_line(self, support, event, n):
        prior = uniform_prior(builtin_model("hw-line"), *support)
        mass = models.log_posterior_mass(prior, MU0, n, event_interval(*event))
        num = gl_log_integral(hw_l_closed, n, np.linspace(*event, 4001))
        den = gl_log_integral(hw_l_closed, n, np.linspace(*support, 4001))
        assert mass == pytest.approx(num - den, rel=1e-9)

    def test_strip_curve_event_near_the_origin(self):
        # below z = 1e-3 the posterior density is under exp(-10000); the
        # slope of sqrt(1 - z^3) is infinite at z = 1, so the normalizer's
        # panels are also graded geometrically toward 1
        n = 64
        prior = uniform_prior(builtin_model("strip-curve"), 0.0, 1.0)
        mass = models.log_posterior_mass(
            prior, [0.3, 0.5], n, event_interval(0.0, 0.05)
        )
        num = gl_log_integral(strip_l_closed, n, np.linspace(1e-3, 0.05, 2001))
        graded = 1.0 - 2.0 ** -np.arange(1.0, 40.0)
        den_edges = np.union1d(np.linspace(1e-3, 1.0, 2001), graded)
        den = gl_log_integral(strip_l_closed, n, den_edges)
        assert mass == pytest.approx(num - den, rel=1e-9)


@functools.lru_cache(maxsize=None)
def strip_l_mp(z, mu=(0.3, 0.5)):
    """l(eta(z); mu) on the strip curve in mpmath, through the Faddeeva
    function w(zeta) = exp(-zeta^2) erfc(-i zeta) as in ``strip_l_closed``;
    on the curve a = 1 - t2^2 is z^3 exactly.  Cached: every sample size
    takes the same nodes."""
    if z == 0:
        return mpmath.ninf
    t1, t2, a = z, mpmath.sqrt(1 - z ** 3), z ** 3
    root = mpmath.sqrt(a)
    zeta = mpmath.mpc(-t1 / (2 * root), root)
    w = mpmath.exp(-zeta * zeta) * mpmath.erfc(-1j * zeta)
    kappa = t2 * t2 + t1 * t1 / (4 * a) + mpmath.log(mpmath.pi * w.real)
    return mu[0] * t1 + mu[1] * t2 - kappa


class TestStripMassAgainstMpmath:
    """log pi_n((0, 0.12)) on strip-curve against tanh-sinh at 30 digits,
    each integral scaled by its largest value: the event's at its right
    end, the normalizer's at its peak near z = 0.99, where it is also
    split, next to the infinite slope at z = 1."""

    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_wide_event(self, n):
        prior = uniform_prior(builtin_model("strip-curve"), 0.0, 1.0)
        model = prior.model
        mu = np.array([0.3, 0.5])
        l_of = legendre.curve_loglik(model, mu)
        dl_of = legendre.curve_dloglik(model, mu)
        (_, _, peak, _), = models._piece_peaks(l_of, dl_of, prior.support)
        mass = models.log_posterior_mass(
            prior, mu, n,
            ModelEvent((Interval(0.0, 0.12, lo_closed=False, hi_closed=False),)))
        with mpmath.workdps(30):
            end, top = mpmath.mpf("0.12"), mpmath.mpf(peak)
            num = mpmath.quad(
                lambda z: mpmath.exp(n * (strip_l_mp(z) - strip_l_mp(end))),
                [0, end])
            den = mpmath.quad(
                lambda z: mpmath.exp(n * (strip_l_mp(z) - strip_l_mp(top))),
                [0, top, 1])
            exact = float(n * (strip_l_mp(end) - strip_l_mp(top))
                          + mpmath.log(num) - mpmath.log(den))
        assert mass == pytest.approx(exact, rel=1e-10)


class TestDecayRates:
    def test_event_containing_maximizer_has_zero_rate(self, hw_prior):
        ev = event_interval(0.0, 1.0)
        est = decay_rate_estimate(
            hw_prior, MU0, ev, tuple(64 * 2 ** k for k in range(5))
        )
        assert abs(est.extrapolated) <= 5e-3

    def test_monotone_concentration_and_stabilization(self, hw_prior):
        # the log-domain quadrature stays exact far past the float underflow
        # point (log mass ~ -1400 at the largest n here)
        ev = event_at_least(0.5)
        est = decay_rate_estimate(
            hw_prior, MU0, ev, (4096, 8192, 16384, 32768, 65536)
        )
        assert np.all(est.rates > 0.0)
        assert np.all(np.diff(est.rates) < 0.0)
        changes = np.abs(np.diff(est.rates)) / est.rates[1:]
        assert changes[-1] < 0.01
        assert changes[-2] < 0.01

    def test_disjoint_event_reports_infinity(self, hw_prior):
        est = decay_rate_estimate(hw_prior, MU0, event_interval(5.0, 6.0), (8, 16))
        assert est.extrapolated == math.inf
        assert np.all(np.isinf(est.rates))

    def test_schedule_must_increase(self, hw_prior):
        with pytest.raises(ValueError):
            decay_rate_estimate(hw_prior, MU0, event_at_least(0.5), (64, 64))

    def test_schedule_needs_two_sizes(self, hw_prior):
        with pytest.raises(ValueError):
            decay_rate_estimate(hw_prior, MU0, event_at_least(0.5), (64,))

    def test_two_point_schedule_extrapolates(self, hw_prior):
        # r_n = r_inf + c/n through both points: r_inf = 2 r_128 - r_64,
        # closer to the event infimum 0.02188 than r_128 = 0.03668
        est = decay_rate_estimate(hw_prior, MU0, event_at_least(0.5), (64, 128))
        assert est.extrapolated == pytest.approx(
            2.0 * est.rates[1] - est.rates[0], abs=1e-12
        )
        assert est.extrapolated < est.rates[1] - 0.01

    @pytest.mark.parametrize("ns", [
        [100, 200], [100, 200, 400], [100, 200, 400, 800, 1600],
    ])
    def test_fit_rate_limit_exact_on_model(self, ns):
        ns = np.array(ns)
        rates = 0.25 + 3.0 / ns
        assert fit_rate_limit(ns, rates) == pytest.approx(0.25, abs=1e-12)

    def test_fit_rate_limit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_rate_limit([64], [0.05])

    @pytest.mark.parametrize("schedule", [(0, 64), (-64, 64), (64.7, 128)])
    def test_schedule_needs_whole_sizes_from_one(self, hw_prior, schedule):
        with pytest.raises(ValueError, match="whole number >= 1"):
            decay_rate_estimate(hw_prior, MU0, event_at_least(0.5), schedule)

    @pytest.mark.parametrize("n", [0, -5, 64.7, math.nan])
    def test_mass_needs_whole_size_from_one(self, hw_prior, n):
        with pytest.raises(ValueError, match="whole number >= 1"):
            models.log_posterior_mass(hw_prior, MU0, n, event_at_least(0.5))


HW_SCHEDULE = tuple(64 * 2 ** k for k in range(7))


def drifting(n):
    # a data sequence whose sample mean differs at every n
    return MU0 + np.array([0.05 / n, -0.05 / n])


class TestSharedPeaks:
    """A decay schedule finds each integrand's peak once per distinct
    sample mean, and its rates are exactly the one-n masses'."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = models.legendre.scan_window

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(models.legendre, "scan_window", counted)
        return calls

    def test_constant_sequence_scans_each_piece_once(self, hw_prior, scans):
        decay_rate_estimate(hw_prior, MU0, event_at_least(0.5), HW_SCHEDULE)
        # one scan of the support and one of the event inside it
        assert len(scans) == 2

    def test_drifting_sequence_scans_each_piece_per_n(self, hw_prior, scans):
        decay_rate_estimate(
            hw_prior, MU0, event_at_least(0.5), HW_SCHEDULE, sequence=drifting
        )
        assert len(scans) == 2 * len(HW_SCHEDULE)

    def test_constant_sequence_equals_one_n_masses(self, hw_prior):
        event = event_at_least(0.5)
        est = decay_rate_estimate(hw_prior, MU0, event, HW_SCHEDULE)
        expected = [
            -models.log_posterior_mass(hw_prior, MU0, n, event) / n
            for n in HW_SCHEDULE
        ]
        assert est.rates.tolist() == expected

    def test_drifting_sequence_equals_one_n_masses(self, hw_prior):
        event = event_interval(0.5, 2.0)
        est = decay_rate_estimate(
            hw_prior, MU0, event, HW_SCHEDULE, sequence=drifting
        )
        expected = [
            -models.log_posterior_mass(hw_prior, drifting(n), n, event) / n
            for n in HW_SCHEDULE
        ]
        assert est.rates.tolist() == expected


class TestLimitingMle:
    def test_hw_example(self, hw_prior):
        mle = limiting_mle(hw_prior, MU0)
        np.testing.assert_allclose(
            mle.theta_nu, [LOG_11_9, -LOG_11_9], atol=1e-9
        )
        assert not mle.boundary_flag
        assert mle.continuity_report["condition_b"]["holds"]

    def test_misspecified_support_endpoint(self):
        prior = uniform_prior(builtin_model("hw-line"), 0.5, 3.0)
        mle = limiting_mle(prior, MU0)
        assert mle.coordinate == pytest.approx(0.5, abs=1e-12)
        # grid oracle: the closed-form l is decreasing beyond log(11/9)
        zs = np.linspace(0.5, 3.0, 20001)
        vals = hw_l(zs)
        assert mle.value == pytest.approx(vals.max(), abs=1e-4)

    def test_strip_open_origin_passes_conditions(self):
        prior = uniform_prior(builtin_model("strip-curve"), 0.0, 1.0)
        mle = limiting_mle(prior, np.array([0.3, 0.5]))
        assert not mle.boundary_flag
        assert mle.continuity_report["condition_b"]["holds"]
        assert mle.continuity_report["condition_c"]["holds"]
        assert mle.continuity_report["condition_c"]["boundary_points"] == []

    def test_strip_adjoined_origin_fails_condition_c(self):
        model = with_adjoined_origin(builtin_model("strip-curve"))
        prior = uniform_prior(model, 0.0, 1.0)
        mle = limiting_mle(prior, np.array([0.3, 0.5]))
        report = mle.continuity_report["condition_c"]
        assert not report["holds"]
        (check,) = report["boundary_points"]
        assert check["coordinate"] == 0.0
        seq = check["kappa_sequence"]
        assert seq[-1] > 10.0 > check["kappa_at_point"]
        assert seq[-1] > seq[0]

    def test_strip_adjoined_origin_boundary_maximizer_fails_condition_b(self):
        # kappa along the curve blows up as z -> 0+ but is finite at the
        # adjoined boundary point eta(0) = (0, 1), so on [0, 0.05] the
        # maximum of l sits there, at a discontinuity of kappa
        model = with_adjoined_origin(builtin_model("strip-curve"))
        prior = uniform_prior(model, 0.0, 0.05)
        mle = limiting_mle(prior, np.array([0.3, 0.5]))
        assert mle.coordinate == 0.0
        assert mle.boundary_flag
        cond_b = mle.continuity_report["condition_b"]
        assert cond_b["mode"] == "boundary-maximizer"
        assert not cond_b["holds"]
        check = cond_b["check"]
        seq = check["kappa_sequence"]
        assert check["kappa_at_point"] < 3.0 < 10.0 < seq[0] < seq[-1]

    def test_continuous_boundary_curve_passes_condition_c(self):
        # replacing the curve by theta2 = 1 - theta1 removes the pathology:
        # kappa stays continuous up to the boundary point
        import dataclasses

        base = builtin_model("strip-curve")
        line = dataclasses.replace(
            base,
            name="strip-line",
            map=lambda z: np.array([z, 1.0 - z]),
            jacobian=lambda z: np.array([1.0, -1.0]),
            coord_intervals=(Interval(0.0, 1.0),),
        )
        prior = uniform_prior(line, 0.0, 1.0)
        mle = limiting_mle(prior, np.array([0.3, 0.5]))
        report = mle.continuity_report["condition_c"]
        assert report["holds"]
        (check,) = report["boundary_points"]
        assert check["is_continuity_point"]


class TestNarrowSupport:
    # [1, 1 + 1e-13] is narrower than twice the scan inset 1e-12 * max(1, |z|):
    # the inset has to shrink with the width, or the scan window turns over
    @pytest.fixture
    def narrow(self):
        return uniform_prior(builtin_model("hw-line"), 1.0, 1.0 + 1e-13)

    def test_limiting_mle_at_the_lower_end(self, narrow):
        # l(.; MU0) decreases past log(11/9), so the MLE is the left end
        mle = limiting_mle(narrow, MU0)
        assert mle.coordinate == 1.0
        assert mle.value == pytest.approx(hw_l(1.0), abs=1e-15)

    def test_decay_rates_are_finite(self, narrow):
        event = ModelEvent((Interval(1.0 + 5e-14, 1.0 + 1e-13),))
        est = decay_rate_estimate(narrow, MU0, event, (100, 200, 400))
        assert np.all(np.isfinite(est.rates)) and math.isfinite(est.extrapolated)

    def test_constrained_conjugate(self, narrow):
        model = narrow.model
        res = conjugate_constrained(model, MU0, narrow.support)
        assert res.converged and res.coordinate == 1.0
