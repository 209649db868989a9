import math

import numpy as np
import pytest

from expldp import (
    ConstraintSet,
    builtin,
    builtin_model,
    conjugate,
    contraction_rate,
    cramer_rate,
    curved_line_min_oracle,
    dual_rate_gap,
    kl_divergence,
    mean_map,
    poisson_landau_pair,
    posterior_rate,
    pythagorean_residual,
    uniform_prior,
)
from expldp import families, legendre, rates
from expldp.errors import UnsupportedModel
from expldp.rates import constant_mle_line, constant_mle_stationary_points

HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_PARABOLA = builtin("gauss-parabola")
HW_LINE_MODEL = builtin_model("hw-line")
GAUSS_MODEL = builtin_model("gauss-mean-eq-sd")
MU0 = np.array([0.3, 0.2])
LOG_11_9 = math.log(11.0 / 9.0)


class TestKlDivergence:
    def test_zero_at_equal_parameters(self):
        assert kl_divergence(POISSON, [0.7], [0.7]) == 0.0

    def test_poisson_closed_form(self):
        # (theta0 - theta) e^theta0 - e^theta0 + e^theta
        assert kl_divergence(POISSON, [math.log(2.0)], [0.0]) == pytest.approx(
            2 * math.log(2.0) - 1.0, abs=1e-14
        )

    def test_infinite_off_domain(self):
        strip = builtin("strip-measure")
        assert kl_divergence(strip, [0.0, 0.0], [0.0, 1.5]) == math.inf

    def test_nonnegative_with_unique_zero(self, rng):
        for _ in range(30):
            th0 = rng.uniform(-2.0, 2.0, size=2)
            th = rng.uniform(-2.0, 2.0, size=2)
            val = kl_divergence(HW, th0, th)
            assert val >= -1e-12
            if np.max(np.abs(th - th0)) > 1e-6:
                assert val > 0.0


class TestPosteriorRate:
    def test_hw_rate_at_zero_vs_binomial_kl(self):
        prior = uniform_prior(HW_LINE_MODEL, -3.0, 3.0)
        table = posterior_rate(prior, MU0, np.array([0.0]))
        p0 = 0.55
        kl_binom = 2 * (
            p0 * math.log(p0 / 0.5) + (1 - p0) * math.log((1 - p0) / 0.5)
        )
        assert table.rates[0] == pytest.approx(kl_binom, abs=1e-8)

    def test_vanishes_at_constrained_maximizer(self):
        prior = uniform_prior(HW_LINE_MODEL, -3.0, 3.0)
        table = posterior_rate(prior, MU0, np.array([LOG_11_9]))
        assert abs(table.rates[0]) <= 1e-12

    def test_misspecified_rate_value(self):
        prior = uniform_prior(HW_LINE_MODEL, 0.5, 3.0)
        table = posterior_rate(prior, MU0, np.array([1.0]))

        def ell(z):
            return 0.1 * z - (
                np.logaddexp(np.logaddexp(math.log(2.0), z), -z) - math.log(4.0)
            )

        assert table.rates[0] == pytest.approx(ell(0.5) - ell(1.0), abs=1e-10)

    def test_nonnegative_with_single_zero_neighborhood(self):
        prior = uniform_prior(HW_LINE_MODEL, -3.0, 3.0)
        grid = np.linspace(-1.0, 1.0, 81)
        table = posterior_rate(prior, MU0, grid)
        assert np.all(table.rates >= -1e-12)
        near_zero = np.flatnonzero(table.rates < 1e-4)
        assert near_zero.size in (1, 2)
        assert np.all(np.diff(near_zero) == 1)

    @pytest.mark.parametrize("model, support, mu0, grid", [
        (HW_LINE_MODEL, (-1.0, 1.0), MU0, [-3.0, -1.5, 1.5, 3.0]),
        # z = -1 lies outside the model's coordinate set (0, inf)
        (GAUSS_MODEL, (0.5, 3.0), [1.0, 3.0], [-1.0, 0.25, 3.5]),
    ])
    def test_infinite_off_the_support(self, model, support, mu0, grid):
        # the posterior puts no mass off the support at any n; the support's
        # closed lower end and the point 1.0 on it stay finite
        prior = uniform_prior(model, *support)
        table = posterior_rate(prior, mu0, np.array(grid + [support[0], 1.0]))
        assert np.all(table.rates[:-2] == math.inf)
        assert np.all(np.isfinite(table.rates[-2:]))

    def test_nan_grid_point_is_named(self):
        prior = uniform_prior(HW_LINE_MODEL, -3.0, 3.0)
        grid = np.array([0.0, 0.5, math.nan, 1.0, math.nan])
        with pytest.raises(ValueError, match="grid point 2 is NaN"):
            posterior_rate(prior, MU0, grid)

    def test_metadata_carries_maximizers(self):
        prior = uniform_prior(HW_LINE_MODEL, -3.0, 3.0)
        table = posterior_rate(prior, MU0, np.array([0.0, 0.5]))
        assert table.metadata["kind"] == "posterior"
        np.testing.assert_allclose(
            table.metadata["theta_nu"], [LOG_11_9, -LOG_11_9], atol=1e-9
        )
        np.testing.assert_allclose(
            table.metadata["theta_0"], [math.log(1.2), math.log(0.8)], atol=1e-9
        )


class TestCramerRate:
    def test_zero_at_the_model_mean(self):
        th0 = np.array([0.4, -0.3])
        t = mean_map(HW, th0)
        assert cramer_rate(HW, th0, t) == pytest.approx(0.0, abs=1e-12)

    def test_poisson_closed_form(self):
        assert cramer_rate(POISSON, [0.0], [2.0]) == pytest.approx(
            2 * math.log(2.0) - 1.0, abs=1e-10
        )

    def test_hw_value(self):
        assert cramer_rate(HW, [0.0, 0.0], [0.3, 0.2]) == pytest.approx(
            0.3 * math.log(1.2) + 0.2 * math.log(0.8), abs=1e-10
        )

    def test_equals_kl_at_the_conjugate_argmax(self, rng):
        for _ in range(15):
            th0 = rng.uniform(-1.5, 1.5, size=2)
            t = mean_map(HW, rng.uniform(-1.5, 1.5, size=2))
            lhs = cramer_rate(HW, th0, t)
            rhs = kl_divergence(HW, conjugate(HW, t).argmax, th0)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestContractionRate:
    def test_vanishes_at_truth(self):
        assert contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), 1.0) == (
            pytest.approx(0.0, abs=1e-10)
        )

    def test_affine_model_equals_kl(self, rng):
        # the Pythagorean identity: on an affine model the minimum over the
        # constant-MLE line is the divergence from the model point
        theta0 = np.zeros(2)
        line = constant_mle_line(HW_LINE_MODEL)
        for z in rng.uniform(-1.2, 1.2, size=8):
            direct = kl_divergence(HW, HW_LINE_MODEL.map(float(z)), theta0)
            assert rates._line_minimum(
                HW, theta0, line, float(z)
            ) == pytest.approx(direct, abs=1e-8)

    def test_affine_model_takes_kl_without_line_scan(self, monkeypatch):
        # hw-line is affine, so its rate is the divergence itself, even
        # though a constant-MLE line is registered for it
        calls = []

        def counted(*args):
            calls.append(args)
            return cramer_rate(*args)

        monkeypatch.setattr(rates, "cramer_rate", counted)
        rate = contraction_rate(HW_LINE_MODEL, np.zeros(2), 0.5)
        assert not calls
        assert rate == kl_divergence(HW, HW_LINE_MODEL.map(0.5), np.zeros(2))

    def test_curved_model_strictly_below_kl(self):
        theta0 = GAUSS_MODEL.map(1.0)
        for coord in (0.5, 1.5, 2.0, 3.0):
            tilde = contraction_rate(GAUSS_MODEL, theta0, coord)
            direct = kl_divergence(GAUSS_PARABOLA, GAUSS_MODEL.map(coord), theta0)
            assert tilde <= direct + 1e-9
            assert direct - tilde > 1e-4

    @pytest.mark.parametrize("coord, oracle", [
        (0.468, 1.4718781479), (0.61, 0.5380482692),
        (0.736, 0.1793994247), (1.46, 0.1617902163),
    ])
    def test_near_degenerate_line_points_converge(self, coord, oracle):
        # the constant-MLE line reaches means whose variance is ~1e-8, where
        # the conjugate's natural parameter is ~1e8 and its objective is
        # flat to rounding well above the gradient tolerance
        rate = contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coord)
        exact, _ = curved_line_min_oracle(1.0, coord)
        assert exact == pytest.approx(oracle, abs=1e-10)
        assert rate == pytest.approx(exact, abs=1e-8)

    @pytest.mark.parametrize("coord", [0.468, 1.0, 2.0])
    def test_cramer_rate_calls_per_coordinate(self, monkeypatch, coord):
        # one 24-point scan, one polish of the single basin and the
        # certificate roots; polishing the three lowest scan points, which
        # are neighbours in one basin, took 77 calls
        calls = []
        original = rates.cramer_rate

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rates, "cramer_rate", counted)
        contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coord)
        assert len(calls) <= 40

    @pytest.mark.parametrize("coord", [0.468, 1.0, 2.0])
    def test_newton_line_search_evaluations_per_iteration(self, monkeypatch, coord):
        # a line search that is flat to rounding must not halve all the way
        # down before the flat-step path takes the full step.  Each Newton
        # iteration evaluates one mean map and Hessian and then its line
        # search; count the likelihood evaluations after each of those
        # moment calls, within _newton_max
        counts, inside = [], [False]
        newton, moments, loglik = legendre._newton_max, families._moments, families._log_likelihood

        def counted_newton(*args, **kwargs):
            try:
                return newton(*args, **kwargs)
            finally:
                inside[0] = False

        def counted_moments(*args):
            inside[0] = True
            counts.append(0)
            return moments(*args)

        def counted_loglik(*args):
            if inside[0]:
                counts[-1] += 1
            return loglik(*args)

        monkeypatch.setattr(legendre, "_newton_max", counted_newton)
        monkeypatch.setattr(families, "_moments", counted_moments)
        monkeypatch.setattr(families, "_log_likelihood", counted_loglik)
        contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coord)
        assert counts and max(counts) <= 20

    def test_quadratic_certificate_root_at_truth(self):
        # tau = theta0/theta = 1 makes z = 1 a root, i.e. x = 1/theta
        roots = constant_mle_stationary_points(GAUSS_MODEL, GAUSS_MODEL.map(1.0), 1.0)
        assert any(abs(x - 1.0) < 1e-12 for x in roots)

    @pytest.mark.parametrize("coord", [-1.0, 0.0])
    def test_infinite_off_the_coordinate_set(self, coord):
        # M = (0, inf): the constrained MLE never takes these coordinates
        assert contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coord) == math.inf

    def test_unregistered_curve_rejected(self):
        import dataclasses

        weird = dataclasses.replace(GAUSS_MODEL, name="unregistered-curve")
        with pytest.raises(UnsupportedModel):
            contraction_rate(weird, GAUSS_MODEL.map(1.0), 2.0)

    def test_mle_line_window_stays_in_mean_domain(self):
        line = constant_mle_line(GAUSS_MODEL)
        for coord in (0.5, 1.0, 2.5):
            lo, hi = line.window(coord)
            for x in np.linspace(lo + 1e-6, hi - 1e-6, 7):
                t = line.point(float(x), coord)
                assert GAUSS_PARABOLA.domain.mean_domain(t)


class TestPythagoreanResidual:
    def test_exact_zero_at_theta_nu(self):
        theta0 = conjugate(HW, MU0).argmax
        constraint = ConstraintSet.affine((0.0, 0.0), [(1.0, -1.0)])
        res = pythagorean_residual(
            HW, constraint, theta0, [LOG_11_9, -LOG_11_9], MU0
        )
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_affine_identity_on_grid(self):
        theta0 = conjugate(HW, MU0).argmax
        constraint = ConstraintSet.affine((0.0, 0.0), [(1.0, -1.0)])
        for z in np.linspace(-2.0, 2.0, 50):
            res = pythagorean_residual(
                HW, constraint, theta0, HW_LINE_MODEL.map(float(z)), MU0
            )
            assert abs(res) < 1e-10

    def test_curved_constraint_breaks_identity(self):
        mu0 = np.array([1.0, 3.0])
        theta0 = conjugate(GAUSS_PARABOLA, mu0).argmax
        constraint = ConstraintSet.curve(GAUSS_MODEL)
        residuals = [
            abs(pythagorean_residual(
                GAUSS_PARABOLA, constraint, theta0, GAUSS_MODEL.map(float(z)), mu0
            ))
            for z in np.linspace(0.3, 3.0, 25)
        ]
        assert max(residuals) > 1e-3

    def test_mean_mismatch_rejected(self):
        constraint = ConstraintSet.affine((0.0, 0.0), [(1.0, -1.0)])
        with pytest.raises(ValueError):
            pythagorean_residual(HW, constraint, [0.0, 0.0], [0.1, -0.1], MU0)


class TestDuality:
    def test_gap_zero_at_equal_parameters(self):
        pair = poisson_landau_pair()
        assert dual_rate_gap(pair, [0.3], [0.3]) == pytest.approx(0.0, abs=1e-14)

    def test_paper_point_both_sides(self):
        pair = poisson_landau_pair()
        th0, th = math.log(2.0), 0.0
        d_primal = kl_divergence(pair.primal, [th0], [th])
        d_dual = kl_divergence(pair.dual, [math.exp(th)], [math.exp(th0)])
        assert d_primal == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-14)
        assert d_dual == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-14)
        assert dual_rate_gap(pair, [th0], [th]) < 1e-12

    def test_random_grid_gap(self, rng):
        pair = poisson_landau_pair()
        gaps = [
            dual_rate_gap(pair, [a], [b])
            for a, b in rng.uniform(-2.0, 2.0, size=(100, 2))
        ]
        assert max(gaps) < 1e-10

    def test_swapped_pair_gap(self, rng):
        pair = poisson_landau_pair().swapped()
        gaps = [
            dual_rate_gap(pair, [math.exp(a)], [math.exp(b)])
            for a, b in rng.uniform(-2.0, 2.0, size=(25, 2))
        ]
        assert max(gaps) < 1e-8

    def test_closed_form_rate_by_substitution(self, rng):
        # the dual-side rate is mu0 log(mu0/mu) + mu - mu0 exactly
        pair = poisson_landau_pair()
        for a, b in rng.uniform(-2.0, 2.0, size=(50, 2)):
            mu0, mu = math.exp(a), math.exp(b)
            closed = mu0 * math.log(mu0 / mu) + mu - mu0
            assert kl_divergence(pair.dual, [mu], [mu0]) == pytest.approx(
                closed, abs=1e-12
            )
            assert kl_divergence(pair.primal, [a], [b]) == pytest.approx(
                closed, abs=1e-12
            )

    def test_conjugate_of_conjugate_recovers_primal(self):
        pair = poisson_landau_pair()
        from expldp import cumulant

        for th in np.linspace(-2.0, 2.0, 9):
            recovered = conjugate(pair.dual, [float(th)]).value
            assert recovered == pytest.approx(
                cumulant(pair.primal, [float(th)]), abs=1e-8
            )
