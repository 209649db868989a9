import math
import re

import numpy as np
import pytest

from expldp import (
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
from expldp import legendre, oracles, rates
from expldp.errors import MeanOutsideDomain, OutsideDomain, UnsupportedModel
from expldp.models import event_at_least, fit_rate_limit
from expldp.oracles import constant_mle_stationary_points, enumeration_rates

HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_PARABOLA = builtin("gauss-parabola")
HW_LINE_MODEL = builtin_model("hw-line")
GAUSS_MODEL = builtin_model("gauss-mean-eq-sd")
STRIP_MODEL = builtin_model("strip-curve")
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


def _discrete_trinomial():
    from expldp import discrete_family

    return discrete_family([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.25, 0.25])


# per family: theta0 and a stack of points, with rows where kappa is +inf
# (Hardy–Weinberg's and the discrete kappa are finite everywhere) and rows
# where (theta0 - theta).grad_kappa(theta0) overflows
KL_STACKS = {
    "hardy-weinberg-saturated": ([0.2, -0.4], [
        [0.0, 0.0], [0.2, -0.4], [3.0, -2.0], [-700.0, 5.0], [800.0, 800.0],
        [-1e308, -1e308]]),
    "gauss-parabola": ([1.0, -1.0], [
        [0.0, -0.5], [1.0, -1.0], [0.5, 0.0], [0.5, 2.0], [-3.0, -1e-300]]),
    "poisson": ([5.0], [[0.0], [5.0], [-3.0], [710.0], [1e300], [-1e307]]),
    "gauss-mean": ([3.0], [[0.0], [3.0], [-2.5], [-1e200], [1e154], [-1e307]]),
    "landau-dual": ([1.5], [[1.0], [1.5], [0.0], [-0.5], [1e-300], [3e305]]),
    "strip-measure": ([0.3, 0.2], [
        [0.0, 0.0], [0.3, 0.2], [0.0, 1.0], [0.0, 1.5], [0.3, -1.0],
        [-2.0, 0.999999]]),
    "discrete": ([0.1, -0.2], [
        [0.0, 0.0], [0.1, -0.2], [2.0, -1.0], [-1e308, 0.0], [5.0, 700.0]]),
}


def _kl_family(name):
    return _discrete_trinomial() if name == "discrete" else builtin(name)


def _bits(values):
    return [float(v).hex() for v in values]


class TestKlDivergenceStack:
    @pytest.mark.parametrize("name", sorted(KL_STACKS))
    def test_stack_equals_the_rows(self, name):
        family = _kl_family(name)
        theta0, rows = KL_STACKS[name]
        loop = [kl_divergence(family, theta0, row) for row in rows]
        assert all(type(v) is float for v in loop)
        # every stack has a zero row and a finite positive one, and a +inf
        # row where kappa can be +inf
        assert 0.0 in loop and any(0.0 < v < math.inf for v in loop)
        assert (math.inf in loop) == (name not in ("hardy-weinberg-saturated",
                                                   "discrete"))
        stack = kl_divergence(family, theta0, np.array(rows))
        assert isinstance(stack, np.ndarray) and stack.shape == (len(rows),)
        assert _bits(stack) == _bits(loop)
        assert _bits(kl_divergence(family, theta0, rows)) == _bits(loop)

    def test_overflowing_linear_term_is_inf(self):
        # (theta0 - theta).grad_kappa(theta0) = (5 + 1e307) e^5 overflows to
        # +inf while kappa(theta) = -1 stays finite
        got = kl_divergence(POISSON, [5.0], np.array([[-1e307], [0.0]]))
        assert got[0] == math.inf and math.isfinite(got[1])

    @pytest.mark.parametrize("name", sorted(KL_STACKS))
    def test_empty_stack(self, name):
        family = _kl_family(name)
        theta0, _ = KL_STACKS[name]
        got = kl_divergence(family, theta0, np.empty((0, family.dim)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_theta0_with_infinite_cumulant(self):
        # e^800 overflows: with every kappa(theta) +inf the mean of theta0 is
        # never taken, so the divergence is +inf, not OutsideDomain
        assert kl_divergence(POISSON, [800.0], [800.0]) == math.inf
        got = kl_divergence(POISSON, [800.0], np.array([[800.0], [900.0]]))
        assert got.tolist() == [math.inf, math.inf]

    def test_theta0_moments_once_per_call(self, monkeypatch):
        from expldp import families

        moments, cumulant = families._moments, families._cumulant
        calls = {"moments": 0, "cumulant": 0}

        def counted_moments(*args):
            calls["moments"] += 1
            return moments(*args)

        def counted_cumulant(*args):
            calls["cumulant"] += 1
            return cumulant(*args)

        monkeypatch.setattr(families, "_moments", counted_moments)
        monkeypatch.setattr(families, "_cumulant", counted_cumulant)
        rows = HW_LINE_MODEL.map(np.linspace(-2.0, 2.0, 20)).T
        kl_divergence(HW, [0.2, -0.4], rows)
        # one kappa per row and one for theta0
        assert calls == {"moments": 1, "cumulant": 21}
        calls.update(moments=0, cumulant=0)
        kl_divergence(POISSON, [800.0], np.array([[800.0], [900.0]]))
        assert calls == {"moments": 0, "cumulant": 2}

    @pytest.mark.parametrize("name, theta0, theta", [
        # (theta0 - theta).grad kappa(theta0) and kappa(theta0) both
        # overflow to +inf; the exact value 1e400 / 2 is past the largest
        # double too
        ("gauss-mean", [1e200], [0.0]),
        # grad kappa(theta0) = (5e299, inf), and D(P||P) = 0 takes 0 * inf
        ("gauss-parabola", [1.0, -1e-300], [1.0, -1e-300]),
    ])
    def test_terms_overflowing_into_nan_raise(self, name, theta0, theta):
        from expldp.errors import NumericsError

        # pytest turns a RuntimeWarning into an error
        with pytest.raises(NumericsError, match=f"theta0=.* on {name} has no value"):
            kl_divergence(builtin(name), theta0, theta)
        with pytest.raises(NumericsError, match="no value in doubles"):
            kl_divergence(builtin(name), theta0, np.array([theta0, theta]))

    def test_rows_are_validated(self):
        from expldp.errors import NumericsError

        with pytest.raises(NumericsError):
            kl_divergence(HW, [0.0, 0.0], np.array([[0.1, 0.2], [math.nan, 0.0]]))
        with pytest.raises(ValueError):
            kl_divergence(HW, [0.0, 0.0], np.zeros((3, 3)))


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

    def test_rate_past_the_overflow_of_t_dot_theta(self):
        # on eta(z) = (z, -z^2/2) with mu0 = (1, 3), t.theta passes the
        # largest double beyond z ~ 1.1e154 and rounds to -inf, so the rate
        # is +inf there; the overflow is not a warning (pytest makes one an
        # error) and gives no NaN
        prior = uniform_prior(GAUSS_MODEL, 1e154, 1.3e154)
        table = posterior_rate(prior, [1.0, 3.0], np.array([1e154, 1.15e154, 1.3e154]))
        assert table.rates.tolist() == [0.0, math.inf, math.inf]

    def test_form_mismatch_names_the_first_failing_coordinate(self, monkeypatch):
        import dataclasses

        from expldp import models
        from expldp.errors import RateFormMismatch

        original = models.limiting_mle

        def shifted(prior, mu0):
            # moves the direct rate by 1e-6 and leaves the excess form alone
            mle = original(prior, mu0)
            return dataclasses.replace(mle, value=mle.value + 1e-6)

        monkeypatch.setattr(models, "limiting_mle", shifted)
        prior = uniform_prior(HW_LINE_MODEL, -1.0, 1.0)
        with pytest.raises(RateFormMismatch, match=r"at z=-0\.5: direct"):
            posterior_rate(prior, MU0, np.array([-3.0, -0.5, 0.5, 2.0]))

    @pytest.mark.parametrize("model, mu0, support, grid, shift", [
        # rates about 1e301, whose two forms agree to 1.7e-14 relative: a
        # relative error of 1e-9 is still a mismatch
        (GAUSS_MODEL, [1.0, 3.0], (1e150, 1e151), [1e150, 5.5e150, 1e151],
         lambda value: value * (1.0 + 1e-9)),
        # an infinite rate never agrees with a finite one
        (HW_LINE_MODEL, MU0, (-1.0, 1.0), [-0.5, 0.5], lambda value: math.inf),
    ], ids=["relative", "infinite"])
    def test_form_mismatch_at_scale(self, monkeypatch, model, mu0, support, grid,
                                    shift):
        import dataclasses

        from expldp import models
        from expldp.errors import RateFormMismatch

        original = models.limiting_mle

        def shifted(prior, mu0):
            mle = original(prior, mu0)
            return dataclasses.replace(mle, value=shift(mle.value))

        prior = uniform_prior(model, *support)
        assert np.isfinite(posterior_rate(prior, mu0, np.array(grid)).rates).all()
        monkeypatch.setattr(models, "limiting_mle", shifted)
        with pytest.raises(RateFormMismatch, match=re.escape(f"at z={grid[0]!r}: direct")):
            posterior_rate(prior, mu0, np.array(grid))

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


class TestInputChecks:
    # theta2 > 0 is off gauss-parabola's domain; the pair's dual side is
    # never reached
    OFF = [0.0, 1.0]
    ENTRY_POINTS = {
        "kl_divergence": lambda th0: kl_divergence(GAUSS_PARABOLA, th0, [0.0, -1.0]),
        "cramer_rate": lambda th0: cramer_rate(GAUSS_PARABOLA, th0, [0.0, 1.0]),
        "contraction_rate": lambda th0: contraction_rate(GAUSS_MODEL, th0, 1.0),
        "dual_rate_gap": lambda th0: dual_rate_gap(
            rates.DualPair(GAUSS_PARABOLA, GAUSS_PARABOLA), th0, [0.0, -1.0]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_theta0_off_the_interior_is_named(self, entry):
        with pytest.raises(OutsideDomain, match=re.escape(
                "theta0=[0. 1.] is not interior for gauss-parabola")):
            self.ENTRY_POINTS[entry](self.OFF)

    def test_dual_rate_gap_names_theta(self):
        pair = rates.DualPair(GAUSS_PARABOLA, GAUSS_PARABOLA)
        with pytest.raises(OutsideDomain, match=re.escape(
                "theta=[0. 1.] is not interior for gauss-parabola")):
            dual_rate_gap(pair, [0.0, -1.0], self.OFF)

    @pytest.mark.parametrize("entry, noun", [
        (lambda grid: posterior_rate(uniform_prior(HW_LINE_MODEL, -3.0, 3.0),
                                     MU0, grid), "grid point"),
        (lambda grid: contraction_rate(HW_LINE_MODEL, HW_LINE_MODEL.map(0.0), grid),
         "coordinate"),
    ], ids=["posterior_rate", "contraction_rate"])
    def test_nan_coordinate_is_named(self, entry, noun):
        with pytest.raises(ValueError, match=f"^{noun} 1 is NaN$"):
            entry(np.array([0.5, math.nan, 0.7, math.nan]))


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

    @pytest.mark.parametrize("name, z0", [("hw-line", 0.3), ("hw-line", -1.1),
                                          ("poisson-line", 0.4)])
    def test_affine_model_equals_kl(self, name, z0):
        # with theta0 on an affine model the fiber minimum is the divergence
        # from the model point (the Pythagorean identity)
        model = builtin_model(name)
        theta0 = model.map(z0)
        coords = np.linspace(-2.0, 2.0, 9)
        got = contraction_rate(model, theta0, coords)
        for c, rate in zip(coords, got):
            theta = model.map(float(c))
            direct = kl_divergence(model.family, theta, theta0)
            assert rate == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("c", [610.0, 650.0, 700.0])
    def test_poisson_line_up_to_the_cumulant_overflow(self, c):
        # with theta0 = eta(1) the rate at c is kappa*(e^c) - l(1; e^c) =
        # e^c (c - 2) + e; the dual's line reaches past 709.78, where e^s
        # overflows, so its polish can fall back to bounded Brent
        model = builtin_model("poisson-line")
        rate = contraction_rate(model, model.map(1.0), c)
        assert rate == pytest.approx(math.exp(c) * (c - 2.0) + math.e, rel=1e-12)

    def test_array_matches_scalar_calls(self):
        coords = np.array([[-1.0, 0.5], [2.0, 0.0]])
        got = contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coords)
        assert got.shape == coords.shape
        for c, rate in zip(coords.ravel(), got.ravel()):
            assert rate == contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), c)
        assert got[0, 0] == math.inf and got[1, 1] == math.inf

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

    @pytest.mark.parametrize("model, coords", [
        (GAUSS_MODEL, [0.468, 1.0, 2.0]), (HW_LINE_MODEL, [0.5]),
    ], ids=["gauss-mean-eq-sd", "hw-line"])
    def test_no_conjugate_call(self, monkeypatch, model, coords):
        # the dual needs cumulants only, and the fiber check a curve
        # conjugate: no full-domain Newton conjugate (so no cramer_rate)
        def forbidden(*args):
            raise AssertionError("legendre.conjugate called")

        monkeypatch.setattr(legendre, "conjugate", forbidden)
        theta0 = model.map(1.0)
        assert np.all(np.isfinite(contraction_rate(model, theta0, coords)))

    def test_quadratic_certificate_root_at_truth(self):
        # tau = theta0/theta = 1 makes z = 1 a root, i.e. x = 1/theta
        roots = constant_mle_stationary_points(GAUSS_MODEL.map(1.0), 1.0)
        assert any(abs(x - 1.0) < 1e-12 for x in roots)

    @pytest.mark.parametrize("coord", [-1.0, 0.0])
    def test_infinite_off_the_coordinate_set(self, coord):
        # M = (0, inf): the constrained MLE never takes these coordinates
        assert contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coord) == math.inf

    def test_dual_minimizer_off_the_fiber_rejected(self):
        # on strip-curve the MLE at the dual minimizer for theta0 = eta(0.9)
        # and c = 0.2 is about 0.587: the dual value only bounds the rate
        strip = builtin_model("strip-curve")
        with pytest.raises(UnsupportedModel, match="0.58"):
            contraction_rate(strip, strip.map(0.9), 0.2)

    def test_mean_domain_edge_names_the_coordinate(self):
        # from eta(0) on hw-line t_c rounds to (1.0, 2.9e-30) at c = 34, on
        # the mean domain's edge; the error names the coordinate and the model
        # and keeps the inner text
        with pytest.raises(MeanOutsideDomain, match=re.escape(
                "t_c at coordinate 34.0 on hw-line: t=[1.00000000e+00 "
                "2.93748211e-30] is outside the interior of the mean domain")):
            contraction_rate(HW_LINE_MODEL, HW_LINE_MODEL.map(0.0), 34.0)

    def test_mle_line_window_stays_in_mean_domain(self):
        for coord in (0.5, 1.0, 2.5):
            lo, hi = oracles._mean_eq_sd_window(coord)
            for x in np.linspace(lo, hi, 7):
                t = np.array([x, 1.0 / coord ** 2 + x / coord])
                assert GAUSS_PARABOLA.domain.mean_domain(t)


def _hw_fiber_reference(theta0, c, n_grid=4001, rounds=40):
    """Least trinomial divergence sum t_i log(t_i / p_i) over the hw-line
    fiber t1 - t2 = tanh(c/2), by grid search over t2 and refinement."""
    w = np.exp([0.0, theta0[0], theta0[1]]) * [2.0, 1.0, 1.0]
    p = w / w.sum()
    delta = math.tanh(0.5 * c)

    def divergence(t2):
        t = np.stack([1.0 - 2.0 * t2 - delta, t2 + delta, t2])
        return np.sum(t * np.log(t / p[:, None]), axis=0)

    lo, hi = max(0.0, -delta), 0.5 * (1.0 - delta)
    xs = np.linspace(lo, hi, n_grid)[1:-1]
    for _ in range(rounds):
        vals = divergence(xs)
        i = int(np.argmin(vals))
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], 65)
    return float(np.min(divergence(xs)))


class TestMisspecifiedContraction:
    # theta0 off the model: the rate is the fiber minimum, which the
    # divergence D(P_eta(c) || P_theta0) overstates
    @pytest.mark.parametrize("theta0", [(0.3, 0.2), (-1.0, 0.5)], ids=str)
    def test_hw_line_against_trinomial_fiber_minimum(self, theta0):
        coords = np.array([-1.5, -0.4, 0.2, 0.5, 1.0, 2.5])
        got = contraction_rate(HW_LINE_MODEL, theta0, coords)
        for c, rate in zip(coords, got):
            assert rate == pytest.approx(_hw_fiber_reference(theta0, c), abs=1e-10)

    def test_hw_line_value_below_the_divergence(self):
        theta0 = np.array([0.3, 0.2])
        rate = contraction_rate(HW_LINE_MODEL, theta0, 0.2)
        assert rate == pytest.approx(0.004570, abs=1e-6)
        assert kl_divergence(HW, HW_LINE_MODEL.map(0.2), theta0) == pytest.approx(
            0.012220, abs=1e-6)

    def test_hw_line_against_enumeration(self):
        # exact finite-n tails of the event z >= 0.5 extrapolate to the dual
        # rate, not to the divergence at z = 0.5
        theta0 = np.array([0.3, 0.2])
        schedule = (250, 500, 1000, 2000)
        limit = fit_rate_limit(
            schedule, enumeration_rates(theta0, event_at_least(0.5), schedule))
        rate = contraction_rate(HW_LINE_MODEL, theta0, 0.5)
        old = kl_divergence(HW, HW_LINE_MODEL.map(0.5), theta0)
        assert abs(limit - rate) / rate < 0.02
        assert abs(limit - old) / old > 0.10

    @pytest.mark.parametrize("model, theta0, c", [
        (STRIP_MODEL, STRIP_MODEL.map(0.6), 0.4),
        (STRIP_MODEL, STRIP_MODEL.map(0.3), 0.8),
        (STRIP_MODEL, STRIP_MODEL.map(0.9), 0.6),
        # the far end of the peak cell leaves the domain at 0.468 and 0.47,
        # so the polish there is bounded Brent
        (GAUSS_MODEL, GAUSS_MODEL.map(1.0), 0.468),
        (GAUSS_MODEL, GAUSS_MODEL.map(1.0), 0.47),
        (GAUSS_MODEL, GAUSS_MODEL.map(1.0), 2.0),
        (HW_LINE_MODEL, np.array([0.3, 0.2]), -1.5),
        (HW_LINE_MODEL, np.array([0.3, 0.2]), 0.2),
    ], ids=["strip-0.6-0.4", "strip-0.3-0.8", "strip-0.9-0.6", "gauss-0.468",
            "gauss-0.47", "gauss-2.0", "hw-off-model--1.5", "hw-off-model-0.2"])
    def test_dual_minimizer_is_in_the_fiber(self, model, theta0, c):
        family = model.family
        rate, t_star = rates._fiber_minimum(model, theta0, c)
        a = model.jacobian(c)
        assert a @ (t_star - mean_map(family, model.map(c))) == pytest.approx(
            0.0, abs=1e-12 * np.linalg.norm(a))
        assert rate == pytest.approx(cramer_rate(family, theta0, t_star), abs=1e-9)
        mle = legendre.conjugate_constrained(model, t_star)
        assert mle.coordinate == pytest.approx(c, abs=1e-9)
        assert contraction_rate(model, theta0, c) == rate

    def test_closed_endpoint_takes_the_half_space(self):
        # strip-curve's coordinate set is (0, 1]: from theta0 = (1, -0.3) the
        # likelihood along the curve still rises at z = 1, so the MLE sits
        # there with probability tending to 1 and its rate at 1 is 0; the
        # mean is off the hyperplane H_1, where the dual would be positive
        strip = builtin_model("strip-curve")
        theta0 = [1.0, -0.3]
        mean = mean_map(strip.family, theta0)
        mle = legendre.conjugate_constrained(strip, mean)
        assert mle.coordinate == 1.0
        assert mean[1] < -0.5
        rate_in, rate_end = contraction_rate(strip, theta0, [0.9, 1.0])
        assert rate_end == 0.0 and rate_in > 0.1
        # the dual's maximum is the half-line's end s = 0: no Newton step
        # moves t* off the mean of P_theta0 there
        assert np.array_equal(
            rates._fiber_minimum(strip, np.array(theta0), 1.0)[1], mean)
        assert contraction_rate(strip, strip.map(0.9), 1.0) > 0.1

    @pytest.mark.parametrize("coord, index", [
        ([0.5, math.nan], 1), ([math.nan, 0.5, math.nan], 0), (math.nan, 0),
    ])
    def test_nan_coordinate_is_named(self, coord, index):
        # a NaN coordinate is an error, as a NaN grid point of posterior_rate
        # is, not the rate +inf of a coordinate outside the model
        with pytest.raises(ValueError, match=f"coordinate {index} is NaN"):
            contraction_rate(GAUSS_MODEL, GAUSS_MODEL.map(1.0), coord)

    def test_infinite_cumulant_at_theta0_gives_inf(self):
        # e^800 overflows: kappa(theta0) is +inf, and so is every rate, not NaN
        model = builtin_model("poisson-line")
        got = contraction_rate(model, model.map(800.0), [0.0, 1.0, 2.0])
        assert np.all(got == math.inf)


class TestPythagoreanResidual:
    def test_exact_zero_at_theta_nu(self):
        res = pythagorean_residual(HW_LINE_MODEL, [LOG_11_9, -LOG_11_9], MU0)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_affine_identity_on_grid(self):
        for z in np.linspace(-2.0, 2.0, 50):
            res = pythagorean_residual(HW_LINE_MODEL, HW_LINE_MODEL.map(float(z)), MU0)
            assert abs(res) < 1e-10

    def test_curved_constraint_breaks_identity(self):
        mu0 = np.array([1.0, 3.0])
        residuals = [
            abs(pythagorean_residual(GAUSS_MODEL, GAUSS_MODEL.map(float(z)), mu0))
            for z in np.linspace(0.3, 3.0, 25)
        ]
        assert max(residuals) > 1e-3

    @pytest.mark.parametrize("model, mu0, lo, hi", [
        (HW_LINE_MODEL, MU0, -2.0, 2.0),
        (GAUSS_MODEL, [1.0, 3.0], 0.3, 3.0),
    ])
    def test_stack_equals_the_rows(self, model, mu0, lo, hi):
        zs = np.linspace(lo, hi, 25)
        loop = [pythagorean_residual(model, model.map(float(z)), mu0) for z in zs]
        stack = pythagorean_residual(model, model.map(zs).T, mu0)
        assert stack.shape == zs.shape
        assert _bits(stack) == _bits(loop)

    def test_stack_solves_the_maximizer_once(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(legendre, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("conjugate", "conjugate_constrained"):
            monkeypatch.setattr(legendre, name, counted(name))
        zs = np.linspace(-2.0, 2.0, 50)
        res = pythagorean_residual(HW_LINE_MODEL, HW_LINE_MODEL.map(zs).T, MU0)
        assert res.shape == (50,) and np.all(np.abs(res) < 1e-10)
        # theta0 = grad kappa*(mu0) and theta_nu, each once
        assert sorted(calls) == ["conjugate", "conjugate_constrained"]


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
