import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from expldp import families, legendre
from expldp.families import cumulant_many
from expldp import (
    ConstraintSet,
    MeanOutsideDomain,
    builtin,
    builtin_model,
    conjugate,
    conjugate_constrained,
    conjugate_grid_oracle,
    cumulant,
    log_likelihood,
    mean_map,
)
from expldp.errors import NoConvergence, OutsideDomain
from expldp.intervals import Interval

HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_MEAN = builtin("gauss-mean")
GAUSS_PARABOLA = builtin("gauss-parabola")
LANDAU = builtin("landau-dual")

# the affine subfamily theta = (z, -z), solved as the curve of its model
HW_LINE = builtin_model("hw-line")
LOG_11_9 = math.log(11.0 / 9.0)


class TestConjugate:
    def test_gauss_mean_at_zero(self):
        res = conjugate(GAUSS_MEAN, [0.0])
        assert res.value == pytest.approx(0.0, abs=1e-14)
        assert res.argmax[0] == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_poisson_closed_form(self):
        res = conjugate(POISSON, [2.0])
        assert res.value == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
        assert res.argmax[0] == pytest.approx(math.log(2.0), abs=1e-11)

    def test_hw_example(self):
        res = conjugate(HW, [0.3, 0.2])
        assert res.value == pytest.approx(
            0.3 * math.log(1.2) + 0.2 * math.log(0.8), abs=1e-12
        )
        np.testing.assert_allclose(
            res.argmax, [math.log(1.2), math.log(0.8)], atol=1e-10
        )

    def test_landau_dual_conjugate_recovers_poisson(self):
        for t in (-1.5, 0.0, 0.7, 2.0):
            res = conjugate(LANDAU, [t])
            assert res.value == pytest.approx(math.expm1(t), abs=1e-10)
            assert res.argmax[0] == pytest.approx(math.exp(t), rel=1e-9)

    def test_mean_outside_domain(self):
        with pytest.raises(MeanOutsideDomain):
            conjugate(POISSON, [-0.5])
        with pytest.raises(MeanOutsideDomain):
            conjugate(GAUSS_PARABOLA, [1.0, 0.5])

    def test_fenchel_young_equality_at_argmax(self, rng):
        for _ in range(20):
            theta = rng.uniform(-2.0, 2.0, size=2)
            t = mean_map(HW, theta)
            res = conjugate(HW, t)
            slack = res.value + cumulant(HW, res.argmax) - float(res.argmax @ t)
            assert abs(slack) <= 1e-8

    @pytest.mark.parametrize("family, t", [
        (HW, [0.3, 0.2]), (POISSON, [2.0]), (LANDAU, [0.7]),
        (GAUSS_PARABOLA, [1.0, 3.0]), (GAUSS_MEAN, [-1.3]),
    ])
    def test_value_is_the_newton_value_at_the_argmax(self, monkeypatch, family, t):
        # the value is the one Newton holds, bit for bit the log-likelihood at
        # the argmax: conjugate evaluates l no more often than Newton does
        calls = []
        loglik = families._log_likelihood

        def counted(*args):
            calls.append(None)
            return loglik(*args)

        monkeypatch.setattr(families, "_log_likelihood", counted)
        res = conjugate(family, t)
        by_conjugate = len(calls)
        legendre._newton_max(family, np.array(t, dtype=float))
        assert by_conjugate == len(calls) - by_conjugate
        assert res.value == log_likelihood(family, res.argmax, t)

    def test_json_serialization_keys(self):
        res = conjugate(POISSON, [1.0])
        obj = res.to_json()
        assert set(obj) == {
            "value", "argmax", "converged", "iterations", "multiplicity_flag"
        }

    @pytest.mark.parametrize("t1, variance", [
        (3.0, 1e-6), (-3.0, 1e-6), (9.0, 1e-10), (10.5, 1e-9),
    ])
    def test_newton_line_search_evaluations_per_iteration(
            self, monkeypatch, t1, variance):
        # a line search that is flat to rounding must not halve all the way
        # down before the flat-step path takes the full step.  Near-degenerate
        # means t2 - t1^2 << 1 of the Gaussian parabola have a natural
        # parameter of 1/variance, and the rounding of the objective grows
        # with |theta|.|t|: a flat allowance of 1e-11 (1 + |l|) rejects the
        # flat steps at these four points.  Each Newton iteration evaluates
        # one mean map and Hessian and then its line search; count the
        # likelihood evaluations after each of those moment calls
        counts = []
        moments, loglik = families._moments, families._log_likelihood

        def counted_moments(*args):
            counts.append(0)
            return moments(*args)

        def counted_loglik(*args):
            if counts:
                counts[-1] += 1
            return loglik(*args)

        monkeypatch.setattr(families, "_moments", counted_moments)
        monkeypatch.setattr(families, "_log_likelihood", counted_loglik)
        res = conjugate(GAUSS_PARABOLA, [t1, t1 * t1 + variance])
        assert res.converged
        assert counts and max(counts) <= 20


    def test_flat_step_reuses_the_unit_trial(self, monkeypatch):
        # landau-dual at t = 0.7 ends on a line search that is flat to
        # rounding; the flat-step path takes the full step, whose value the
        # line search's first trial already holds: no point twice
        points = []
        loglik = families._log_likelihood

        def recorded(family, th, t):
            points.append(th.tolist())
            return loglik(family, th, t)

        monkeypatch.setattr(families, "_log_likelihood", recorded)
        res = conjugate(LANDAU, [0.7])
        assert len(points) == 6
        assert len({tuple(p) for p in points}) == 6
        assert res.value == 1.0137527074704764
        assert res.argmax.tolist() == points[-1]


class TestConstrainedAffine:
    def test_hw_line_paper_formula(self):
        res = conjugate_constrained(HW_LINE, [0.3, 0.2])
        assert res.argmax[0] == pytest.approx(LOG_11_9, abs=1e-9)
        assert res.argmax[1] == pytest.approx(-LOG_11_9, abs=1e-9)
        # value computed from the closed form l(theta_nu; t)
        expected = 0.1 * LOG_11_9 - (math.log(400.0 / 99.0) - math.log(4.0))
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_symmetric_data_gives_zero(self):
        res = conjugate_constrained(HW_LINE, [0.27, 0.27])
        assert res.argmax[0] == pytest.approx(0.0, abs=1e-11)

    def test_stationarity_orthogonal_to_line(self, rng):
        direction = np.array([1.0, -1.0])
        for _ in range(10):
            x = rng.uniform(0.05, 0.5)
            y = rng.uniform(0.05, min(0.5, 0.95 - x))
            res = conjugate_constrained(HW_LINE, [x, y])
            defect = float((mean_map(HW, res.argmax) - [x, y]) @ direction)
            assert abs(defect) <= 1e-9

    def test_below_unconstrained(self, rng):
        for _ in range(10):
            x = rng.uniform(0.05, 0.6)
            y = rng.uniform(0.05, min(0.6, 0.9 - x))
            con = conjugate_constrained(HW_LINE, [x, y]).value
            unc = conjugate(HW, [x, y]).value
            assert con <= unc + 1e-12


class TestConstrainedCurve:
    def test_hw_line_coordinate_is_paper_root(self):
        res = conjugate_constrained(HW_LINE, [0.3, 0.2])
        assert res.converged
        assert res.coordinate == pytest.approx(LOG_11_9, abs=1e-10)

    def test_gauss_curve_paper_root(self):
        # the first-order condition at data (1, 2) has unique positive
        # solution (1 + sqrt(1 + 8)) / 4 = 1
        model = builtin_model("gauss-mean-eq-sd")
        res = conjugate_constrained(model, [1.0, 2.0])
        assert res.coordinate == pytest.approx(1.0, abs=1e-9)
        assert not res.multiplicity_flag

    def test_support_restriction_hits_endpoint(self):
        model = builtin_model("hw-line")
        res = conjugate_constrained(model, [0.3, 0.2], (Interval(0.5, 3.0),))
        assert res.converged
        assert res.coordinate == pytest.approx(0.5, abs=1e-12)

    def test_open_end_supremum_not_attained(self):
        # restrict to an open interval ending before the interior maximizer:
        # the supremum is approached at the open end and must be reported
        # unattained
        model = builtin_model("hw-line")
        res = conjugate_constrained(
            model, [0.3, 0.2], (Interval(-1.0, 0.15, hi_closed=False),)
        )
        assert not res.converged
        assert res.argmax is None
        from expldp import log_likelihood

        assert res.value == pytest.approx(
            log_likelihood(HW, model.map(0.15), [0.3, 0.2]), abs=1e-6
        )

    def test_strip_curve_endpoint_with_boundary_image(self):
        # support closed at z=0 maps to the listed boundary point (0, 1);
        # the candidate there is evaluated directly and loses to the interior
        model = builtin_model("strip-curve")
        res = conjugate_constrained(model, [0.3, 0.5], (Interval(0.0, 1.0),))
        assert res.converged
        assert 0.9 < res.coordinate <= 1.0

    def test_one_scan_per_window(self, monkeypatch):
        # the first window of the unbounded hw-line set, [-1, 1], brackets
        # the maximizer log(11/9): its one scan both accepts the window and
        # gives the maxima to polish
        sizes = []
        curve_loglik = legendre.curve_loglik

        def counted(model, t):
            l_of = curve_loglik(model, t)

            def counted_l(z):
                sizes.append(np.size(z) if np.ndim(z) else 0)
                return l_of(z)

            return counted_l

        monkeypatch.setattr(legendre, "curve_loglik", counted)
        res = conjugate_constrained(HW_LINE, [0.3, 0.2])
        assert res.coordinate == pytest.approx(LOG_11_9, abs=1e-10)
        assert [n for n in sizes if n] == [legendre.CURVE_SCAN]

    def test_maximum_at_the_open_ends_scan_end_is_not_attained(self):
        # at t = (1e150, 1e301) l falls from the open end z = 0 across the
        # whole scan window, whose first point is 2e-12 (the MLE, near
        # 3.7e-151, lies inside that inset): the first point stands for the
        # supremum approached at the open end, which is not attained
        res = conjugate_constrained(builtin_model("gauss-mean-eq-sd"), [1e150, 1e301])
        assert res.value == float.fromhex("-0x1.20d4c2fa8a031p+921")
        assert not res.converged
        assert res.argmax is None and res.coordinate is None

    def test_curve_loglik_is_minus_inf_where_kappa_is_inf(self):
        # kappa(1000) = e^1000 overflows to +inf on the Poisson line, and so
        # does t.theta = 1e309; the other points keep the family's values
        zs = [1000.0, 1.0, 2.0, -5.0, 700.0]
        l_of = legendre.curve_loglik(builtin_model("poisson-line"), [1e306])
        expected = [log_likelihood(POISSON, [z], [1e306]) for z in zs]
        assert expected[0] == -math.inf
        assert l_of(1000.0) == -math.inf
        assert l_of(np.array(zs)).tolist() == expected


def no_slope(x):
    raise OutsideDomain("no derivative here")


class TestScanMaximize:
    def test_evaluates_each_point_once(self, monkeypatch):
        results = []
        original = legendre._bounded_brent

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(legendre, "_bounded_brent", recording)
        calls = []

        def l_of(z):
            # closed-form hw-line log-likelihood at (0.3, 0.2); the scan
            # passes all its points as one array, the polish scalars
            calls.append(np.size(z) if np.ndim(z) else 0)
            zs = np.asarray(z, dtype=float)
            vals = 0.1 * zs - (
                np.logaddexp(np.logaddexp(math.log(2.0), zs), -zs) - math.log(4.0)
            )
            return float(vals) if np.ndim(z) == 0 else vals

        # a derivative with no value anywhere leaves the polish to
        # bounded Brent, whose evaluations are counted
        (peak, value), = legendre.scan_maximize(l_of, -3.0, 3.0, 33, no_slope)
        assert peak == pytest.approx(LOG_11_9, abs=1e-6)
        assert len(results) == 1
        assert calls.count(33) == 1
        nfev = results[0][3]
        assert calls.count(0) == nfev
        assert len(calls) == 1 + nfev
        assert value == l_of(peak)

    def test_two_basins_polished_best_first(self):
        # -(x^2 - 1)^2 + 0.1 x has local maxima near -1 and +1; the tilt
        # makes the one near +1 higher
        def f(x):
            return -(x * x - 1.0) ** 2 + 0.1 * x

        def df(x):
            return -4.0 * x * (x * x - 1.0) + 0.1

        maxima = legendre.scan_maximize(f, -2.0, 2.0, 33, df)
        assert len(maxima) == 2
        (x_hi, v_hi), (x_lo, v_lo) = maxima
        assert 0.9 < x_hi < 1.1 and -1.1 < x_lo < -0.9
        assert v_hi > v_lo
        assert abs(df(x_hi)) < 1e-6 and abs(df(x_lo)) < 1e-6

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_scan_that_is_minus_inf_everywhere_gives_nothing(self, bad):
        maxima = legendre.scan_maximize(
            lambda x: np.full_like(x, bad), 0.0, 1.0, 16, lambda x: 0.0)
        assert maxima == []

    def test_bracketing_derivative_polishes_with_brentq(self, monkeypatch):
        roots = []
        original = legendre._brentq

        def recording(*args, **kwargs):
            root, converged = original(*args, **kwargs)
            roots.append(root)
            return root, converged

        def no_brent(*args, **kwargs):
            raise AssertionError("bounded Brent ran although df brackets a root")

        monkeypatch.setattr(legendre, "_brentq", recording)
        monkeypatch.setattr(legendre, "_bounded_brent", no_brent)
        (x, value), = legendre.scan_maximize(
            lambda x: -(x - 0.3) ** 2, -1.0, 1.0, 16, df=lambda x: -2.0 * (x - 0.3)
        )
        assert roots == [x]
        assert x == pytest.approx(0.3, abs=1e-14)
        assert value == -((x - 0.3) ** 2)

    def test_root_polish_reuses_the_bracket_values(self):
        # df(b) and df(a) test the bracket and are handed to _brentq; on a
        # parabola its first secant step lands on the root, so df runs 3 times
        calls = []

        def df(x):
            calls.append(x)
            return -2.0 * (x - 0.3)

        (x, _), = legendre.scan_maximize(
            lambda x: -(x - 0.3) ** 2, -1.0, 1.0, 16, df=df)
        assert x == pytest.approx(0.3, abs=1e-14)
        assert len(calls) == 3

    @pytest.mark.parametrize("brackets", [True, False])
    def test_unconverged_polish_raises(self, monkeypatch, brackets):
        # a polish cut short of its tolerance raises instead of returning a
        # rough point (a window of width 2e300 needs about 1000 bisections);
        # the root polish runs where df brackets a root, bounded Brent where
        # df has no value
        def f(x):
            return -np.abs(x - 0.3)

        def df(x):
            return -float(np.sign(x - 0.3))

        slope = df if brackets else no_slope
        (x, _), = legendre.scan_maximize(f, -1.0, 1.0, 16, slope)
        assert x == pytest.approx(0.3, abs=1e-8)
        monkeypatch.setattr(legendre, "POLISH_MAXITER", 3)
        with pytest.raises(NoConvergence):
            legendre.scan_maximize(f, -1.0, 1.0, 16, slope)


class TestScanEnd:
    """A maximum at the first or last scan point where df points out of
    the window is that point itself, with no polish."""

    @pytest.fixture
    def polishes(self, monkeypatch):
        calls = []
        for name in ("_brentq", "_bounded_brent"):
            original = getattr(legendre, name)

            def recording(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(legendre, name, recording)
        return calls

    @pytest.mark.parametrize("slope", [-2.0, 3.0])
    def test_monotone_f_gives_the_scan_end(self, polishes, slope):
        def f(x):
            return slope * x + 1.0

        lo, hi = -0.3, 0.7
        (x, value), = legendre.scan_maximize(f, lo, hi, 16, df=lambda x: slope)
        end = lo if slope < 0.0 else hi
        assert (x, value) == (end, f(end))
        assert type(x) is float and type(value) is float
        assert polishes == []

    def test_zero_slope_at_the_end_counts_as_out(self, polishes):
        # -x^2 on [0, 1]: the maximum is the first point, where df = 0
        (x, value), = legendre.scan_maximize(
            lambda x: -x * x, 0.0, 1.0, 16, df=lambda x: -2.0 * x)
        assert (x, value) == (0.0, -0.0)
        assert polishes == []

    def test_maximum_inside_the_first_cell_is_root_polished(self, polishes):
        # the first cell of 16 points on [-1, 1] is [-1, -0.867]; the scan's
        # best point is its first, but df > 0 there points into the window
        def f(x):
            return -(x + 0.95) ** 2

        (x, value), = legendre.scan_maximize(
            f, -1.0, 1.0, 16, df=lambda x: -2.0 * (x + 0.95))
        assert x == pytest.approx(-0.95, abs=1e-14)
        assert value == f(x)
        assert polishes == ["_brentq"]

    def test_derivative_outside_the_domain_falls_back_to_the_polish(self, polishes):
        (x, _), = legendre.scan_maximize(lambda x: -x, 0.0, 1.0, 16, no_slope)
        assert x == pytest.approx(0.0, abs=1e-7)
        assert polishes == ["_bounded_brent"]

    def test_misspecified_hw_mle_is_the_parents(self, polishes):
        # the maximum over [0.5, 3] sits at the support's lower end; the scan
        # end replaces a bounded-Brent crawl toward it, whose point was
        # discarded as non-stationary, so the result keeps its bits
        from expldp.models import limiting_mle, uniform_prior

        mle = limiting_mle(uniform_prior(builtin_model("hw-line"), 0.5, 3.0), (0.3, 0.2))
        assert mle.coordinate.hex() == (0.5).hex()
        assert mle.value.hex() == "-0x1.849d989ecbae8p-7"
        assert [v.hex() for v in mle.theta_nu.tolist()] == [(0.5).hex(), (-0.5).hex()]
        assert "_bounded_brent" not in polishes


@pytest.mark.parametrize("name, t, lo, hi", [
    ("hw-line", (0.3, 0.2), -3.0, 3.0),
    ("strip-curve", (0.3, 0.5), 1e-3, 1.0),
    ("gauss-mean-eq-sd", (1.0, 3.0), 0.05, 5.0),
])
def test_curve_loglik_is_independent_of_the_batch(name, t, lo, hi):
    # t.eta(z) is summed elementwise, not by a BLAS product, whose rounding
    # depends on the number of columns
    model = builtin_model(name)
    l_of = legendre.curve_loglik(model, np.array(t))
    zs = np.linspace(lo, hi, 1000)
    stacked = l_of(zs)
    assert np.all(np.isfinite(stacked))
    alone = np.array([l_of(z) for z in zs.tolist()])
    assert alone.tobytes() == stacked.tobytes()
    ones = np.concatenate([l_of(zs[i:i + 1]) for i in range(zs.size)])
    assert ones.tobytes() == stacked.tobytes()


class TestGridOracle:
    def test_degenerate_single_point(self):
        from expldp import log_likelihood

        value, argmax = conjugate_grid_oracle(
            POISSON, ConstraintSet.full(), [2.0], ((math.log(2.0), math.log(2.0), 1),)
        )
        assert value == pytest.approx(
            log_likelihood(POISSON, [math.log(2.0)], [2.0])
        )

    @pytest.mark.parametrize("spec", [
        ((-1.0, 1.0, 0), (-1.0, 1.0, 5)),
        ((-1.0, 1.0, 5), (-1.0, 1.0, 0)),
    ])
    def test_grid_without_points(self, spec):
        with pytest.raises(ValueError, match="no points"):
            conjugate_grid_oracle(HW, ConstraintSet.full(), [0.3, 0.2], spec)

    @pytest.mark.parametrize("spec, message", [
        (((math.nan, 1.0, 5), (-1.0, 1.0, 5)), "axis 0 endpoints"),
        (((-1.0, 1.0, 5), (-math.inf, 1.0, 5)), "axis 1 endpoints"),
        (((-1e308, 1e308, 5), (-1.0, 1.0, 5)), "axis 0 endpoints"),
        (((-1.0, 1.0, 5), (-1.0, 1.0, 2.5)), "axis 1 count"),
        (((-1.0, 1.0, -1), (-1.0, 1.0, 5)), "axis 0 count"),
        (((-1.0, 1.0, math.nan), (-1.0, 1.0, 5)), "axis 0 count"),
        (((-1.0, 1.0, 5),), "1 axes"),
        (((-1.0, 1.0, 5),) * 3, "3 axes"),
    ], ids=["nan-endpoint", "infinite-endpoint", "infinite-span",
            "fractional-count", "negative-count", "nan-count",
            "too-few-axes", "too-many-axes"])
    def test_malformed_grid_spec_rejected_before_work(self, spec, message):
        def no_kernel(*args):
            raise AssertionError("the kernel ran on a malformed grid")

        # the oracle calls the payload's batched kernel directly
        guarded = dataclasses.replace(
            HW, payload=dataclasses.replace(HW.payload, cumulant_many=no_kernel))
        with pytest.raises(ValueError, match=message):
            conjugate_grid_oracle(guarded, ConstraintSet.full(), [0.3, 0.2], spec)

    def test_poisson_against_newton(self):
        value, argmax = conjugate_grid_oracle(
            POISSON, ConstraintSet.full(), [2.0], ((-4.0, 4.0, 80001),)
        )
        newton = conjugate(POISSON, [2.0])
        assert abs(value - newton.value) <= 1e-4

    def test_curve_constraint_rejected(self):
        # the grid oracle has no curve form
        curve = ConstraintSet(kind="curve")
        with pytest.raises(ValueError):
            conjugate_grid_oracle(GAUSS_PARABOLA, curve, [1.0, 2.0], ((0.5, 2.0, 11),))

    def test_stack_of_mean_points_matches_single_calls(self):
        spec = ((-4.0, 4.0, 201), (-4.0, 4.0, 201))
        ts = np.array([[0.3, 0.2], [0.1, 0.6], [0.45, 0.45]])
        values, argmaxes = conjugate_grid_oracle(HW, ConstraintSet.full(), ts, spec)
        assert values.shape == (3,) and argmaxes.shape == (3, 2)
        for t, value, argmax in zip(ts, values, argmaxes):
            single = conjugate_grid_oracle(HW, ConstraintSet.full(), t, spec)
            assert value == single[0]
            np.testing.assert_array_equal(argmax, single[1])


    @staticmethod
    def _full_grid_max(family, t, spec):
        # the whole grid at once: value and first maximizer in C order, with
        # the oracle's arithmetic for theta.t, a sum of per-axis products in
        # axis order
        axes = [np.linspace(lo, hi, int(n)) for lo, hi, n in spec]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = np.column_stack([m.ravel() for m in mesh])
        dot = thetas[:, 0] * t[0]
        for k in range(1, thetas.shape[1]):
            dot = dot + thetas[:, k] * t[k]
        vals = dot - cumulant_many(family, thetas)
        i = int(np.argmax(vals))
        return vals[i], thetas[i], vals, thetas

    @pytest.mark.parametrize("rows, cols, block_rows", [
        (400, 1000, None),   # the module's own block size
        (10, 37, 3),
    ])
    def test_blocks_match_the_full_grid(self, monkeypatch, rows, cols, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(legendre, "GRID_BLOCK_POINTS", block_rows * cols)
        per_block = max(1, legendre.GRID_BLOCK_POINTS // cols)
        assert rows % per_block != 0 and rows > per_block
        spec = ((-4.0, 4.0, rows), (-3.0, 5.0, cols))
        ts = np.array([[0.3, 0.2], [0.1, 0.6], [0.45, 0.45], [0.02, 0.01]])
        values, argmaxes = conjugate_grid_oracle(HW, ConstraintSet.full(), ts, spec)
        for t, value, argmax in zip(ts, values, argmaxes):
            want, want_arg, _, _ = self._full_grid_max(HW, t, spec)
            assert value == want
            np.testing.assert_array_equal(argmax, want_arg)

    def test_exact_tie_across_a_block_boundary(self, monkeypatch):
        # kappa of gauss-parabola depends on theta_1 through theta_1^2, so at
        # t = (0, t2) the rows theta_1 = -0.5 and +0.5 tie exactly; with two
        # rows per block they fall in different blocks, and the first in C
        # order wins, as in one argmax over the whole grid
        spec = ((-1.5, 1.5, 4), (-2.0, -0.5, 7))
        monkeypatch.setattr(legendre, "GRID_BLOCK_POINTS", 2 * 7)
        t = np.array([0.0, 0.8])
        want, want_arg, vals, thetas = self._full_grid_max(GAUSS_PARABOLA, t, spec)
        tied = np.flatnonzero(vals == want)
        assert len(tied) == 2 and thetas[tied[0], 0] == -0.5 and thetas[tied[1], 0] == 0.5
        value, argmax = conjugate_grid_oracle(GAUSS_PARABOLA, ConstraintSet.full(), t, spec)
        assert value == want
        np.testing.assert_array_equal(argmax, want_arg)

    def test_hardy_weinberg_grid_memory(self):
        # the 2001 x 2001 grid of the benchmark; the whole grid as (N, 2)
        # points with its kappa vector took 183 MB, while an open-mesh block
        # of 2^15 points, its kappa, objective and kernel temporaries peak
        # near 1.1 MB
        spec = ((-4.0, 4.0, 2001), (-4.0, 4.0, 2001))
        tracemalloc.start()
        try:
            value, _ = conjugate_grid_oracle(HW, ConstraintSet.full(), [0.3, 0.2], spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert value == pytest.approx(conjugate(HW, [0.3, 0.2]).value, abs=1e-4)


def test_constrained_continuity_modulus(rng):
    # kappa*_B is Lipschitz on compact interior grids with constant bounded
    # by the largest maximizer norm
    ts = [np.array([x, 0.2]) for x in np.linspace(0.1, 0.5, 9)]
    values = []
    norms = []
    for t in ts:
        res = conjugate_constrained(HW_LINE, t)
        values.append(res.value)
        norms.append(np.linalg.norm(res.argmax))
    lip = max(norms) + 1e-6
    for (t1, v1), (t2, v2) in zip(zip(ts, values), zip(ts[1:], values[1:])):
        assert abs(v2 - v1) <= lip * np.linalg.norm(t2 - t1) + 1e-12
