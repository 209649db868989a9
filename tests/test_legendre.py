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
from expldp.errors import NoConvergence
from expldp.intervals import Interval

HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_MEAN = builtin("gauss-mean")
GAUSS_PARABOLA = builtin("gauss-parabola")
LANDAU = builtin("landau-dual")

# the affine subfamily theta = (z, -z), solved as the curve of its model
HW_LINE = ConstraintSet.curve(builtin_model("hw-line"))
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


class TestConstrainedAffine:
    def test_hw_line_paper_formula(self):
        res = conjugate_constrained(HW, HW_LINE, [0.3, 0.2])
        assert res.argmax[0] == pytest.approx(LOG_11_9, abs=1e-9)
        assert res.argmax[1] == pytest.approx(-LOG_11_9, abs=1e-9)
        # value computed from the closed form l(theta_nu; t)
        expected = 0.1 * LOG_11_9 - (math.log(400.0 / 99.0) - math.log(4.0))
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_symmetric_data_gives_zero(self):
        res = conjugate_constrained(HW, HW_LINE, [0.27, 0.27])
        assert res.argmax[0] == pytest.approx(0.0, abs=1e-11)

    def test_stationarity_orthogonal_to_line(self, rng):
        direction = np.array([1.0, -1.0])
        for _ in range(10):
            x = rng.uniform(0.05, 0.5)
            y = rng.uniform(0.05, min(0.5, 0.95 - x))
            res = conjugate_constrained(HW, HW_LINE, [x, y])
            defect = float((mean_map(HW, res.argmax) - [x, y]) @ direction)
            assert abs(defect) <= 1e-9

    def test_below_unconstrained(self, rng):
        for _ in range(10):
            x = rng.uniform(0.05, 0.6)
            y = rng.uniform(0.05, min(0.6, 0.9 - x))
            con = conjugate_constrained(HW, HW_LINE, [x, y]).value
            unc = conjugate(HW, [x, y]).value
            assert con <= unc + 1e-12


class TestConstrainedCurve:
    def test_hw_line_coordinate_is_paper_root(self):
        res = conjugate_constrained(HW, HW_LINE, [0.3, 0.2])
        assert res.converged
        assert res.coordinate == pytest.approx(LOG_11_9, abs=1e-10)

    def test_gauss_curve_paper_root(self):
        # the first-order condition at data (1, 2) has unique positive
        # solution (1 + sqrt(1 + 8)) / 4 = 1
        model = builtin_model("gauss-mean-eq-sd")
        res = conjugate_constrained(
            GAUSS_PARABOLA, ConstraintSet.curve(model), [1.0, 2.0]
        )
        assert res.coordinate == pytest.approx(1.0, abs=1e-9)
        assert not res.multiplicity_flag

    def test_support_restriction_hits_endpoint(self):
        model = builtin_model("hw-line")
        constraint = ConstraintSet.curve(model, intervals=(Interval(0.5, 3.0),))
        res = conjugate_constrained(HW, constraint, [0.3, 0.2])
        assert res.converged
        assert res.coordinate == pytest.approx(0.5, abs=1e-12)

    def test_open_end_supremum_not_attained(self):
        # restrict to an open interval ending before the interior maximizer:
        # the supremum is approached at the open end and must be reported
        # unattained
        model = builtin_model("hw-line")
        constraint = ConstraintSet.curve(
            model, intervals=(Interval(-1.0, 0.15, hi_closed=False),)
        )
        res = conjugate_constrained(HW, constraint, [0.3, 0.2])
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
        strip = builtin("strip-measure")
        constraint = ConstraintSet.curve(model, intervals=(Interval(0.0, 1.0),))
        res = conjugate_constrained(strip, constraint, [0.3, 0.5])
        assert res.converged
        assert 0.9 < res.coordinate <= 1.0

    def test_curve_of_another_family_rejected(self):
        # the gauss-mean-eq-sd curve lives in gauss-parabola; read as a
        # curve of Hardy–Weinberg it would give a meaningless supremum
        curve = ConstraintSet.curve(builtin_model("gauss-mean-eq-sd"))
        with pytest.raises(ValueError, match="not in hardy-weinberg-saturated"):
            conjugate_constrained(HW, curve, [0.3, 0.2])


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

        (peak, value), = legendre.scan_maximize(l_of, -3.0, 3.0, 33)
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

        maxima = legendre.scan_maximize(f, -2.0, 2.0, 33)
        assert len(maxima) == 2
        (x_hi, v_hi), (x_lo, v_lo) = maxima
        assert 0.9 < x_hi < 1.1 and -1.1 < x_lo < -0.9
        assert v_hi > v_lo
        assert abs(df(x_hi)) < 1e-6 and abs(df(x_lo)) < 1e-6

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_scan_that_is_minus_inf_everywhere_gives_nothing(self, bad):
        maxima = legendre.scan_maximize(lambda x: np.full_like(x, bad), 0.0, 1.0, 16)
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

    @pytest.mark.parametrize("with_df", [True, False])
    def test_unconverged_polish_raises(self, monkeypatch, with_df):
        # a polish cut short of its tolerance raises instead of returning a
        # rough point (a window of width 2e300 needs about 1000 bisections)
        def f(x):
            return -np.abs(x - 0.3)

        def df(x):
            return -float(np.sign(x - 0.3))

        (x, _), = legendre.scan_maximize(f, -1.0, 1.0, 16, df if with_df else None)
        assert x == pytest.approx(0.3, abs=1e-8)
        monkeypatch.setattr(legendre, "POLISH_MAXITER", 3)
        with pytest.raises(NoConvergence):
            legendre.scan_maximize(f, -1.0, 1.0, 16, df if with_df else None)

    def test_edge_maximum_falls_back_to_brent(self, monkeypatch):
        # the maximum sits at the window's edge, so df does not change sign
        # on the last cell and the polish is bounded Brent, which stops
        # short of the edge by its relative tolerance
        def no_brentq(*args, **kwargs):
            raise AssertionError("brentq ran without a sign change")

        monkeypatch.setattr(legendre, "_brentq", no_brentq)
        (x, value), = legendre.scan_maximize(
            lambda x: x, 0.0, 1.0, 16, df=lambda x: 1.0
        )
        assert x == pytest.approx(1.0, abs=1e-7)
        assert value == x


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
        curve = ConstraintSet.curve(builtin_model("gauss-mean-eq-sd"))
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
        res = conjugate_constrained(HW, HW_LINE, t)
        values.append(res.value)
        norms.append(np.linalg.norm(res.argmax))
    lip = max(norms) + 1e-6
    for (t1, v1), (t2, v2) in zip(zip(ts, values), zip(ts[1:], values[1:])):
        assert abs(v2 - v1) <= lip * np.linalg.norm(t2 - t1) + 1e-12
