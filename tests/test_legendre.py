import math

import numpy as np
import pytest

from expldp import (
    ConstraintSet,
    MeanOutsideDomain,
    builtin,
    builtin_model,
    conjugate,
    conjugate_constrained,
    conjugate_grid_oracle,
    cumulant,
    mean_map,
)
from expldp.intervals import Interval

HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_MEAN = builtin("gauss-mean")
GAUSS_PARABOLA = builtin("gauss-parabola")
LANDAU = builtin("landau-dual")

HW_LINE = ConstraintSet.affine((0.0, 0.0), [(1.0, -1.0)])
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

    def test_json_serialization_keys(self):
        res = conjugate(POISSON, [1.0])
        obj = res.to_json()
        assert set(obj) == {
            "value", "argmax", "converged", "iterations", "multiplicity_flag"
        }


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
    def test_hw_line_as_curve_matches_affine(self):
        model = builtin_model("hw-line")
        res = conjugate_constrained(HW, ConstraintSet.curve(model), [0.3, 0.2])
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


class TestGridOracle:
    def test_degenerate_single_point(self):
        from expldp import log_likelihood

        value, argmax = conjugate_grid_oracle(
            POISSON, ConstraintSet.full(), [2.0], ((math.log(2.0), math.log(2.0), 1),)
        )
        assert value == pytest.approx(
            log_likelihood(POISSON, [math.log(2.0)], [2.0])
        )

    def test_poisson_against_newton(self):
        value, argmax = conjugate_grid_oracle(
            POISSON, ConstraintSet.full(), [2.0], ((-4.0, 4.0, 80001),)
        )
        newton = conjugate(POISSON, [2.0])
        assert abs(value - newton.value) <= 1e-4

    def test_constrained_against_newton(self):
        value, argmax = conjugate_grid_oracle(
            HW, HW_LINE, [0.3, 0.2], ((-3.0, 3.0, 60001),)
        )
        newton = conjugate_constrained(HW, HW_LINE, [0.3, 0.2])
        assert abs(value - newton.value) <= 1e-4

    def test_stack_of_mean_points_matches_single_calls(self):
        spec = ((-4.0, 4.0, 201), (-4.0, 4.0, 201))
        ts = np.array([[0.3, 0.2], [0.1, 0.6], [0.45, 0.45]])
        values, argmaxes = conjugate_grid_oracle(HW, ConstraintSet.full(), ts, spec)
        assert values.shape == (3,) and argmaxes.shape == (3, 2)
        for t, value, argmax in zip(ts, values, argmaxes):
            single = conjugate_grid_oracle(HW, ConstraintSet.full(), t, spec)
            assert value == single[0]
            np.testing.assert_array_equal(argmax, single[1])


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
