import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from expldp import (
    NumericsError,
    OutsideDomain,
    builtin,
    builtin_names,
    cumulant,
    discrete_family,
    hessian,
    log_likelihood,
    mean_map,
)
from expldp import families, legendre
from expldp.families import cumulant_many
from expldp.models import builtin_model


HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_MEAN = builtin("gauss-mean")
GAUSS_PARABOLA = builtin("gauss-parabola")
STRIP = builtin("strip-measure")
LANDAU = builtin("landau-dual")


def hw_discrete():
    return discrete_family(
        atoms=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        weights=[0.5, 0.25, 0.25],
        name="hw-atoms",
    )


class TestCumulant:
    def test_probability_family_at_origin(self):
        assert cumulant(HW, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert cumulant(POISSON, [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_hw_closed_form_point(self):
        val = cumulant(HW, [math.log(2.0), math.log(2.0)])
        assert val == pytest.approx(math.log(6.0) - math.log(4.0), abs=1e-12)

    def test_strip_boundary_point(self):
        # after the gaussian reduction the boundary integral is e*pi
        exact = 1.0 + math.log(math.pi)
        assert cumulant(STRIP, [0.0, 1.0]) == exact
        assert cumulant(STRIP, [0.0, -1.0]) == exact
        assert list(cumulant_many(STRIP, [[0.0, 1.0], [0.0, -1.0]])) == [exact, exact]

    def test_strip_outside_domain(self):
        assert cumulant(STRIP, [0.0, 1.5]) == math.inf
        assert cumulant(STRIP, [0.3, -1.0]) == math.inf

    def test_strip_total_mass_closed_form(self):
        # kappa(0,0) = log integral of exp(-x^2)/(1+x^2) = log(pi e erfc(1))
        assert cumulant(STRIP, [0.0, 0.0]) == pytest.approx(
            math.log(math.pi * math.e * erfc(1.0)), abs=1e-10
        )

    def test_strip_interior_against_2d_quadrature(self):
        def dens(x2, x1, t1, t2):
            return (
                math.exp(t1 * x1 + t2 * x2 - (x1 * x1 + x2 * x2 / (4 * (1 + x1 * x1))))
                / (2 * math.sqrt(math.pi) * (1 + x1 * x1) ** 1.5)
            )

        def kappa_2d(t1, t2):
            def inner(x1):
                s = math.sqrt(2.0 * (1 + x1 * x1))
                mu = 2.0 * t2 * (1 + x1 * x1)
                v, _ = quad(dens, mu - 14 * s, mu + 14 * s, args=(x1, t1, t2),
                            limit=200)
                return v

            v, _ = quad(inner, -15.0, 15.0, limit=200)
            return math.log(v)

        assert cumulant(STRIP, [0.3, 0.5]) == pytest.approx(
            kappa_2d(0.3, 0.5), abs=1e-9
        )

    def test_landau_dual_closed_form(self):
        assert cumulant(LANDAU, [0.0]) == pytest.approx(1.0)
        assert cumulant(LANDAU, [2.0]) == pytest.approx(2 * math.log(2) - 1)
        assert cumulant(LANDAU, [-0.1]) == math.inf

    def test_nan_input_rejected(self):
        with pytest.raises(NumericsError):
            cumulant(HW, [float("nan"), 0.0])


class TestMeanMap:
    def test_poisson_unit_mean(self):
        assert mean_map(POISSON, [0.0])[0] == pytest.approx(1.0)

    def test_hw_example_probabilities(self):
        np.testing.assert_allclose(
            mean_map(HW, [math.log(1.2), math.log(0.8)]), [0.3, 0.2], atol=1e-14
        )

    def test_gauss_parabola_standard_normal(self):
        np.testing.assert_allclose(
            mean_map(GAUSS_PARABOLA, [0.0, -0.5]), [0.0, 1.0], atol=1e-14
        )

    def test_outside_domain_raises(self):
        with pytest.raises(OutsideDomain):
            mean_map(GAUSS_PARABOLA, [0.0, 0.5])
        with pytest.raises(OutsideDomain):
            mean_map(LANDAU, [0.0])

    @pytest.mark.parametrize("name,theta", [
        ("hardy-weinberg-saturated", [0.4, -0.7]),
        ("poisson", [0.3]),
        ("gauss-parabola", [1.1, -0.8]),
        ("strip-measure", [0.4, 0.6]),
    ])
    def test_matches_finite_differences(self, name, theta):
        family = builtin(name)
        theta = np.asarray(theta, dtype=float)
        h = 1e-6
        grad = mean_map(family, theta)
        fd = np.empty(family.dim)
        for i in range(family.dim):
            e = np.zeros(family.dim)
            e[i] = h
            fd[i] = (cumulant(family, theta + e) - cumulant(family, theta - e)) / (2 * h)
        np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-6)


class TestHessian:
    def test_gauss_mean_constant(self):
        np.testing.assert_allclose(hessian(GAUSS_MEAN, [0.7]), [[1.0]])

    def test_poisson_second_derivative(self):
        np.testing.assert_allclose(
            hessian(POISSON, [math.log(2.0)]), [[2.0]], atol=1e-14
        )

    def test_hw_at_origin(self):
        expected = [[3 / 16, -1 / 16], [-1 / 16, 3 / 16]]
        np.testing.assert_allclose(hessian(HW, [0.0, 0.0]), expected, atol=1e-14)

    @pytest.mark.parametrize("name,theta", [
        ("hardy-weinberg-saturated", [0.5, 0.1]),
        ("gauss-parabola", [0.3, -1.2]),
        ("strip-measure", [0.2, -0.5]),
    ])
    def test_matches_gradient_differences(self, name, theta):
        family = builtin(name)
        theta = np.asarray(theta, dtype=float)
        h = 1e-5
        hess = hessian(family, theta)
        fd = np.empty((family.dim, family.dim))
        for i in range(family.dim):
            e = np.zeros(family.dim)
            e[i] = h
            fd[:, i] = (mean_map(family, theta + e) - mean_map(family, theta - e)) / (2 * h)
        np.testing.assert_allclose(fd, hess, rtol=1e-5, atol=1e-5)

    def test_positive_definite_on_random_interior(self, rng):
        for _ in range(25):
            theta = rng.uniform(-2.0, 2.0, size=2)
            eig = np.linalg.eigvalsh(hessian(HW, theta))
            assert np.all(eig > 0.0)


class TestLogLikelihood:
    def test_zero_at_origin_for_probability_families(self):
        assert log_likelihood(HW, [0.0, 0.0], [0.3, 0.2]) == pytest.approx(0.0)

    def test_hw_example_value(self):
        val = log_likelihood(HW, [math.log(1.2), math.log(0.8)], [0.3, 0.2])
        assert val == pytest.approx(
            0.3 * math.log(1.2) + 0.2 * math.log(0.8), abs=1e-14
        )

    def test_minus_infinity_off_domain(self):
        assert log_likelihood(STRIP, [0.0, 1.5], [1.0, 1.0]) == -math.inf


def _exact_loglik(family, theta, t):
    # theta.t in exact arithmetic, minus the package's kappa(theta)
    with mpmath.workprec(400):
        dot = mpmath.fsum(mpmath.mpf(a) * mpmath.mpf(b) for a, b in zip(theta, t))
        return dot - mpmath.mpf(cumulant(family, theta)), mpmath.fsum(
            abs(mpmath.mpf(a) * mpmath.mpf(b)) for a, b in zip(theta, t))


class TestLogLikelihoodPastOverflow:
    # t.theta sums two products that overflow to +inf and -inf; the plain sum
    # is NaN, and mpmath decides the value: -inf where the exact sum is past
    # the largest double, else the exact value to the rounding of its
    # products (2^-52 of the sum of their magnitudes)
    CASES = [
        ([1e10, -5e19], [1e300, 1e300]),         # exact -5e319
        ([2e10, -2e20], [1e300, 1e300]),         # exact -2e320
        ([1e10, -5e19], [1e300, 1.98e290]),      # exact 1e308, finite
        ([1e10, -5e19], [1e300, 1.9999e290]),    # exact 5e304, finite
    ]

    @pytest.mark.parametrize("theta, t", CASES)
    def test_point(self, theta, t):
        exact, size = _exact_loglik(GAUSS_PARABOLA, theta, t)
        got, want = log_likelihood(GAUSS_PARABOLA, theta, t), float(exact)
        if math.isinf(want):
            assert got == want == -math.inf
        else:
            assert abs(got - exact) <= size * 2.0 ** -52

    @pytest.mark.parametrize("t", sorted({tuple(t) for _, t in CASES}))
    def test_curve(self, t):
        # gauss-mean-eq-sd maps z to (z, -z^2/2), so z = 1e10 and 2e10 are
        # the cases' points; each curve value is its point's
        model = builtin_model("gauss-mean-eq-sd")
        zs = np.array([1e10, 2e10, 1.0])
        got = legendre.curve_loglik(model, np.array(t))(zs)
        want = [log_likelihood(GAUSS_PARABOLA, model.map(z), t) for z in zs]
        assert got.tolist() == want
        assert not np.isnan(got).any()

    def test_nan_kappa_raises(self):
        with pytest.raises(NumericsError, match="cumulant NaN on gp"):
            families._nan_loglik([math.nan], [[1.0]], [1.0], [math.nan], "gp")

    def test_nan_product_raises(self):
        # -inf * 0 at a finite kappa, as a user's curve into Hardy-Weinberg
        # can make; NaN is never a value
        with pytest.raises(NumericsError, match="log-likelihood NaN on hw"):
            families._nan_loglik([math.nan], [[-math.inf], [0.0]], [0.0, 0.5],
                                 [0.1], "hw")


class TestStripCurveBlowup:
    def test_monotone_divergence_along_curve(self):
        values = [
            cumulant(STRIP, [z, math.sqrt(1 - z ** 3)]) for z in (0.05, 0.02, 0.01)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 10.0

    def test_laplace_method_magnitude(self):
        # at z = 0.01 the peak is sharp enough for the second-order Laplace
        # estimate to pin the magnitude
        z = 0.01
        t2sq = 1 - z ** 3
        a2 = 1 - t2sq

        def g(x):
            return z * x - a2 * x * x + t2sq - math.log1p(x * x)

        def d2g(x):
            return -2 * a2 - 2 * (1 - x * x) / (1 + x * x) ** 2

        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda x: -g(x), bounds=(1.0, 1e6), method="bounded")
        laplace = g(res.x) + 0.5 * math.log(2 * math.pi / -d2g(res.x))
        measured = cumulant(STRIP, [z, math.sqrt(t2sq)])
        assert measured == pytest.approx(laplace, abs=5e-3)


class TestDiscreteFamilies:
    def test_logsumexp_matches_direct_sum(self, rng):
        fam = hw_discrete()
        atoms = fam.payload.atoms
        weights = fam.payload.weights
        for _ in range(50):
            theta = rng.uniform(-5.0, 5.0, size=2)
            direct = float(np.sum(weights * np.exp(atoms @ theta)))
            assert math.exp(cumulant(fam, theta)) == pytest.approx(
                direct, rel=1e-12
            )

    def test_matches_analytic_builtin(self, rng):
        fam = hw_discrete()
        for _ in range(25):
            theta = rng.uniform(-3.0, 3.0, size=2)
            assert cumulant(fam, theta) == pytest.approx(
                cumulant(HW, theta), abs=1e-13
            )
            np.testing.assert_allclose(
                mean_map(fam, theta), mean_map(HW, theta), atol=1e-13
            )

    @pytest.mark.parametrize("theta", [
        [700.0, -700.0], [-700.0, 700.0], [800.0, 799.0], [-750.0, -750.0],
    ])
    def test_large_theta_no_overflow(self, theta):
        fam = hw_discrete()
        assert math.isfinite(cumulant(fam, theta))
        mean = mean_map(fam, theta)
        hess = hessian(fam, theta)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(hess))
        # the closed triangle spanned by the atoms 0, e1, e2
        assert mean.min() >= 0.0 and mean.sum() <= 1.0 + 1e-15
        np.testing.assert_allclose(hess, hess.T, atol=1e-15)
        assert np.linalg.eigvalsh(hess).min() >= -1e-15

    def test_degenerate_atoms_rejected(self):
        with pytest.raises(ValueError, match="affine submanifold"):
            discrete_family(atoms=[[0.0, 0.0], [1.0, 1.0]], weights=[0.5, 0.5])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            discrete_family(
                atoms=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                weights=[0.5, 0.0, 0.5],
            )

    def test_mean_domain_is_open_hull(self):
        fam = hw_discrete()
        assert fam.domain.mean_domain(np.array([0.3, 0.2]))
        assert not fam.domain.mean_domain(np.array([0.6, 0.6]))
        assert not fam.domain.mean_domain(np.array([0.0, 0.2]))


class TestDomainSpec:
    def test_boundary_points_have_finite_cumulant(self):
        for name in builtin_names():
            fam = builtin(name)
            for b in fam.domain.boundary_points:
                assert math.isfinite(cumulant(fam, b))

    def test_interior_points_have_finite_cumulant(self, rng):
        boxes = {
            "hardy-weinberg-saturated": ([-3, -3], [3, 3]),
            "poisson": ([-3], [3]),
            "gauss-mean": ([-3], [3]),
            "gauss-parabola": ([-3, -4], [3, -0.1]),
            "landau-dual": ([0.1], [5.0]),
            "strip-measure": ([-1, -0.9], [1, 0.9]),
        }
        for name, (lo, hi) in boxes.items():
            fam = builtin(name)
            for _ in range(10):
                theta = rng.uniform(lo, hi)
                assert fam.domain.interior(theta)
                assert math.isfinite(cumulant(fam, theta))


# large natural points, and, where the essential domain is a proper subset,
# points on its boundary and outside it (kappa = +inf there)
EDGE_POINTS = {
    "hardy-weinberg-saturated": [[700.0, -700.0], [-750.0, 30.0]],
    "poisson": [[40.0], [-700.0]],
    "gauss-mean": [[1e150], [-3e5]],
    "gauss-parabola": [[0.0, 0.0], [1.0, 0.0], [0.5, 2.0], [3.0, -1e-300]],
    "landau-dual": [[0.0], [-1e-300], [-2.0], [1e300]],
    "strip-measure": [[0.0, 1.0], [0.0, -1.0], [0.3, 1.0], [0.0, 1.5],
                      [2.0, -1.0 + 1e-16]],
    "discrete": [[700.0, -700.0], [-750.0, -750.0]],
}


@pytest.mark.parametrize("name", sorted(EDGE_POINTS))
def test_cumulant_many_agrees_with_scalar(rng, name):
    fam = hw_discrete() if name == "discrete" else builtin(name)
    thetas = np.vstack([rng.uniform(-2.0, 2.0, size=(20, fam.dim)),
                        EDGE_POINTS[name]])
    many = cumulant_many(fam, thetas)
    scalar = np.array([cumulant(fam, row) for row in thetas])
    assert np.array_equal(np.isinf(many), np.isinf(scalar))
    assert np.isinf(many).any() == (name in ("gauss-parabola", "landau-dual",
                                             "strip-measure"))
    finite = np.isfinite(scalar)
    np.testing.assert_allclose(many[finite], scalar[finite], rtol=1e-14, atol=1e-13)


def test_landau_dual_kernels_agree_at_the_extremes():
    # at mu = +inf the batched kernel took inf * log(inf) - inf, a NaN with
    # an "invalid value" warning; past about 1e306 mu log mu overflows.
    # Both kernels give +inf there, without a warning
    fam = builtin("landau-dual")
    mus = [math.inf, 0.0, 1e-300, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        many = cumulant_many(fam, [[mu] for mu in mus])
        scalar = [fam.payload.cumulant(np.array([mu])) for mu in mus]
    assert many.tolist() == scalar == [math.inf, 1.0, 1.0, math.inf]


@pytest.mark.parametrize("name, theta, want", [
    # t1 * t1 overflows, so kappa is +inf
    ("gauss-parabola", [1e200, -1.0], math.inf),
    # th[0] - top overflows to -inf in the shift, and kappa is finite
    ("hardy-weinberg-saturated", [-1.7e308, 1.7e308], 1.7e308),
])
def test_scalar_kernels_are_quiet_at_huge_finite_points(name, theta, want):
    # the scalar kernels work in Python floats, which saturate without
    # numpy's overflow warning; the batched twins are quiet too
    fam = builtin(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = cumulant(fam, theta)
        many = cumulant_many(fam, [theta])
    assert scalar == want
    assert many.tolist() == [want]


def test_poisson_cumulant_is_inf_past_expm1_overflow():
    # e^theta - 1 is finite up to log of the largest double and +inf past
    # it, with no numpy overflow warning (pytest makes one an error)
    bound = math.log(sys.float_info.max)
    past = float(np.nextafter(bound, math.inf))
    assert math.isfinite(cumulant(POISSON, [bound]))
    assert cumulant(POISSON, [past]) == math.inf
    assert cumulant(POISSON, [800.0]) == math.inf
    many = cumulant_many(POISSON, [[bound], [past], [800.0], [math.inf], [1.0]])
    assert list(np.isinf(many)) == [False, True, True, True, False]
    assert many[0] == cumulant(POISSON, [bound])
    assert many[4] == cumulant(POISSON, [1.0])


def test_poisson_moments_past_expm1_overflow_are_outside_domain():
    # e^theta overflows where kappa is +inf: the mean map and the Hessian
    # raise the package's OutsideDomain, not a bare OverflowError
    bound = math.log(sys.float_info.max)
    assert math.isfinite(mean_map(POISSON, [bound])[0])
    for theta in (float(np.nextafter(bound, math.inf)), 800.0):
        with pytest.raises(OutsideDomain):
            mean_map(POISSON, [theta])
        with pytest.raises(OutsideDomain):
            hessian(POISSON, [theta])


def test_discrete_cumulant_many_takes_limits_at_infinite_rows():
    # an atom with 0 in an infinite coordinate does not see it; the limit
    # along the row is the scalar cumulant far out, with ±1e3 for ±inf
    fam = hw_discrete()
    inf = math.inf
    rows = np.array([[inf, 0.0], [-inf, 0.0], [0.0, -inf], [inf, -inf],
                     [-inf, -inf], [0.3, -0.2]])
    many = cumulant_many(fam, rows)
    far = np.array([cumulant(fam, row) for row in np.clip(rows, -1e3, 1e3)])
    assert many[1] == pytest.approx(math.log(0.5 + 0.25), rel=1e-15)
    finite = np.isfinite(many)
    assert list(finite) == [False, True, True, False, True, True]
    np.testing.assert_allclose(many[finite], far[finite], rtol=1e-15)
    assert np.all(many[~finite] == inf) and np.all(far[~finite] > 900.0)
    # the atom (1, 1) has logit inf - inf along (inf, -inf): no limit
    square = discrete_family([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                             [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(NumericsError):
        cumulant_many(square, [[0.3, 0.2], [inf, -inf]])


class TestHardyWeinbergBatchedKernel:
    """The unshifted exp/log kernel below |theta| = 700 and the shifted
    logaddexp form that an array past it takes, against the scalar
    cumulant."""

    @staticmethod
    def _rows(rng):
        # 4096 rows: most of moderate size, some out to |theta| = 700
        return np.vstack([
            rng.uniform(-5.0, 5.0, size=(3584, 2)),
            rng.uniform(-700.0, 700.0, size=(508, 2)),
            [[700.0, 700.0], [700.0, -700.0], [-700.0, -700.0], [0.0, 0.0]],
        ])

    @staticmethod
    def _many(arr):
        # neither kernel may warn on a NaN-free array, about overflow or
        # anything else
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cumulant_many(HW, arr)

    def test_agrees_with_scalar_up_to_700(self, rng):
        thetas = self._rows(rng)
        scalar = np.array([cumulant(HW, row) for row in thetas])
        np.testing.assert_allclose(self._many(thetas), scalar, rtol=1e-14, atol=1e-13)

    def test_rows_past_700_take_the_shifted_form(self, rng):
        thetas = np.vstack([self._rows(rng), [[710.0, 0.0], [0.0, 1e4], [1e4, -1e4]]])
        many = self._many(thetas)
        assert np.all(np.isfinite(many))
        assert many[-3] == pytest.approx(710.0 - math.log(4.0), rel=1e-15)
        scalar = np.array([cumulant(HW, row) for row in thetas])
        np.testing.assert_allclose(many, scalar, rtol=1e-14, atol=1e-13)

    def test_infinite_empty_and_nan_rows(self):
        inf = math.inf
        minus = np.array([[-inf, 0.0], [-inf, -inf], [3.0, -inf]])
        want = np.log(np.array([3.0, 2.0, 2.0 + math.exp(3.0)]) / 4.0)
        np.testing.assert_allclose(self._many(minus), want, rtol=1e-15)
        plus = self._many(np.vstack([minus, [[inf, 0.0], [-inf, inf]]]))
        np.testing.assert_allclose(plus[:3], want, rtol=1e-15)
        assert np.all(plus[3:] == inf)
        assert self._many(np.empty((0, 2))).shape == (0,)
        # a NaN row stays NaN, for the callers to raise on
        with np.errstate(invalid="ignore"):
            nan = cumulant_many(HW, np.array([[0.3, 0.2], [math.nan, 0.0]]))
        assert math.isfinite(nan[0]) and math.isnan(nan[1])

    def test_a_row_does_not_depend_on_its_batch(self, rng):
        thetas = self._rows(rng)
        many = self._many(thetas)
        for i, j in [(0, 1), (5, 23), (17, 2065), (1000, 4096), (4095, 4096)]:
            assert np.array_equal(many[i:j], self._many(thetas[i:j]))
        # curve_loglik passes the model map's (d, m) images, whose columns
        # are the rows of this Fortran-ordered array
        assert np.array_equal(many, self._many(np.asfortranarray(thetas)))
        assert np.array_equal(many, HW.payload.cumulant_many(np.ascontiguousarray(thetas.T)))

    def test_a_point_past_700_leaves_the_others_alone(self):
        # hw-line's images (z, -z) on [-3, 3], alone and with a point that
        # takes the shifted form
        z = np.linspace(-3.0, 3.0, 13)
        rows = np.column_stack([z, -z])
        alone = self._many(rows)
        for extra in ([800.0, -800.0], [-1e4, 750.0], [math.inf, 0.0]):
            joined = self._many(np.vstack([rows, extra]))
            assert joined[:-1].tobytes() == alone.tobytes()
        assert joined[-1] == math.inf
        with np.errstate(invalid="ignore"):
            nan = cumulant_many(HW, np.vstack([rows, [800.0, -800.0],
                                               [math.nan, 0.0]]))
        assert nan[:-2].tobytes() == alone.tobytes()
        assert nan[-2] == pytest.approx(800.0 - math.log(4.0), rel=1e-15)
        assert math.isnan(nan[-1])


inf = math.inf
# per family: the axes of a product grid, with points off the domain, the
# strip's boundary points and Hardy–Weinberg coordinates past 700
MESH_AXES = {
    "hardy-weinberg-saturated": ([-700.0, -3.0, 0.0, 0.7, 699.9, 700.0],
                                 [-745.0, -1.0, 0.0, 2.5, 700.0]),
    "hardy-weinberg-shifted": ([-inf, -3.0, 0.0, 700.5, 710.0, 1e4, inf],
                               [-inf, -800.0, 0.0, 2.5, 709.0]),
    "poisson": ([-inf, -800.0, -1.0, 0.0, 1.0, 709.78, 710.0, 1e300, inf],),
    "gauss-mean": ([-inf, -1e150, -3.0, -0.0, 0.0, 2.0, 1e150, inf],),
    "gauss-parabola": ([-1e200, -3.0, -0.0, 0.5, 2.0],
                       [-2.0, -1.0, -1e-300, -0.0, 0.0, 1.0, inf]),
    "landau-dual": ([-inf, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 3.0, 1e300],),
    "strip-measure": ([-2.0, -0.0, 0.0, 0.3, 3.0],
                      [-1.5, -1.0, -1.0 + 1e-16, -0.3, 0.0, 0.5, 1.0 - 1e-12,
                       1.0, 1.5]),
    "discrete": ([-inf, -750.0, -1.0, 0.0, 0.4, 700.0, inf],
                 [-inf, -2.0, 0.0, 1.5, 700.0]),
}


def _mesh_family(name):
    if name == "discrete":
        return hw_discrete()
    return builtin("hardy-weinberg-saturated" if name.startswith("hardy") else name)


def _mesh_and_rows(axes):
    arrays = [np.asarray(ax, dtype=float) for ax in axes]
    grid = np.meshgrid(*arrays, indexing="ij")
    return np.ix_(*arrays), np.column_stack([g.ravel() for g in grid])


@pytest.mark.parametrize("name", sorted(MESH_AXES))
def test_kernel_on_an_open_mesh_matches_its_rows(name):
    # the batched kernel takes broadcastable coordinates: on the open mesh of
    # the axes it gives the grid's kappa bit for bit as the same points
    # passed as rows
    fam = _mesh_family(name)
    axes = MESH_AXES[name]
    mesh, rows = _mesh_and_rows(axes)
    on_mesh = fam.payload.cumulant_many(mesh)
    assert on_mesh.shape == tuple(len(ax) for ax in axes)
    assert np.array_equal(on_mesh.ravel(), cumulant_many(fam, rows))
    assert np.isinf(on_mesh).any() == (name != "hardy-weinberg-saturated")


def test_kernel_mesh_keeps_the_boundary_and_shifted_values():
    strip_mesh, _ = _mesh_and_rows(MESH_AXES["strip-measure"])
    strip = STRIP.payload.cumulant_many(strip_mesh)
    edge = 1.0 + math.log(math.pi)
    # t1 = -0.0 and 0.0 at t2 = -1 and 1, and nowhere else
    assert np.array_equal(np.argwhere(strip == edge), [[1, 1], [1, 7], [2, 1], [2, 7]])
    hw_mesh, _ = _mesh_and_rows(MESH_AXES["hardy-weinberg-shifted"])
    hw = HW.payload.cumulant_many(hw_mesh)
    assert hw[4, 2] == pytest.approx(710.0 - math.log(4.0), rel=1e-15)
    assert np.all(hw[-1] == inf) and np.all(np.isfinite(hw[:-1]))


def _many_with_nan(fam, name, *args):
    """The batched kernel on each of ``args``; Hardy–Weinberg's logaddexp
    warns on NaN, and no other kernel may warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore" if name.startswith("hardy") else "warn"):
            return [fam.payload.cumulant_many(arg) for arg in args]


@pytest.mark.parametrize("name", sorted(MESH_AXES))
def test_kernel_mesh_with_a_nan_coordinate(name):
    # NaN raises in the strip and discrete kernels, and stays NaN in the
    # others, on a mesh as in rows: exactly the points with the NaN
    # coordinate are NaN
    fam = _mesh_family(name)
    axes = [list(ax) for ax in MESH_AXES[name]]
    axes[-1].append(math.nan)
    mesh, rows = _mesh_and_rows(axes)
    if name in ("strip-measure", "discrete"):
        with pytest.raises(NumericsError):
            fam.payload.cumulant_many(mesh)
        with pytest.raises(NumericsError):
            cumulant_many(fam, rows)
        return
    on_mesh, by_rows = _many_with_nan(fam, name, mesh, rows.T)
    assert np.array_equal(on_mesh.ravel(), by_rows, equal_nan=True)
    assert np.array_equal(np.isnan(by_rows), np.isnan(rows[:, -1]))


@pytest.mark.parametrize("name", sorted(MESH_AXES))
def test_kernel_rows_with_a_nan_in_each_coordinate(name):
    # every other row of the mesh gets a NaN in coordinate k: those rows are
    # NaN (or the call raises), whatever the row's other coordinates, and
    # the rest keep their values
    fam = _mesh_family(name)
    _, rows = _mesh_and_rows(MESH_AXES[name])
    want = cumulant_many(fam, rows)
    hit = np.arange(len(rows)) % 2 == 0
    for k in range(fam.dim):
        with_nan = rows.copy()
        with_nan[hit, k] = math.nan
        if name in ("strip-measure", "discrete"):
            with pytest.raises(NumericsError):
                cumulant_many(fam, with_nan)
            continue
        got, = _many_with_nan(fam, name, with_nan.T)
        assert np.array_equal(np.isnan(got), hit)
        # a NaN sends a Hardy–Weinberg call to the shifted form
        np.testing.assert_allclose(got[~hit], want[~hit], rtol=1e-14, atol=1e-13)


def test_strip_cumulant_many_agrees_with_scalar(rng):
    depth = rng.uniform(0.0, 15.0, size=200)
    thetas = np.column_stack([
        rng.uniform(-3.0, 3.0, size=200),
        rng.choice([-1.0, 1.0], size=200) * (1.0 - 10.0 ** -depth),
    ])
    thetas = np.vstack([thetas, [[0.0, 1.0], [0.0, -1.0], [0.3, 1.0], [0.0, 1.5]]])
    many = cumulant_many(STRIP, thetas)
    scalar = np.array([cumulant(STRIP, row) for row in thetas])
    np.testing.assert_allclose(many, scalar, rtol=1e-14)
    assert np.array_equal(np.isinf(many), np.isinf(scalar))
    with pytest.raises(NumericsError):
        cumulant_many(STRIP, [[0.3, 0.5], [float("nan"), 0.5]])


def strip_exact(t1, t2):
    """kappa, ∇kappa and Hess kappa of the strip measure at an interior
    point, in closed form and evaluated by mpmath at 50 digits.

    With a = 1 - t2^2 and zeta = -t1 / (2 sqrt(a)) + i sqrt(a),
        ∫ exp(t1 x - a x^2) / (1 + x^2) dx = pi exp(t1^2 / (4a)) Re w(zeta),
    where w(zeta) = exp(-zeta^2) erfc(-i zeta) is the Faddeeva function.
    So kappa = t2^2 + log(pi) + F(t1, a) with F = t1^2 / (4a) + log Re w,
    and the derivatives of F follow from w' = -2 zeta w + 2i / sqrt(pi)
    and w'' = -2w - 2 zeta w'; at 50 digits their cancellation far from
    the origin costs nothing.  Since ∫ exp(t1 x - a x^2) dx =
    sqrt(pi / a) exp(t1^2 / (4a)), the second mean coordinate
    2 t2 E[1 + x^2] needs no further integral.
    """
    with mpmath.workdps(50):
        t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
        a = (1 - t2) * (1 + t2)
        root = mpmath.sqrt(a)
        zeta = mpmath.mpc(-t1 / (2 * root), root)
        w = mpmath.exp(-zeta * zeta) * mpmath.erfc(-1j * zeta)
        dw = -2 * zeta * w + 2j / mpmath.sqrt(mpmath.pi)
        d2w = -2 * w - 2 * zeta * dw
        kappa = t2 * t2 + t1 * t1 / (4 * a) + mpmath.log(mpmath.pi * w.real)
        mean_x = t1 / (2 * a) - dw.real / (2 * root * w.real)
        mean_y = 2 * t2 / (mpmath.sqrt(mpmath.pi * a) * w.real)
        # partial derivatives of zeta in t1 and a, then of log Re w
        z1 = -1 / (2 * root)
        za = mpmath.mpc(t1 / (4 * root ** 3), 1 / (2 * root))
        z1a = 1 / (4 * root ** 3)
        zaa = mpmath.mpc(-3 * t1 / (8 * root ** 5), -1 / (4 * root ** 3))
        r1 = (dw * z1).real / w.real
        ra = (dw * za).real / w.real
        f11 = 1 / (2 * a) + (d2w * z1 * z1).real / w.real - r1 * r1
        f1a = -t1 / (2 * a * a) + (d2w * z1 * za + dw * z1a).real / w.real - r1 * ra
        faa = t1 * t1 / (2 * a ** 3) + (d2w * za * za + dw * zaa).real / w.real - ra * ra
        fa = -t1 * t1 / (4 * a * a) + ra
        h12 = -2 * t2 * f1a
        hess = [[f11, h12], [h12, 2 - 2 * fa + 4 * t2 * t2 * faa]]
        return (
            float(kappa),
            np.array([float(mean_x), float(mean_y)]),
            np.array([[float(v) for v in row] for row in hess]),
        )


def relative_error(got, want):
    # relative per entry, floored at 1 where an entry vanishes
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))


def assert_matches_exact(theta, rtol=1e-12, hess_rtol=1e-10):
    kappa, grad, hess = strip_exact(*theta)
    assert cumulant(STRIP, theta) == pytest.approx(kappa, rel=rtol)
    assert relative_error(mean_map(STRIP, theta), grad) <= rtol, theta
    assert relative_error(hessian(STRIP, theta), hess) <= hess_rtol, theta


class TestStripAgainstMpmath:
    def test_exact_form_matches_mpmath_quadrature(self):
        with mpmath.workdps(30):
            t1, t2 = mpmath.mpf("0.3"), mpmath.mpf("0.5")
            a = 1 - t2 * t2
            mass = mpmath.quad(
                lambda x: mpmath.exp(t1 * x - a * x * x + t2 * t2) / (1 + x * x),
                [-mpmath.inf, 0, mpmath.inf],
            )
            assert strip_exact(0.3, 0.5)[0] == pytest.approx(
                float(mpmath.log(mass)), rel=1e-15
            )

    def test_curve_cumulant_where_the_window_missed_the_origin_mode(self):
        theta = builtin_model("strip-curve").map(0.012206095626194695)
        assert cumulant(STRIP, theta) == pytest.approx(
            strip_exact(*theta)[0], rel=1e-8
        )

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("t1", [-2.8, -1.0, 0.01, 2.0])
    def test_near_boundary_grid(self, t1, sign, k):
        # at (0.01, 1 - 1e-6) the tilt is bimodal: a far peak near
        # t1 / (2(1 - t2^2)) and a mode at the origin from 1/(1+x^2).
        # At (-2.8, 1 - 1e-12) and (-2.8, 1 - 1e-14) the far peak sits
        # beyond |x| = 1e12, where a quadrature in x loses its nodes to
        # the spacing of doubles
        assert_matches_exact(np.array([t1, sign * (1.0 - 10.0 ** -k)]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        t1=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        depth=st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
        negative=st.booleans(),
    )
    def test_gradient_up_to_the_strip_boundary(self, t1, depth, negative):
        t2 = 1.0 - 10.0 ** -depth if depth > 0.0 else 0.0
        assert_matches_exact(np.array([t1, -t2 if negative else t2]))


def test_strip_curve_mass_makes_no_peak_search(monkeypatch):
    # the strip cumulant is a closed form: a posterior mass on the strip
    # curve integrates it without any peak search
    from expldp import models, quadrature

    calls = []
    original = quadrature.locate_peak

    def counting_peak(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("expldp") and getattr(module, "locate_peak", None) is original:
            monkeypatch.setattr(module, "locate_peak", counting_peak)
    prior = models.uniform_prior(builtin_model("strip-curve"), 0.0, 1.0)
    models.log_posterior_mass(prior, [0.3, 0.5], 128, models.event_interval(0.0, 0.12))
    assert calls == []
