import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom

from expldp import TrinomialSpec, builtin_model, curved_line_min_oracle, multinomial_mle_tail
from expldp.errors import TooLarge
from expldp.models import ModelEvent, event_at_least, event_interval, fit_rate_limit
from expldp.intervals import Interval
from expldp.oracles import _mle_coordinates, enumeration_rates
from expldp.rates import contraction_rate


class TestTrinomialSpec:
    def test_probabilities_from_origin(self):
        spec = TrinomialSpec.from_theta0(1, [0.0, 0.0], event_at_least(0.5))
        assert spec.probabilities == pytest.approx((0.5, 0.25, 0.25))

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            TrinomialSpec(n=3, probabilities=(0.5, 0.5, 0.1),
                          event=event_at_least(0.0))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_outcome_count_stars_and_bars(self, n, enumerate_outcomes):
        spec = TrinomialSpec.from_theta0(n, [0.0, 0.0], event_at_least(0.0))
        assert enumerate_outcomes(spec)[1] == (n + 1) * (n + 2) // 2
        # the conditional sum has one term per r = n1 + n2 for its one run
        assert multinomial_mle_tail(spec).outcomes == n + 1

    def test_n2_zero_mle_event(self):
        # counts with n1 = n2 have MLE coordinate exactly zero:
        # (2,0,0) with probability 1/4 and (0,1,1) with probability 1/8
        ev = ModelEvent((Interval(0.0, 0.0),))
        spec = TrinomialSpec.from_theta0(2, [0.0, 0.0], ev)
        result = multinomial_mle_tail(spec)
        assert result.probability == pytest.approx(0.375, abs=1e-15)

    def test_all_outcomes_sum_to_one(self):
        # the mass identity is asserted internally; a full event returns 1
        ev = ModelEvent((Interval(-math.inf, math.inf),))
        for n in (1, 2, 10, 100):
            spec = TrinomialSpec.from_theta0(n, [0.1, -0.2], ev)
            assert multinomial_mle_tail(spec).probability == pytest.approx(
                1.0, abs=1e-12
            )

    def test_cap_enforced(self):
        spec = TrinomialSpec.from_theta0(2001, [0.0, 0.0], event_at_least(0.5))
        with pytest.raises(TooLarge):
            multinomial_mle_tail(spec)

    def test_extrapolated_rates_match_contraction(self):
        schedule = tuple(range(100, 1601, 100))
        rates = enumeration_rates([0.0, 0.0], event_at_least(0.5), schedule)
        extrapolated = fit_rate_limit(schedule, rates)
        target = contraction_rate(builtin_model("hw-line"), np.zeros(2), 0.5)
        assert abs(extrapolated - target) / target < 0.05


def _coordinate(n, d):
    """Constrained-MLE coordinate log(n + d) - log(n - d) of the count
    difference d = n1 - n2, with the two degenerate corners at -inf/+inf."""
    num, den = n + d, n - d
    if den == 0:
        return math.inf
    if num == 0:
        return -math.inf
    return math.log(num) - math.log(den)


# events as an interval union and as a plain predicate on the coordinate;
# the +-inf corners belong to any unbounded side they point into
_EVENTS = {
    "at-least": (event_at_least(0.5), lambda z: z >= 0.5),
    "half-open": (
        ModelEvent((Interval(-0.3, 0.4, lo_closed=False),)),
        lambda z: -0.3 < z <= 0.4,
    ),
    "two-sided": (
        ModelEvent((Interval(-math.inf, -0.7),
                    Interval(0.2, math.inf, lo_closed=False))),
        lambda z: z <= -0.7 or z > 0.2,
    ),
    "lower-tail-and-window": (
        ModelEvent((Interval(-math.inf, -1.1, hi_closed=False),
                    Interval(0.0, 0.3))),
        lambda z: z < -1.1 or 0.0 <= z <= 0.3,
    ),
}


class TestEnumerationAgainstIndependentSums:
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1600, 2000])
    @pytest.mark.parametrize("name", sorted(_EVENTS))
    def test_binomial_reference_at_origin(self, n, name):
        # at theta0 = 0 the outcomes 0, e1, e2 have probabilities 1/2, 1/4,
        # 1/4, so n1 - n2 = K - n with K ~ Binomial(2n, 1/2)
        event, member = _EVENTS[name]
        ks = [k for k in range(2 * n + 1) if member(_coordinate(n, k - n))]
        want = float(logsumexp(binom.logpmf(ks, 2 * n, 0.5))) if ks else -math.inf
        got = multinomial_mle_tail(TrinomialSpec.from_theta0(n, [0.0, 0.0], event))
        if math.isinf(want):
            assert got.log_probability == want
        else:
            # both sums round at the 1e-11 of the enumeration's mass check
            assert got.log_probability == pytest.approx(want, rel=1e-12, abs=1e-11)

    def test_deep_tail_stays_finite(self):
        # P(z >= 6) at n = 2000 is about exp(-2710.75): far below the
        # smallest double, and below what binom.logsf resolves (it returns
        # -inf here), so the reference sums the log pmf over the k-range
        n = 2000
        ks = [k for k in range(2 * n + 1) if _coordinate(n, k - n) >= 6.0]
        want = float(logsumexp(binom.logpmf(ks, 2 * n, 0.5)))
        assert want == pytest.approx(-2710.7508528546, rel=1e-12)
        got = multinomial_mle_tail(
            TrinomialSpec.from_theta0(n, [0.0, 0.0], event_at_least(6.0)))
        assert got.probability == 0.0
        assert got.log_probability == pytest.approx(want, rel=1e-12)
        assert got.rate == pytest.approx(-want / n, rel=1e-12)

    def test_endpoint_hit_exactly_by_a_count(self):
        # at n = 2 the counts (n1, n2) = (2, 0) and (1, 0) give n1 - n2 = 2
        # and 1; the latter has coordinate log 3 - log 1, exactly the
        # endpoint, so K >= 3 when closed and K = 4 when open
        closed = event_at_least(math.log(3.0))
        opened = ModelEvent((Interval(math.log(3.0), math.inf, lo_closed=False),))
        for event, want in ((closed, 0.3125), (opened, 0.0625)):
            spec = TrinomialSpec.from_theta0(2, [0.0, 0.0], event)
            assert multinomial_mle_tail(spec).probability == pytest.approx(
                want, rel=1e-14)

    @pytest.mark.parametrize("name", ["two-sided", "lower-tail-and-window"])
    def test_per_outcome_loop(self, rng, name):
        event, member = _EVENTS[name]
        for n in range(1, 13):
            theta0 = rng.uniform(-2.0, 2.0, size=2)
            spec = TrinomialSpec.from_theta0(n, theta0, event)
            p0, p1, p2 = spec.probabilities
            want = 0.0
            for n1 in range(n + 1):
                for n2 in range(n + 1 - n1):
                    n0 = n - n1 - n2
                    if member(_coordinate(n, n1 - n2)):
                        ways = math.factorial(n) // (
                            math.factorial(n0) * math.factorial(n1) * math.factorial(n2))
                        want += ways * p0 ** n0 * p1 ** n1 * p2 ** n2
            # one term per r = n1 + n2 for each run of member count differences
            members = [False] + [member(_coordinate(n, d)) for d in range(-n, n + 1)]
            runs = sum(b and not a for a, b in zip(members, members[1:]))
            got = multinomial_mle_tail(spec)
            assert got.outcomes == (n + 1) * runs
            assert got.probability == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.fixture
def against_reference(enumerate_outcomes):
    """Asserts the conditional sum's log P equals the enumeration's at rel
    1e-12, and returns it."""
    def check(spec):
        want, _ = enumerate_outcomes(spec)
        got = multinomial_mle_tail(spec).log_probability
        assert got == pytest.approx(want, rel=1e-12)
        return got
    return check


class TestConditionalSumAgainstEnumeration:
    @pytest.mark.parametrize("d", [-7, 0, 3, 20])
    def test_endpoints_hit_exactly_by_a_count(self, against_reference, d):
        # the endpoints are the coordinates of the count differences d and
        # d + 15 themselves, so closing or opening an end adds or drops a count
        n = 100
        coords = _mle_coordinates(n)
        lo, hi = float(coords[n + d]), float(coords[n + d + 15])
        got = {
            (lo_closed, hi_closed): against_reference(TrinomialSpec.from_theta0(
                n, [0.3, 0.2], event_interval(lo, hi, lo_closed, hi_closed)))
            for lo_closed in (True, False) for hi_closed in (True, False)
        }
        assert got[True, True] > got[False, True]
        assert got[True, False] > got[False, False]
        assert len(set(got.values())) == 4

    @pytest.mark.parametrize("lo,hi", [(0.5, 1.0), (-1.0, -0.5), (-0.2, 0.3)],
                             ids=["upper-tail", "lower-tail", "straddles-mode"])
    @pytest.mark.parametrize("n", [1, 2, 300, 2000])
    def test_bounded_window(self, against_reference, n, lo, hi):
        # at theta0 = 0 the conditional law of n1 given r is Bin(r, 1/2), so
        # a window of positive coordinates lies in every row's upper tail,
        # one of negative coordinates in the lower tail, and one around 0
        # holds the conditional mode
        against_reference(
            TrinomialSpec.from_theta0(n, [0.0, 0.0], event_interval(lo, hi)))

    @pytest.mark.parametrize("theta0", [(0.3, 0.2), (-1.0, 0.5)])
    @pytest.mark.parametrize("name", sorted(_EVENTS))
    @pytest.mark.parametrize("n", [1, 2, 57, 400])
    def test_off_model_theta0(self, against_reference, n, name, theta0):
        against_reference(TrinomialSpec.from_theta0(n, theta0, _EVENTS[name][0]))

    @pytest.mark.parametrize("n", [1, 2, 9, 2000])
    def test_corners_alone(self, against_reference, n):
        # past the largest finite coordinate log(2n - 1) only the corner
        # d = n (every draw e1) is left, and below its negative only d = -n
        spec = TrinomialSpec.from_theta0(n, [-1.0, 0.5], event_at_least(50.0))
        got = against_reference(spec)
        assert got == pytest.approx(n * math.log(spec.probabilities[1]), rel=1e-12)
        spec = TrinomialSpec.from_theta0(
            n, [-1.0, 0.5], ModelEvent((Interval(-math.inf, -50.0),)))
        got = against_reference(spec)
        assert got == pytest.approx(n * math.log(spec.probabilities[2]), rel=1e-12)

    def test_rare_cell_counted_by_its_own_probability(self, against_reference):
        # with p0 = 3e-14, p1 + p2 is 1 - p0 rounded to a double, whose
        # complement is off in the third digit; only the counts (n0, n1,
        # n2) = (1, n - 1, 0) reach d = n - 1, so log P carries log p0 exactly
        n = 40
        z = float(_mle_coordinates(n)[2 * n - 1])
        spec = TrinomialSpec(n, (3e-14, 0.6, 0.4 - 3e-14), event_interval(z, z))
        got = against_reference(spec)
        assert got == pytest.approx(
            math.log(n * 3e-14) + (n - 1) * math.log(0.6), rel=1e-12)

    def test_deep_row_fallback(self, against_reference):
        # q = p2 / (p1 + p2) is about 2.5e-15, and the rows r = 44..46 have
        # window masses near 1e-294: scipy's binomial logsf is wrong there in
        # the fourth digit, so only summing the pmf terms matches
        event = ModelEvent((Interval(-math.inf, 0.19339403794577592,
                                     hi_closed=False),))
        spec = TrinomialSpec.from_theta0(48, [21.55527577, -12.04864176], event)
        assert against_reference(spec) == pytest.approx(-708.26248127, rel=1e-10)


class TestCurvedLineOracle:
    def test_identity_point_at_truth(self):
        value, arg = curved_line_min_oracle(1.0, 1.0)
        assert arg == pytest.approx(1.0, abs=1e-7)
        assert abs(value) < 1e-10

    def test_strict_improvement_over_identity_point(self):
        # at theta = 2 the minimum is strictly below the rate at the
        # identity point x = 1/theta of the line
        value, arg = curved_line_min_oracle(1.0, 2.0)
        c = 2.0
        x_id = 1.0 / c
        g = 1.0 / (c * c) + x_id / c
        iota_id = (
            -0.5 * math.log(g - x_id * x_id) - 0.0 - 1.0 * x_id + 0.5 * g
        )
        assert value < iota_id - 1e-4

    def test_refinement_is_monotone_and_converges(self):
        values = []
        for rounds in (0, 2, 4, 8, 12):
            v, _ = curved_line_min_oracle(1.0, 2.0, n_grid=801,
                                          refine_rounds=rounds)
            values.append(v)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - values[-2]) < 1e-6

    def test_positive_coordinates_required(self):
        with pytest.raises(ValueError):
            curved_line_min_oracle(-1.0, 2.0)

    @pytest.mark.parametrize("coord", [0.5, 1.5, 2.0])
    def test_agrees_with_line_minimize_after_polish(self, coord):
        # two independent routes to the same minimum: the analytic rate
        # profile on a refined grid vs Newton conjugation plus the
        # stationarity-certificate polish
        model = builtin_model("gauss-mean-eq-sd")
        value, _ = curved_line_min_oracle(1.0, coord)
        tilde = contraction_rate(model, model.map(1.0), coord)
        assert abs(value - tilde) <= 1e-8
