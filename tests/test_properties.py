"""Property suites: convexity, Fenchel-Young, stability, and exactness
invariants under randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expldp import builtin, conjugate, cumulant, discrete_family, kl_divergence, mean_map
from expldp.intervals import Interval, complement, intersect_unions, normalize_union
from expldp.models import ModelEvent
from expldp.oracles import TrinomialSpec, multinomial_mle_tail
from expldp.models import event_interval
from expldp.tables import fmt

HW = builtin("hardy-weinberg-saturated")
POISSON = builtin("poisson")
GAUSS_MEAN = builtin("gauss-mean")

finite_theta = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

COMMON = dict(deadline=None, derandomize=True)


@settings(max_examples=60, **COMMON)
@given(a1=finite_theta, a2=finite_theta, b1=finite_theta, b2=finite_theta, s=unit)
def test_cumulant_convexity_hw(a1, a2, b1, b2, s):
    ta = np.array([a1, a2])
    tb = np.array([b1, b2])
    lhs = cumulant(HW, s * ta + (1 - s) * tb)
    rhs = s * cumulant(HW, ta) + (1 - s) * cumulant(HW, tb)
    assert lhs <= rhs + 1e-10


@settings(max_examples=60, **COMMON)
@given(theta=finite_theta, other=finite_theta)
def test_fenchel_young_poisson(theta, other):
    t = mean_map(POISSON, [other])
    res = conjugate(POISSON, t)
    assert res.value + cumulant(POISSON, [theta]) >= theta * t[0] - 1e-8


@settings(max_examples=60, **COMMON)
@given(theta=finite_theta)
def test_inverse_pair_gauss_mean(theta):
    t = mean_map(GAUSS_MEAN, [theta])
    res = conjugate(GAUSS_MEAN, t)
    assert abs(res.argmax[0] - theta) <= 1e-7


@settings(max_examples=40, **COMMON)
@given(
    w=st.tuples(*[st.floats(min_value=0.05, max_value=5.0) for _ in range(3)]),
    t1=finite_theta,
    t2=finite_theta,
)
def test_discrete_logsumexp_identity(w, t1, t2):
    fam = discrete_family(
        atoms=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], weights=list(w)
    )
    theta = np.array([t1, t2])
    direct = float(np.sum(np.array(w) * np.exp(fam.payload.atoms @ theta)))
    assert math.exp(cumulant(fam, theta)) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=60, **COMMON)
@given(a1=finite_theta, a2=finite_theta, b1=finite_theta, b2=finite_theta)
def test_kl_nonnegative_hw(a1, a2, b1, b2):
    assert kl_divergence(HW, [a1, a2], [b1, b2]) >= -1e-12


bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=80, **COMMON)
@given(lo=bounded, hi=bounded)
def test_event_complement_partitions(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    ev = event_interval(lo, hi)
    comp = ev.complement()
    for z in (lo - 1.0, lo, 0.5 * (lo + hi), hi, hi + 1.0):
        assert ev.contains(z) != comp.contains(z)


@settings(max_examples=80, **COMMON)
@given(
    ivs=st.lists(
        st.tuples(bounded, bounded).map(lambda p: Interval(min(p), max(p))),
        min_size=1, max_size=4,
    )
)
def test_normalize_union_idempotent_and_sorted(ivs):
    merged = normalize_union(ivs)
    assert normalize_union(merged) == merged
    los = [iv.lo for iv in merged]
    assert los == sorted(los)
    for a, b in zip(merged, merged[1:]):
        assert a.hi <= b.lo


@settings(max_examples=50, **COMMON)
@given(
    ivs=st.lists(
        st.tuples(bounded, bounded).map(lambda p: Interval(min(p), max(p))),
        min_size=1, max_size=3,
    ),
    z=bounded,
)
def test_complement_membership(ivs, z):
    ev = ModelEvent(tuple(ivs))
    inside = ev.contains(z)
    outside = any(iv.contains(z) for iv in complement(ev.intervals))
    assert inside != outside


@settings(max_examples=50, **COMMON)
@given(
    a=st.tuples(bounded, bounded).map(lambda p: Interval(min(p), max(p))),
    b=st.tuples(bounded, bounded).map(lambda p: Interval(min(p), max(p))),
    z=bounded,
)
def test_intersection_membership(a, b, z):
    both = intersect_unions((a,), (b,))
    assert (a.contains(z) and b.contains(z)) == any(
        iv.contains(z) for iv in both
    )


@settings(max_examples=80, **COMMON)
@given(x=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_csv_float_format_round_trips(x):
    rendered = fmt(float(x))
    assert float(rendered) == pytest.approx(x, rel=1e-11, abs=1e-11)


@settings(max_examples=25, **COMMON)
@given(n=st.integers(min_value=1, max_value=40), t1=finite_theta, t2=finite_theta)
def test_enumeration_total_mass(n, t1, t2):
    ev = ModelEvent((Interval(-math.inf, math.inf),))
    spec = TrinomialSpec.from_theta0(n, [t1, t2], ev)
    assert multinomial_mle_tail(spec).probability == pytest.approx(1.0, abs=1e-12)


endpoint = st.one_of(st.floats(min_value=-8.0, max_value=8.0),
                     st.sampled_from([-math.inf, math.inf]))


@st.composite
def event_unions(draw):
    ivs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lo, hi = sorted((draw(endpoint), draw(endpoint)))
        ivs.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return ModelEvent(tuple(ivs))


@settings(max_examples=100, **COMMON)
@given(
    n=st.integers(min_value=1, max_value=60),
    t1=st.floats(min_value=-30.0, max_value=30.0),
    t2=st.floats(min_value=-30.0, max_value=30.0),
    event=event_unions(),
)
def test_conditional_tail_matches_enumeration(enumerate_outcomes, n, t1, t2, event):
    # |theta| up to 30 puts a cell probability near 1e-13 and rows deep in
    # their binomial tails; the reference sums every count triple, and its
    # rounding (log-factorials near 190 at n = 60) sets the absolute floor
    spec = TrinomialSpec.from_theta0(n, [t1, t2], event)
    want, _ = enumerate_outcomes(spec)
    got = multinomial_mle_tail(spec).log_probability
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@settings(max_examples=40, **COMMON)
@given(
    x=st.floats(min_value=0.05, max_value=0.6),
    frac=st.floats(min_value=0.1, max_value=0.9),
)
def test_hw_mle_formula_is_stationary(hw_line_mle_coordinate, x, frac):
    y = frac * min(0.6, 0.95 - x)
    z = hw_line_mle_coordinate((x, y))
    grad = mean_map(HW, [z, -z])
    # derivative of the restricted likelihood along the line vanishes
    assert (x - grad[0]) - (y - grad[1]) == pytest.approx(0.0, abs=1e-12)
