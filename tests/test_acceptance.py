"""Acceptance gate: every exit criterion at its pinned tolerance.

Each test prints one pass/fail line; the same checks back the CLI verify
subcommand.  The criterion tests share one full ``verify_suite`` run, so
each scenario is built once for the whole module, as in ``expldp verify``."""

import dataclasses
import math
from collections import Counter

import pytest

from expldp import acceptance, scenarios
from expldp.tables import Table


def _count_builds(mp):
    """Wrap every registered scenario builder so that calls are counted."""
    builds = Counter()
    for name, scenario in list(scenarios._SCENARIOS.items()):
        def counted(name=name, builder=scenario.builder):
            builds[name] += 1
            return builder()
        mp.setitem(scenarios._SCENARIOS, name,
                   dataclasses.replace(scenario, builder=counted))
    return builds


@pytest.fixture(scope="module")
def suite():
    with pytest.MonkeyPatch.context() as mp:
        builds = _count_builds(mp)
        results = {r.name: r for r in acceptance.verify_suite()}
    return results, builds


def _run(suite, name):
    result = suite[0][name]
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_closed_form_reproduction(suite):
    result = _run(suite, "1-closed-form-hw")
    assert result.seconds < 1.0


@pytest.mark.parametrize("dz, drate, passed", [
    (0.0, 0.0, True), (1e-3, 0.0, False), (0.0, 1e-6, False),
])
def test_criterion_1_reads_the_hw_posterior_table(dz, drate, passed):
    # theta_nu = (z, -z) from the table's metadata, the rate from its z = 0 row
    z, kl = math.log(11.0 / 9.0) + dz, acceptance._binomial_kl_two_trials(0.55, 0.5)
    table = Table("posterior_rate", ("coordinate", "rate"),
                  [(-0.5, 1.0), (0.0, kl + drate)], {"theta_nu": [z, -z]})
    assert acceptance.check_closed_form_hw({"posterior_rate": table}).passed == passed


@pytest.mark.parametrize("affine_max, passed", [(0.0, True), (2e-10, False)])
def test_criterion_3_reads_the_hw_pythagoras_table(affine_max, passed):
    # the affine half is the table's max_abs_residual; the curved half is
    # computed and passes on its own
    table = Table("pythagoras", ("coordinate", "residual"), [(0.0, affine_max)],
                  {"max_abs_residual": affine_max})
    assert acceptance.check_pythagoras({"pythagoras": table}).passed == passed


def test_criterion_2_posterior_decay_convergence(suite):
    result = _run(suite, "2-posterior-decay")
    assert result.seconds < 30.0


def test_criterion_3_pythagorean_identity(suite):
    _run(suite, "3-pythagoras")


def test_criterion_4_legendre_correctness(suite):
    _run(suite, "4-legendre")


def test_criterion_5_mle_ldp_oracle(suite):
    result = _run(suite, "5-mle-oracle")
    assert result.seconds < 60.0


def test_criterion_6_parametric_sanov_failure(suite):
    _run(suite, "6-sanov-failure")


def test_criterion_7_boundary_pathology(suite):
    _run(suite, "7-boundary-domain")


def test_criterion_8_duality(suite):
    _run(suite, "8-duality")


def test_criterion_9_landau_numerics(suite):
    _run(suite, "9-landau-dual-numerics")


def test_criterion_10_property_suites(suite):
    _run(suite, "10-property-suites")


# Bounds beside the criteria's own tolerances: 100 times each measured
# value, rounded up, and no tighter than 1e-13.  Criteria 2 and 5 are left
# out; criteria 4, 8 and 10 draw seeded points, so their bounds hold at the
# default seed
SEEDED = {"4-legendre", "8-duality", "10-property-suites"}
TIGHT_BOUNDS = [
    ("1-closed-form-hw", "coordinate_error", 1e-13),
    ("1-closed-form-hw", "rate_error", 1e-13),
    ("3-pythagoras", "affine_max", 1e-13),
    ("4-legendre", "worst_closed_form_error", 1e-13),
    ("4-legendre", "worst_gap_over_step", 2e-2),
    ("6-sanov-failure", "max_certificate_diff", 2e-7),
    ("6-sanov-failure", "gap_at_truth", 1e-13),
    ("8-duality", "max_gap", 4e-13),
    ("8-duality", "max_closed_form_error", 2e-13),
    ("8-duality", "max_swapped_gap", 2e-13),
    ("9-landau-dual-numerics", "worst_cgf_error", 1e-13),
    ("10-property-suites", "gradient_fd_worst", 5e-8),
    ("10-property-suites", "inverse_pair_worst", 8e-9),
]


@pytest.mark.parametrize("criterion, quantity, bound", TIGHT_BOUNDS)
def test_measured_values_within_tight_bounds(suite, criterion, quantity, bound):
    if criterion in SEEDED and acceptance._seed() != acceptance.DEFAULT_SEED:
        pytest.skip(f"{criterion}'s bound is measured at the default seed")
    measured = suite[0][criterion].measured[quantity]
    assert measured <= bound, f"{criterion} {quantity}={measured:g} > {bound:g}"


def test_full_suite_builds_each_scenario_once(suite):
    assert suite[1] == {name: 1 for name in scenarios.scenario_names()}


def test_each_suite_call_builds_again(monkeypatch):
    builds = _count_builds(monkeypatch)
    acceptance.verify_suite("7-boundary")
    acceptance.verify_suite("7-boundary")
    assert builds == {"strip-boundary": 2}


def test_verify_suite_filtering_and_report():
    results = acceptance.verify_suite("1-closed")
    assert [r.name for r in results] == ["1-closed-form-hw"]
    report = acceptance.format_report(results)
    assert "all 1 criteria passed" in report
    assert len(acceptance.CRITERIA) == 10
