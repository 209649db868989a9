"""Scenario registry: the four worked examples as runnable pipelines.

Each scenario emits deterministic tables (CSV primary, JSON mirrors) and,
where relevant, JSON reports.  No randomness is involved, so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import landau, legendre, models, oracles, rates
from .errors import UnknownScenario
from .families import cumulant, log_likelihood
from .intervals import Interval
from .models import (
    ModelEvent,
    builtin_model,
    decay_rate_estimate,
    event_at_least,
    limiting_mle,
    uniform_prior,
    with_adjoined_origin,
)
from .tables import Table, _jsonable


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    builder: Callable[[], tuple]


# ---------------------------------------------------------------------------
# hardy-weinberg
# ---------------------------------------------------------------------------

HW_MU0 = np.array([0.3, 0.2])
HW_SCHEDULE = tuple(64 * 2 ** k for k in range(7))
HW_ORACLE_SCHEDULE = tuple(range(100, 1601, 100))


def _build_hardy_weinberg():
    model = builtin_model("hw-line")
    family = model.family
    prior = uniform_prior(model, -3.0, 3.0)
    mu0 = HW_MU0

    grid = np.linspace(-1.0, 1.0, 81)
    table_rate = rates.posterior_rate(prior, mu0, grid).to_table("posterior_rate")

    event = event_at_least(0.5)
    decay = decay_rate_estimate(prior, mu0, event, HW_SCHEDULE)
    target = (table_rate.metadata["constrained_max_value"]
              - log_likelihood(family, model.map(0.5), mu0))
    table_decay = Table(
        name="decay_rates",
        columns=("n", "rate"),
        rows=[(n, float(r)) for n, r in zip(decay.schedule, decay.rates)],
        metadata={
            "event": event.to_json(),
            "extrapolated": decay.extrapolated,
            "target_rate": target,
            "relative_error": abs(decay.extrapolated - target) / target,
        },
    )

    zs = np.linspace(-2.0, 2.0, 50)
    residuals = rates.pythagorean_residual(model, model.map(zs).T, mu0)
    rows = list(zip(zs.tolist(), residuals.tolist()))
    table_pyta = Table(
        name="pythagoras",
        columns=("coordinate", "residual"),
        rows=rows,
        metadata={"max_abs_residual": max(abs(r) for _, r in rows)},
    )

    theta0_origin = np.zeros(2)
    oracle_rates = oracles.enumeration_rates(
        theta0_origin, event, HW_ORACLE_SCHEDULE
    )
    extrapolated = models.fit_rate_limit(HW_ORACLE_SCHEDULE, oracle_rates)
    contraction_target = rates.contraction_rate(model, theta0_origin, 0.5)
    table_oracle = Table(
        name="mle_oracle",
        columns=("n", "rate"),
        rows=[(n, float(r)) for n, r in zip(HW_ORACLE_SCHEDULE, oracle_rates)],
        metadata={
            "event": event.to_json(),
            "extrapolated": extrapolated,
            "contraction_infimum": contraction_target,
            "relative_error": abs(extrapolated - contraction_target)
            / contraction_target,
        },
    )
    return [table_rate, table_decay, table_pyta, table_oracle], {}


# ---------------------------------------------------------------------------
# gauss mean = sd
# ---------------------------------------------------------------------------

GAUSS_THETA0_COORD = 1.0
GAUSS_GAP_COORDS = (0.5, 1.0, 1.5, 2.0, 3.0)


def _build_gauss_mean_eq_sd():
    model = builtin_model("gauss-mean-eq-sd")
    theta0 = model.map(GAUSS_THETA0_COORD)

    coords = np.linspace(0.4, 3.0, 27)
    rows = list(zip(coords.tolist(),
                    rates.contraction_rate(model, theta0, coords).tolist()))
    table_rate = Table(
        name="contraction_rate",
        columns=("coordinate", "rate"),
        rows=rows,
        metadata={"kind": "mle", "theta_0": [float(v) for v in theta0]},
    )

    # every gap coordinate is a point of the rate grid above
    rate_at = dict(rows)
    gap_rows = []
    for c in GAUSS_GAP_COORDS:
        tilde, theta = rate_at[c], model.map(c)
        direct = rates.kl_divergence(model.family, theta, theta0)
        gap_rows.append((c, tilde, direct, direct - tilde))
    table_gap = Table(
        name="sanov_gap",
        columns=("coordinate", "contraction_rate", "kl_rate", "gap"),
        rows=gap_rows,
        metadata={"theta_0_coordinate": GAUSS_THETA0_COORD},
    )

    cert_rows = []
    for c in GAUSS_GAP_COORDS:
        roots = oracles.constant_mle_stationary_points(theta0, c)
        _, brute_x = oracles.curved_line_min_oracle(GAUSS_THETA0_COORD, c)
        best = min(roots, key=lambda x: abs(x - brute_x))
        cert_rows.append((c, float(best), float(brute_x), float(best - brute_x)))
    table_cert = Table(
        name="quadratic_certificate",
        columns=("coordinate", "certificate_x", "brute_x", "diff"),
        rows=cert_rows,
        metadata={"max_abs_diff": max(abs(r[-1]) for r in cert_rows)},
    )
    return [table_rate, table_gap, table_cert], {}


# ---------------------------------------------------------------------------
# strip boundary
# ---------------------------------------------------------------------------

STRIP_MU0 = (0.3, 0.5)
STRIP_CURVE_COORDS = (1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01)
STRIP_EPSILONS = (0.12, 0.08, 0.05)
STRIP_SCHEDULE = (32, 64, 128, 256)


def _build_strip_boundary():
    model = builtin_model("strip-curve")
    family = model.family
    rows = [
        (float(z), float(cumulant(family, model.map(float(z)))))
        for z in STRIP_CURVE_COORDS
    ]
    table_curve = Table(
        name="curve_cumulant",
        columns=("coordinate", "cumulant"),
        rows=rows,
        metadata={"boundary_point_value": float(cumulant(family, (0.0, 1.0)))},
    )

    mu0 = np.array(STRIP_MU0)
    prior = uniform_prior(model, 0.0, 1.0)
    mle = limiting_mle(prior, mu0)
    adjoined = with_adjoined_origin(model)
    prior_adjoined = uniform_prior(adjoined, 0.0, 1.0)
    mle_adjoined = limiting_mle(prior_adjoined, mu0)
    report = {
        "mu0": list(STRIP_MU0),
        "open_origin": {
            "coordinate": mle.coordinate,
            "boundary_flag": mle.boundary_flag,
            "continuity_report": mle.continuity_report,
        },
        "adjoined_origin": {
            "coordinate": mle_adjoined.coordinate,
            "boundary_flag": mle_adjoined.boundary_flag,
            "continuity_report": mle_adjoined.continuity_report,
        },
    }

    # posterior decay on shrinking neighborhoods of the discontinuity: the
    # measured rates exceed the naive prediction obtained by pretending the
    # cumulant were continuous at the limit point (no limit is asserted)
    naive = mle.value - log_likelihood(family, (0.0, 1.0), mu0)
    boundary_rows = []
    for eps in STRIP_EPSILONS:
        event = ModelEvent((Interval(0.0, eps, lo_closed=False, hi_closed=False),))
        decay = decay_rate_estimate(prior, mu0, event, STRIP_SCHEDULE)
        inf_rate = mle.value - log_likelihood(family, model.map(eps), mu0)
        boundary_rows.append(
            (eps, float(decay.rates[-1]), float(inf_rate), float(naive))
        )
    table_boundary = Table(
        name="boundary_rates",
        columns=("epsilon", "rate_at_max_n", "event_rate_infimum",
                 "naive_boundary_prediction"),
        rows=boundary_rows,
        metadata={"schedule": list(STRIP_SCHEDULE)},
    )
    return [table_curve, table_boundary], {"continuity_report": report}


# ---------------------------------------------------------------------------
# poisson / landau duality
# ---------------------------------------------------------------------------

DUAL_GRID = np.linspace(-2.0, 2.0, 10)
ULTIMO_MU0 = 2.0


def _build_poisson_landau():
    pair = rates.poisson_landau_pair()
    rows = []
    for t0 in DUAL_GRID:
        for t in DUAL_GRID:
            rows.append(
                (float(t0), float(t), rates.dual_rate_gap(pair, [t0], [t]))
            )
    table_gap = Table(
        name="dual_gap",
        columns=("theta0", "theta", "gap"),
        rows=rows,
        metadata={"max_gap": max(r[-1] for r in rows)},
    )

    mus = np.linspace(0.25, 5.0, 20)
    ultimo_rows = []
    for mu in mus:
        dual_rate = rates.kl_divergence(pair.dual, [float(mu)], [ULTIMO_MU0])
        closed = ULTIMO_MU0 * math.log(ULTIMO_MU0 / mu) + mu - ULTIMO_MU0
        ultimo_rows.append(
            (float(mu), float(dual_rate), float(closed), float(dual_rate - closed))
        )
    table_ultimo = Table(
        name="ultimo_rate",
        columns=("coordinate", "rate", "closed_form", "diff"),
        rows=ultimo_rows,
        metadata={"mu0": ULTIMO_MU0},
    )

    norm = landau.landau_normalization()
    checks = {
        "normalization": {
            "measured": norm.value,
            "body": norm.body,
            "tail_correction": norm.tail_correction,
            "tail_edge": norm.tail_edge,
        },
        "numeric_cumulant": {},
        "conjugate_of_conjugate_max_gap": None,
    }
    for mu in (0.5, 1.0, 2.0):
        target = mu * math.log(mu) - mu + 1.0
        measured = landau.landau_dual_numeric_cumulant(mu)
        checks["numeric_cumulant"][str(mu)] = {
            "measured": measured,
            "target": target,
            "diff": measured - target,
        }
    gaps = []
    for th in np.linspace(-2.0, 2.0, 9):
        recovered = legendre.conjugate(pair.dual, [th]).value
        gaps.append(abs(recovered - cumulant(pair.primal, [th])))
    checks["conjugate_of_conjugate_max_gap"] = max(gaps)
    return [table_gap, table_ultimo], {"landau_checks": checks}


_SCENARIOS = {
    "hardy-weinberg": Scenario(
        "hardy-weinberg",
        "three-outcome family constrained to the binomial line: posterior "
        "rate table, decay schedule, Pythagorean residuals, exact MLE oracle",
        _build_hardy_weinberg,
    ),
    "gauss-mean-eq-sd": Scenario(
        "gauss-mean-eq-sd",
        "Gaussian mean=sd curve: constrained-MLE rate, gap to the plain "
        "divergence, quadratic stationarity certificate",
        _build_gauss_mean_eq_sd,
    ),
    "strip-boundary": Scenario(
        "strip-boundary",
        "strip essential domain: cumulant blow-up along the curve, "
        "boundary-condition report, shrinking-neighborhood decay rates",
        _build_strip_boundary,
    ),
    "poisson-landau": Scenario(
        "poisson-landau",
        "Poisson family and its heavy-tailed dual: divergence identity grid, "
        "closed-form rate reproduction, density numerics",
        _build_poisson_landau,
    ),
}


def scenario_names():
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None


def scenario_build(name: str) -> dict:
    """Build one scenario's outputs, keyed by file stem: its tables first,
    then its JSON reports.  Nothing is cached; every call builds afresh."""
    tables, reports = get_scenario(name).builder()
    return {**{table.name: table for table in tables}, **reports}


def scenario_write(outputs: dict, outdir: str, fmt: str = "csv"):
    """Write built outputs (tables as CSV plus a JSON mirror, or JSON only;
    reports as JSON) and return the written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, obj in outputs.items():
        path = os.path.join(outdir, name)
        if isinstance(obj, Table):
            if fmt == "csv":
                obj.write_csv(path + ".csv")
                written.append(path + ".csv")
            obj.write_json(path + ".json")
        else:
            with open(path + ".json", "w", newline="") as fh:
                json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
                fh.write("\n")
        written.append(path + ".json")
    return written


def scenario_run(name: str, outdir: str, fmt: str = "csv"):
    """Run one scenario, write its tables/reports, return written paths."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    return scenario_write(scenario_build(name), outdir, fmt)
