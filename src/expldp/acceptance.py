"""Acceptance suite: every exit criterion as a runnable check.

Each check pins its tolerance here and reports the measured quantities; the
CLI ``verify`` subcommand and the pytest acceptance module both run these.
Criteria 1, 2, 3, 5, 6, 7 and 9 read the tables and reports that one scenario
builds (named in ``CRITERIA``); ``verify_suite`` builds each scenario at
most once per call.  The only randomness is the seeded generator used by
the property suites (override with the EXPLDP_SEED environment variable).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import legendre, rates, scenarios
from .errors import ExpLdpError
from .families import (
    builtin,
    cumulant,
    log_likelihood,
    mean_map,
)
from .models import (
    builtin_model,
    decay_rate_estimate,
    event_at_least,
    limiting_mle,
    uniform_prior,
)
from .scenarios import GAUSS_THETA0_COORD, HW_MU0, HW_SCHEDULE

DEFAULT_SEED = 20210925

LOG_11_9 = math.log(11.0 / 9.0)


def _seed() -> int:
    text = os.environ.get("EXPLDP_SEED", str(DEFAULT_SEED)).strip()
    if not text.isdecimal():
        raise ValueError(
            f"EXPLDP_SEED must be a non-negative integer, got {text!r}"
        )
    return int(text)


def _rng() -> np.random.Generator:
    return np.random.default_rng(_seed())


@dataclass
class CheckResult:
    name: str
    passed: bool
    tolerance: str
    measured: dict = field(default_factory=dict)
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        shown = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.measured.items())
        msg = f"[{tag}] {self.name}: {shown} (tol {self.tolerance})"
        if self.detail:
            msg += f" -- {self.detail}"
        return msg + f" [{self.seconds:.1f}s]"


def _binomial_kl_two_trials(p0: float, p: float) -> float:
    """Divergence between two-trial binomials with success probabilities
    p0 and p (independent closed form for the affine posterior rate)."""
    return 2.0 * (p0 * math.log(p0 / p) + (1.0 - p0) * math.log((1 - p0) / (1 - p)))


def check_closed_form_hw(hw) -> CheckResult:
    # the hardy-weinberg scenario's posterior-rate table: theta_nu from its
    # metadata, whose first entry is the coordinate on hw-line (eta(z) =
    # (z, -z)), and the rate at z = 0 from its row
    table = hw["posterior_rate"]
    coord_err = abs(table.metadata["theta_nu"][0] - LOG_11_9)

    rate_zero = dict(table.rows)[0.0]
    p0 = 0.5 * (1.0 + HW_MU0[0] - HW_MU0[1])
    kl_form = _binomial_kl_two_trials(p0, 0.5)
    rate_err = abs(rate_zero - kl_form)

    passed = coord_err <= 1e-9 and rate_err <= 1e-8
    return CheckResult(
        name="1-closed-form-hw",
        passed=passed,
        tolerance="coordinate 1e-9, rate-vs-binomial-KL 1e-8",
        measured={
            "coordinate_error": coord_err,
            "rate_at_zero": rate_zero,
            "binomial_kl": kl_form,
            "rate_error": rate_err,
        },
    )


def check_posterior_decay(hw) -> CheckResult:
    # well-specified prior: the hardy-weinberg scenario's decay table;
    # the misspecified prior on [0.5, 3] has no scenario counterpart
    decay = hw["decay_rates"].metadata
    model = builtin_model("hw-line")
    family = model.family
    prior_mis = uniform_prior(model, 0.5, 3.0)
    event_mis = event_at_least(1.0)
    decay_mis = decay_rate_estimate(prior_mis, HW_MU0, event_mis, HW_SCHEDULE)
    mle_mis = limiting_mle(prior_mis, HW_MU0)
    target_mis = mle_mis.value - log_likelihood(family, model.map(1.0), HW_MU0)
    rel_mis = abs(decay_mis.extrapolated - target_mis) / target_mis

    passed = decay["relative_error"] <= 0.02 and rel_mis <= 0.02
    return CheckResult(
        name="2-posterior-decay",
        passed=passed,
        tolerance="extrapolated rate within 2% of the event infimum (both priors)",
        measured={
            "extrapolated": decay["extrapolated"],
            "target": decay["target_rate"],
            "relative_error": decay["relative_error"],
            "misspecified_extrapolated": decay_mis.extrapolated,
            "misspecified_target": target_mis,
            "misspecified_relative_error": rel_mis,
        },
    )


def check_pythagoras(hw) -> CheckResult:
    # affine half: the hardy-weinberg scenario's 50 residuals
    affine_max = hw["pythagoras"].metadata["max_abs_residual"]

    curve = builtin_model("gauss-mean-eq-sd")
    curved = rates.pythagorean_residual(
        curve, curve.map(np.linspace(0.3, 3.0, 25)).T, np.array([1.0, 3.0]))
    curved_max = max(np.abs(curved).tolist())

    passed = affine_max < 1e-10 and curved_max > 1e-3
    return CheckResult(
        name="3-pythagoras",
        passed=passed,
        tolerance="affine residual < 1e-10 on 50 points; curved max > 1e-3",
        measured={"affine_max": affine_max, "curved_max": curved_max},
    )


def _grid_oracle_spec(name):
    if name == "poisson":
        return ((-6.0, 6.0, 120001),), 1e-4
    if name == "gauss-mean":
        return ((-8.0, 8.0, 160001),), 1e-4
    return ((-4.0, 4.0, 2001), (-4.0, 4.0, 2001)), 8.0 / 2000.0


def _random_mean_point(name, rng):
    if name == "poisson":
        return np.array([float(rng.uniform(0.2, 5.0))])
    if name == "gauss-mean":
        return np.array([float(rng.uniform(-3.0, 3.0))])
    x = rng.uniform(0.05, 0.85)
    y = rng.uniform(0.05, 0.9 - x)
    return np.array([x, y])


def check_legendre() -> CheckResult:
    worst_closed = 0.0
    pois = builtin("poisson")
    for t in (0.5, 1.0, 2.0, 4.0):
        res = legendre.conjugate(pois, [t])
        worst_closed = max(worst_closed, abs(res.value - (t * math.log(t) - t + 1)))
    gm = builtin("gauss-mean")
    for t in (-2.0, -0.5, 0.0, 1.3):
        res = legendre.conjugate(gm, [t])
        worst_closed = max(worst_closed, abs(res.value - 0.5 * t * t))
    hw = builtin("hardy-weinberg-saturated")
    res = legendre.conjugate(hw, HW_MU0)
    hw_closed = 0.3 * math.log(1.2) + 0.2 * math.log(0.8)
    worst_closed = max(worst_closed, abs(res.value - hw_closed))

    rng = _rng()
    worst_grid = 0.0
    worst_step_ratio = 0.0
    grid_points = 0
    for name in ("poisson", "gauss-mean", "hardy-weinberg-saturated"):
        family = builtin(name)
        spec, step = _grid_oracle_spec(name)
        grid_points += math.prod(int(n) for _, _, n in spec)
        ts = np.array([_random_mean_point(name, rng) for _ in range(20)])
        grid_values, _ = legendre.conjugate_grid_oracle(
            family, legendre.ConstraintSet.full(), ts, spec
        )
        for t, value in zip(ts, grid_values):
            diff = abs(legendre.conjugate(family, t).value - value)
            worst_grid = max(worst_grid, diff)
            worst_step_ratio = max(worst_step_ratio, diff / step)
    passed = worst_closed <= 1e-8 and worst_step_ratio <= 1.0
    return CheckResult(
        name="4-legendre",
        passed=passed,
        tolerance="closed forms 1e-8; grid oracle within grid step, 20 points/family",
        measured={
            "worst_closed_form_error": worst_closed,
            "worst_grid_gap": worst_grid,
            "worst_gap_over_step": worst_step_ratio,
            # kappa is evaluated once per grid point for the 20 mean points
            "grid_points": grid_points,
        },
    )


def check_mle_oracle(hw) -> CheckResult:
    oracle = hw["mle_oracle"].metadata
    return CheckResult(
        name="5-mle-oracle",
        passed=oracle["relative_error"] <= 0.05,
        tolerance="extrapolated enumeration rate within 5% of contraction infimum",
        measured={
            "extrapolated": oracle["extrapolated"],
            "contraction_infimum": oracle["contraction_infimum"],
            "relative_error": oracle["relative_error"],
        },
    )


def check_sanov_failure(gauss) -> CheckResult:
    # the truth's row enters only gap_at_truth; the certificate there is
    # looser (about 1e-8) than at the other coordinates
    gaps = {row[0]: row[-1] for row in gauss["sanov_gap"].rows}
    certs = {row[0]: row[-1] for row in gauss["quadratic_certificate"].rows}
    eq_gap = abs(gaps.pop(GAUSS_THETA0_COORD))
    del certs[GAUSS_THETA0_COORD]
    min_gap = min(gaps.values())
    max_cert_diff = max(abs(d) for d in certs.values())
    passed = min_gap > 1e-4 and eq_gap < 1e-9 and max_cert_diff <= 1e-6
    return CheckResult(
        name="6-sanov-failure",
        passed=passed,
        tolerance="gap > 1e-4 off the truth, < 1e-9 at it; certificate vs brute 1e-6",
        measured={
            "min_gap": min_gap,
            "gap_at_truth": eq_gap,
            "max_certificate_diff": max_cert_diff,
        },
    )


def check_boundary(strip) -> CheckResult:
    kappa = dict(strip["curve_cumulant"].rows)
    values = [kappa[z] for z in (0.05, 0.02, 0.01)]
    increasing = values[0] < values[1] < values[2]
    # the curve passes through (0.01, sqrt(1 - 1e-6)) at coordinate 0.01
    exceeds = values[2] > 10.0

    report = strip["continuity_report"]
    open_ok = report["open_origin"]["continuity_report"]["condition_c"]["holds"]
    adjoined_fails = not (
        report["adjoined_origin"]["continuity_report"]["condition_c"]["holds"]
    )

    passed = increasing and exceeds and open_ok and adjoined_fails
    return CheckResult(
        name="7-boundary-domain",
        passed=passed,
        tolerance="strictly increasing cumulant, > 10 at 0.01; condition C verdicts",
        measured={
            "kappa_005": values[0],
            "kappa_002": values[1],
            "kappa_001": values[2],
            "condition_c_open": open_ok,
            "condition_c_adjoined_fails": adjoined_fails,
        },
    )


def check_duality() -> CheckResult:
    pair = rates.poisson_landau_pair()
    rng = _rng()
    pairs = rng.uniform(-2.0, 2.0, size=(100, 2))
    max_gap = max(
        rates.dual_rate_gap(pair, [row[0]], [row[1]]) for row in pairs
    )
    max_swapped = max(
        rates.dual_rate_gap(
            pair.swapped(), [math.exp(row[0])], [math.exp(row[1])]
        )
        for row in pairs[:25]
    )
    max_closed = 0.0
    for row in pairs[:50]:
        mu0, mu = math.exp(row[0]), math.exp(row[1])
        closed = mu0 * math.log(mu0 / mu) + mu - mu0
        via_dual = rates.kl_divergence(pair.dual, [mu], [mu0])
        via_primal = rates.kl_divergence(pair.primal, [row[0]], [row[1]])
        max_closed = max(
            max_closed, abs(via_dual - closed), abs(via_primal - closed)
        )
    passed = max_gap < 1e-10 and max_closed < 1e-12 and max_swapped < 1e-8
    return CheckResult(
        name="8-duality",
        passed=passed,
        tolerance="gap < 1e-10 on 100 pairs; closed-form rate 1e-12; swapped 1e-8",
        measured={
            "max_gap": max_gap,
            "max_closed_form_error": max_closed,
            "max_swapped_gap": max_swapped,
        },
    )


def check_landau(poisson_landau) -> CheckResult:
    checks = poisson_landau["landau_checks"]
    norm = checks["normalization"]["measured"]
    norm_ok = abs(norm - 1.0) <= 1e-3
    cumulants = {f"cgf_{mu}": c["measured"]
                 for mu, c in checks["numeric_cumulant"].items()}
    worst = max(abs(c["diff"]) for c in checks["numeric_cumulant"].values())
    return CheckResult(
        name="9-landau-dual-numerics",
        passed=norm_ok and worst <= 1e-3,
        tolerance="normalization 1e-3; numeric cumulant vs closed form 1e-3",
        measured={"normalization": norm, "worst_cgf_error": worst,
                  **cumulants},
        detail="" if norm_ok else (
            "density normalization mismatch: measured total mass "
            f"{norm:.6f}; the printed inversion formula does not "
            "integrate to one under this convention"
        ),
    )


# ---------------------------------------------------------------------------
# property suites (criterion 10)
# ---------------------------------------------------------------------------

_PROPERTY_FAMILIES = ("hardy-weinberg-saturated", "poisson", "gauss-mean",
                      "gauss-parabola")


def _random_interior(name, rng):
    if name == "hardy-weinberg-saturated":
        return rng.uniform(-3.0, 3.0, size=2)
    if name == "poisson" or name == "gauss-mean":
        return rng.uniform(-3.0, 3.0, size=1)
    if name == "gauss-parabola":
        return np.array([rng.uniform(-3.0, 3.0), rng.uniform(-4.0, -0.2)])
    return np.array([rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8)])


def _suite_fenchel_young(rng):
    worst = 0.0
    for i in range(100):
        family = builtin(_PROPERTY_FAMILIES[i % 4])
        theta = _random_interior(family.name, rng)
        t = mean_map(family, _random_interior(family.name, rng))
        res = legendre.conjugate(family, t)
        slack = res.value + cumulant(family, theta) - float(theta @ t)
        worst = max(worst, -slack)
        at_max = abs(res.value + cumulant(family, res.argmax)
                     - float(res.argmax @ t))
        worst = max(worst, at_max - 1e-8)
    return worst <= 1e-8, worst


def _suite_convexity(rng):
    worst = -math.inf
    for i in range(100):
        family = builtin(_PROPERTY_FAMILIES[i % 4])
        ta = _random_interior(family.name, rng)
        tb = _random_interior(family.name, rng)
        s = rng.uniform(0.0, 1.0)
        lhs = cumulant(family, s * ta + (1 - s) * tb)
        rhs = s * cumulant(family, ta) + (1 - s) * cumulant(family, tb)
        worst = max(worst, lhs - rhs)
    return worst <= 1e-10, worst


def _fd_gradient(family, theta, h):
    out = np.empty(family.dim)
    for i in range(family.dim):
        e = np.zeros(family.dim)
        e[i] = h
        out[i] = (cumulant(family, theta + e) - cumulant(family, theta - e)) / (2 * h)
    return out


def _suite_gradient_fd(rng):
    worst = 0.0
    for name in _PROPERTY_FAMILIES + ("strip-measure",):
        family = builtin(name)
        for _ in range(100):
            theta = _random_interior(name, rng)
            grad = mean_map(family, theta)
            fd = _fd_gradient(family, theta, 1e-6 * (1.0 + float(np.max(np.abs(theta)))))
            rel = float(np.max(np.abs(fd - grad))) / max(1.0, float(np.max(np.abs(grad))))
            worst = max(worst, rel)
    return worst <= 1e-6, worst


def _suite_inverse_pair(rng):
    worst = 0.0
    for i in range(100):
        family = builtin(_PROPERTY_FAMILIES[i % 4])
        theta = _random_interior(family.name, rng)
        t = mean_map(family, theta)
        res = legendre.conjugate(family, t)
        worst = max(worst, float(np.max(np.abs(res.argmax - theta))))
        t2 = mean_map(family, _random_interior(family.name, rng))
        res2 = legendre.conjugate(family, t2)
        worst = max(worst, float(np.max(np.abs(mean_map(family, res2.argmax) - t2))))
    return worst <= 1e-7, worst


def _suite_nonnegativity(rng):
    worst = -math.inf
    model = builtin_model("hw-line")
    for i in range(100):
        family = builtin(_PROPERTY_FAMILIES[i % 4])
        th0 = _random_interior(family.name, rng)
        th = _random_interior(family.name, rng)
        kl = rates.kl_divergence(family, th0, th)
        worst = max(worst, -kl)
        if float(np.max(np.abs(th - th0))) > 1e-6 and kl <= 0.0:
            return False, kl
        t = mean_map(family, _random_interior(family.name, rng))
        worst = max(worst, -rates.cramer_rate(family, th0, t))
        if i < 20:
            coord = rng.uniform(-1.5, 1.5)
            worst = max(worst, -rates.contraction_rate(model, np.zeros(2), coord))
    return worst <= 1e-12, worst


def check_properties() -> CheckResult:
    rng = _rng()
    results = {
        "fenchel_young": _suite_fenchel_young(rng),
        "convexity": _suite_convexity(rng),
        "gradient_fd": _suite_gradient_fd(rng),
        "inverse_pair": _suite_inverse_pair(rng),
        "nonnegativity": _suite_nonnegativity(rng),
    }
    passed = all(ok for ok, _ in results.values())
    return CheckResult(
        name="10-property-suites",
        passed=passed,
        tolerance="five suites, 100 seeded cases each, zero failures",
        measured={f"{k}_worst": v for k, (ok, v) in results.items()},
        detail="" if passed else ", ".join(
            k for k, (ok, _) in results.items() if not ok
        ),
    )


# (name, check, the scenario whose outputs the check reads or None)
CRITERIA = (
    ("1-closed-form-hw", check_closed_form_hw, "hardy-weinberg"),
    ("2-posterior-decay", check_posterior_decay, "hardy-weinberg"),
    ("3-pythagoras", check_pythagoras, "hardy-weinberg"),
    ("4-legendre", check_legendre, None),
    ("5-mle-oracle", check_mle_oracle, "hardy-weinberg"),
    ("6-sanov-failure", check_sanov_failure, "gauss-mean-eq-sd"),
    ("7-boundary-domain", check_boundary, "strip-boundary"),
    ("8-duality", check_duality, None),
    ("9-landau-dual-numerics", check_landau, "poisson-landau"),
    ("10-property-suites", check_properties, None),
)


def verify_suite(pattern: str | None = None):
    """Run every acceptance criterion whose name contains ``pattern``
    (all of them when None).  Each scenario the selected criteria read is
    built once per call, inside the first criterion that reads it, whose
    seconds include the build.  A build that raises a package error fails
    every criterion reading that scenario.  Returns the list of
    CheckResults."""
    built = {}
    results = []
    for name, check, scenario in CRITERIA:
        if pattern and pattern not in name:
            continue
        start = time.time()
        if scenario is not None and scenario not in built:
            try:
                built[scenario] = scenarios.scenario_build(scenario)
            except ExpLdpError as exc:
                built[scenario] = exc
        outputs = built.get(scenario)
        if scenario is None:
            result = check()
        elif isinstance(outputs, ExpLdpError):
            result = CheckResult(
                name, False, "scenario builds",
                detail=f"{scenario}: {type(outputs).__name__}: {outputs}",
            )
        else:
            result = check(outputs)
        result.seconds = time.time() - start
        results.append(result)
    return results


def format_report(results) -> str:
    lines = [r.line() for r in results]
    failed = [r.name for r in results if not r.passed]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append(f"all {len(results)} criteria passed")
    return "\n".join(lines)
