"""Acceptance suite: every exit criterion as a runnable check.

Each check pins its tolerance here and reports the measured quantities; the
CLI ``verify`` subcommand and the pytest acceptance module both run these.
The only randomness is the seeded generator used by the property suites
(override with the EXPLDP_SEED environment variable).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import landau, legendre, models, oracles, rates
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
    with_adjoined_origin,
)

DEFAULT_SEED = 20210925

LOG_11_9 = math.log(11.0 / 9.0)
HW_MU0 = np.array([0.3, 0.2])


def _seed() -> int:
    return int(os.environ.get("EXPLDP_SEED", DEFAULT_SEED))


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


def check_closed_form_hw() -> CheckResult:
    start = time.time()
    model = builtin_model("hw-line")
    prior = uniform_prior(model, -3.0, 3.0)
    mle = limiting_mle(prior, HW_MU0)
    coord_err = abs(mle.coordinate - LOG_11_9)

    rate_zero = mle.value - log_likelihood(model.family, model.map(0.0), HW_MU0)
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
        seconds=time.time() - start,
    )


def check_posterior_decay() -> CheckResult:
    start = time.time()
    model = builtin_model("hw-line")
    family = model.family
    schedule = tuple(64 * 2 ** k for k in range(7))

    prior = uniform_prior(model, -3.0, 3.0)
    event = event_at_least(0.5)
    decay = decay_rate_estimate(prior, HW_MU0, event, schedule)
    mle = limiting_mle(prior, HW_MU0)
    target = mle.value - log_likelihood(family, model.map(0.5), HW_MU0)
    rel = abs(decay.extrapolated - target) / target

    prior_mis = uniform_prior(model, 0.5, 3.0)
    event_mis = event_at_least(1.0)
    decay_mis = decay_rate_estimate(prior_mis, HW_MU0, event_mis, schedule)
    mle_mis = limiting_mle(prior_mis, HW_MU0)
    target_mis = mle_mis.value - log_likelihood(family, model.map(1.0), HW_MU0)
    rel_mis = abs(decay_mis.extrapolated - target_mis) / target_mis

    passed = rel <= 0.02 and rel_mis <= 0.02
    return CheckResult(
        name="2-posterior-decay",
        passed=passed,
        tolerance="extrapolated rate within 2% of the event infimum (both priors)",
        measured={
            "extrapolated": decay.extrapolated,
            "target": target,
            "relative_error": rel,
            "misspecified_extrapolated": decay_mis.extrapolated,
            "misspecified_target": target_mis,
            "misspecified_relative_error": rel_mis,
        },
        seconds=time.time() - start,
    )


def check_pythagoras() -> CheckResult:
    start = time.time()
    model = builtin_model("hw-line")
    family = model.family
    theta0 = legendre.conjugate(family, HW_MU0).argmax
    constraint = legendre.ConstraintSet.affine((0.0, 0.0), [(1.0, -1.0)])
    residuals = [
        abs(rates.pythagorean_residual(family, constraint, theta0,
                                       model.map(z), HW_MU0))
        for z in np.linspace(-2.0, 2.0, 50)
    ]
    affine_max = max(residuals)

    curve = builtin_model("gauss-mean-eq-sd")
    mu0 = np.array([1.0, 3.0])
    theta0_c = legendre.conjugate(curve.family, mu0).argmax
    constraint_c = legendre.ConstraintSet.curve(curve)
    curved = [
        abs(rates.pythagorean_residual(curve.family, constraint_c, theta0_c,
                                       curve.map(z), mu0))
        for z in np.linspace(0.3, 3.0, 25)
    ]
    curved_max = max(curved)

    passed = affine_max < 1e-10 and curved_max > 1e-3
    return CheckResult(
        name="3-pythagoras",
        passed=passed,
        tolerance="affine residual < 1e-10 on 50 points; curved max > 1e-3",
        measured={"affine_max": affine_max, "curved_max": curved_max},
        seconds=time.time() - start,
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
    start = time.time()
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
    for name in ("poisson", "gauss-mean", "hardy-weinberg-saturated"):
        family = builtin(name)
        spec, step = _grid_oracle_spec(name)
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
        },
        seconds=time.time() - start,
    )


def check_mle_oracle() -> CheckResult:
    start = time.time()
    schedule = tuple(range(100, 1601, 100))
    event = event_at_least(0.5)
    theta0 = np.zeros(2)
    oracle_rates = oracles.enumeration_rates(theta0, event, schedule)
    extrapolated = models.fit_rate_limit(schedule, oracle_rates)
    model = builtin_model("hw-line")
    target = rates.contraction_rate(model, theta0, 0.5, method="pythagoras")
    rel = abs(extrapolated - target) / target
    return CheckResult(
        name="5-mle-oracle",
        passed=rel <= 0.05,
        tolerance="extrapolated enumeration rate within 5% of contraction infimum",
        measured={
            "extrapolated": extrapolated,
            "contraction_infimum": target,
            "relative_error": rel,
        },
        seconds=time.time() - start,
    )


def check_sanov_failure() -> CheckResult:
    start = time.time()
    model = builtin_model("gauss-mean-eq-sd")
    theta0 = model.map(1.0)
    min_gap = math.inf
    max_cert_diff = 0.0
    for coord in (0.5, 1.5, 2.0, 3.0):
        tilde = rates.contraction_rate(model, theta0, coord)
        direct = rates.kl_divergence(model.family, model.map(coord), theta0)
        min_gap = min(min_gap, direct - tilde)
        roots = rates.constant_mle_stationary_points(model, theta0, coord)
        _, brute_x = oracles.curved_line_min_oracle(1.0, coord)
        cert = min(roots, key=lambda x: abs(x - brute_x))
        max_cert_diff = max(max_cert_diff, abs(cert - brute_x))
    tilde_eq = rates.contraction_rate(model, theta0, 1.0)
    direct_eq = rates.kl_divergence(model.family, model.map(1.0), theta0)
    eq_gap = abs(direct_eq - tilde_eq)
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
        seconds=time.time() - start,
    )


def check_boundary() -> CheckResult:
    start = time.time()
    model = builtin_model("strip-curve")
    family = model.family
    values = [
        cumulant(family, model.map(z)) for z in (0.05, 0.02, 0.01)
    ]
    increasing = values[0] < values[1] < values[2]
    exceeds = cumulant(family, (0.01, math.sqrt(1.0 - 1e-6))) > 10.0

    prior = uniform_prior(model, 0.0, 1.0)
    mle = limiting_mle(prior, np.array([0.3, 0.5]))
    open_ok = mle.continuity_report["condition_c"]["holds"]
    adjoined = with_adjoined_origin(model)
    prior_adj = uniform_prior(adjoined, 0.0, 1.0)
    mle_adj = limiting_mle(prior_adj, np.array([0.3, 0.5]))
    adjoined_fails = not mle_adj.continuity_report["condition_c"]["holds"]

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
        seconds=time.time() - start,
    )


def check_duality() -> CheckResult:
    start = time.time()
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
        seconds=time.time() - start,
    )


def check_landau() -> CheckResult:
    start = time.time()
    norm = landau.landau_normalization()
    norm_err = abs(norm.value - 1.0)
    if norm_err > 1e-3:
        return CheckResult(
            name="9-landau-dual-numerics",
            passed=False,
            tolerance="normalization 1e-3; numeric cumulant 1e-3",
            measured={"measured_normalization": norm.value},
            detail=(
                "density normalization mismatch: measured total mass "
                f"{norm.value:.6f}; the printed inversion formula does not "
                "integrate to one under this convention"
            ),
            seconds=time.time() - start,
        )
    worst = 0.0
    cumulants = {}
    for mu in (0.5, 1.0, 2.0):
        measured = landau.landau_dual_numeric_cumulant(mu)
        target = mu * math.log(mu) - mu + 1.0
        cumulants[f"cgf_{mu}"] = measured
        worst = max(worst, abs(measured - target))
    passed = worst <= 1e-3
    return CheckResult(
        name="9-landau-dual-numerics",
        passed=passed,
        tolerance="normalization 1e-3; numeric cumulant vs closed form 1e-3",
        measured={"normalization": norm.value, "worst_cgf_error": worst,
                  **cumulants},
        seconds=time.time() - start,
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
        # the strip's h^2 truncation term stays below about 4e-8
        h = 4e-5 if name == "strip-measure" else 1e-6
        for _ in range(100):
            theta = _random_interior(name, rng)
            grad = mean_map(family, theta)
            fd = _fd_gradient(family, theta, h * (1.0 + float(np.max(np.abs(theta)))))
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
            worst = max(worst, -rates.contraction_rate(
                model, np.zeros(2), coord, method="pythagoras"))
    return worst <= 1e-12, worst


def check_properties() -> CheckResult:
    start = time.time()
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
        seconds=time.time() - start,
    )


CRITERIA = (
    ("1-closed-form-hw", check_closed_form_hw),
    ("2-posterior-decay", check_posterior_decay),
    ("3-pythagoras", check_pythagoras),
    ("4-legendre", check_legendre),
    ("5-mle-oracle", check_mle_oracle),
    ("6-sanov-failure", check_sanov_failure),
    ("7-boundary-domain", check_boundary),
    ("8-duality", check_duality),
    ("9-landau-dual-numerics", check_landau),
    ("10-property-suites", check_properties),
)


def verify_suite(pattern: str | None = None):
    """Run every acceptance criterion whose name contains ``pattern``
    (all of them when None).  Returns the list of CheckResults."""
    results = []
    for name, check in CRITERIA:
        if pattern and pattern not in name:
            continue
        results.append(check())
    return results


def format_report(results) -> str:
    lines = [r.line() for r in results]
    failed = [r.name for r in results if not r.passed]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append(f"all {len(results)} criteria passed")
    return "\n".join(lines)
