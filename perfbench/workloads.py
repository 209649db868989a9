"""The three benchmark workloads.

A workload has five parts:

- ``inputs(seed)``: the seeded evaluation points, as plain JSON data.  The
  paper's examples (mean points, priors, events, schedules) are fixed;
  the seed draws only rate-grid coordinates, mean points, dual pairs and
  Landau abscissae.  posterior-strip has no seeded input.
- ``build(ex)``: the families, models and priors (timed as set-up).
- ``run_pass(state, inputs)``: one pass over the fixed batch of calls into
  expldp (timed).  Each call's result, or the exception it raised, is kept.
- ``references(inputs)``: the same quantities computed apart from expldp.
- ``check(inputs, outputs, refs)``: one (operation, ok) pair per checked
  result.  Tolerances are the ones pinned in ``expldp.acceptance`` where it
  pins one.

Functions of expldp are looked up on their modules at call time, so the
traced run sees every call.  This module does not import expldp or the
reference module: the orchestrator, which checks results, never imports
expldp, and the worker, which times them, never imports the references.
"""

from __future__ import annotations

import math

import numpy as np


def attempt(fn, *args):
    """Call ``fn``; an exception is kept as a failed result, not raised."""
    try:
        return fn(*args)
    except Exception as exc:  # any fault of the program is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def near(value, ref, tol):
    return isinstance(value, float) and abs(value - ref) <= tol


def stratified(rng, lo, hi, count):
    """One uniform draw from each of ``count`` equal strata of [lo, hi], so
    every seed spreads its points (and their cost) the same way."""
    edges = np.linspace(lo, hi, count + 1)
    return [float(v) for v in rng.uniform(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# posterior-hw: exact posterior masses on the affine hw-line model
# ---------------------------------------------------------------------------


class PosteriorHw:
    name = "posterior-hw"
    mu0 = (0.3, 0.2)
    schedule = tuple(64 * 2 ** k for k in range(7))
    # well-specified prior [-3, 3] with z >= 0.5; misspecified [0.5, 3], z >= 1
    cases = {"ws": ((-3.0, 3.0), 0.5), "mis": ((0.5, 3.0), 1.0)}
    known_faults = frozenset()

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {
            key: stratified(rng, support[0], support[1], 40)
            for key, (support, _) in self.cases.items()
        }

    def build(self, ex):
        model = ex.models.builtin_model("hw-line")
        return {
            key: (
                ex.models.uniform_prior(model, *support),
                ex.models.event_at_least(event_lo),
            )
            for key, (support, event_lo) in self.cases.items()
        }

    def run_pass(self, ex, state, inputs):
        models, rates = ex.models, ex.rates
        mu0 = np.array(self.mu0)
        out = {}
        for key, (prior, event) in state.items():
            decay = attempt(models.decay_rate_estimate, prior, mu0, event,
                            self.schedule)
            failed = isinstance(decay, dict)
            out[key + ".rates"] = (
                [decay] * len(self.schedule) if failed
                else [float(r) for r in decay.rates]
            )
            out[key + ".extrapolated"] = decay if failed else decay.extrapolated
            mle = attempt(models.limiting_mle, prior, mu0)
            out[key + ".mle"] = mle if isinstance(mle, dict) else mle.coordinate
            grid = np.array(inputs[key])
            table = attempt(rates.posterior_rate, prior, mu0, grid)
            out[key + ".posterior_rate"] = (
                [table] * grid.size if isinstance(table, dict)
                else [float(r) for r in table.rates]
            )
        return out

    def references(self, inputs):
        import reference as ref

        refs = {}
        for key, (support, event_lo) in self.cases.items():
            refs[key + ".log_mass"] = [
                ref.hw_log_mass(n, self.mu0, support, event_lo)
                for n in self.schedule
            ]
            # l is concave with its maximum below event_lo, so the event
            # infimum of the rate is attained at event_lo
            refs[key + ".infimum"] = float(ref.hw_rate(event_lo, self.mu0, support))
            refs[key + ".mle"] = ref.hw_mle(self.mu0, support)
            refs[key + ".posterior_rate"] = [
                float(ref.hw_rate(z, self.mu0, support)) for z in inputs[key]
            ]
        return refs

    def check(self, inputs, out, refs):
        ops = []
        for key in self.cases:
            for n, rate, log_mass in zip(self.schedule, out[key + ".rates"],
                                         refs[key + ".log_mass"]):
                ok = isinstance(rate, float) and abs(-n * rate - log_mass) <= 1e-7
                ops.append((f"{key}.mass[n={n}]", ok))
            target = refs[key + ".infimum"]
            ops.append((f"{key}.extrapolated",
                        near(out[key + ".extrapolated"], target, 0.02 * target)))
            ops.append((f"{key}.mle", near(out[key + ".mle"], refs[key + ".mle"], 1e-9)))
            for i, (got, want) in enumerate(zip(out[key + ".posterior_rate"],
                                                refs[key + ".posterior_rate"])):
                ops.append((f"{key}.posterior_rate[{i}]", near(got, want, 1e-8)))
        return ops


# ---------------------------------------------------------------------------
# posterior-strip: quadrature-reduced cumulants inside posterior masses
# ---------------------------------------------------------------------------


def _near_boundary_name(theta):
    return f"mean_map(0.01, 1-{1.0 - theta[1]:.0e})"


class PosteriorStrip:
    name = "posterior-strip"
    mu0 = (0.3, 0.5)
    # shrinking events (0, eps): one mass at n = 128 for the wide event, a
    # two-point decay schedule for the narrow one
    wide_eps, narrow_eps, narrow_schedule = 0.12, 0.05, (64, 128)
    # the strip scenario's curve coordinates, fixed: at some other
    # coordinates the cumulant is off by up to 2.5e-6 (see CHANGES.md), so
    # seeded ones would fail on some seeds only
    curve_z = (1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01)
    monotone_z = curve_z[-3:]
    near_boundary = tuple((0.01, 1.0 - 10.0 ** -k) for k in range(2, 7))
    # expldp's strip mean map misses the second mode of the tilted density
    # this close to the boundary; these two fail on every run
    known_faults = frozenset(_near_boundary_name(th) for th in near_boundary[3:])

    def inputs(self, seed):
        return {}

    def build(self, ex):
        m = ex.models
        model = m.builtin_model("strip-curve")
        adjoined = m.with_adjoined_origin(model)

        def below(eps):
            return m.ModelEvent((ex.Interval(0.0, eps, lo_closed=False,
                                             hi_closed=False),))

        return {
            "model": model,
            "prior": m.uniform_prior(model, 0.0, 1.0),
            "prior_adjoined": m.uniform_prior(adjoined, 0.0, 1.0),
            "wide": below(self.wide_eps),
            "narrow": below(self.narrow_eps),
        }

    def run_pass(self, ex, state, inputs):
        models, families = ex.models, ex.families
        model, prior = state["model"], state["prior"]
        family = model.family
        mu0 = np.array(self.mu0)
        out = {}
        out["wide.log_mass"] = attempt(
            models.log_posterior_mass, prior, mu0, self.narrow_schedule[-1],
            state["wide"])
        decay = attempt(models.decay_rate_estimate, prior, mu0, state["narrow"],
                        self.narrow_schedule)
        out["narrow.rates"] = (
            [decay] * len(self.narrow_schedule) if isinstance(decay, dict)
            else [float(r) for r in decay.rates]
        )
        out["curve_kappa"] = [
            attempt(lambda z: float(families.cumulant(family, model.map(z))), z)
            for z in self.curve_z
        ]
        out["boundary_kappa"] = attempt(families.cumulant, family, (0.0, 1.0))
        for key, p in (("open", prior), ("adjoined", state["prior_adjoined"])):
            mle = attempt(models.limiting_mle, p, mu0)
            out[key + ".condition_c"] = (
                mle if isinstance(mle, dict)
                else mle.continuity_report["condition_c"]["holds"]
            )
        out["mean_map"] = [
            attempt(lambda th: [float(v) for v in families.mean_map(family, th)], th)
            for th in self.near_boundary
        ]
        return out

    def references(self, inputs):
        import reference as ref

        n = self.narrow_schedule[-1]
        cases = [(n, self.wide_eps)] + [(k, self.narrow_eps)
                                        for k in self.narrow_schedule]
        masses = ref.strip_log_masses(self.mu0, cases)
        return {
            "wide.log_mass": masses[(n, self.wide_eps)],
            "narrow.log_mass": [masses[(k, self.narrow_eps)]
                                for k in self.narrow_schedule],
            "curve_kappa": [
                ref.strip_cumulant_mp(z, math.sqrt(max(1.0 - z ** 3, 0.0)))
                for z in self.curve_z
            ],
            "boundary_kappa": ref.STRIP_BOUNDARY_CUMULANT,
            "mean_map": [ref.strip_mean_mp(*th).tolist() for th in self.near_boundary],
        }

    def check(self, inputs, out, refs):
        ops = []
        wide = out["wide.log_mass"]
        ops.append(("wide.mass", near(wide, refs["wide.log_mass"], 1e-7)))
        for n, rate, log_mass in zip(self.narrow_schedule, out["narrow.rates"],
                                     refs["narrow.log_mass"]):
            ok = isinstance(rate, float) and abs(-n * rate - log_mass) <= 1e-7
            ops.append((f"narrow.mass[n={n}]", ok))
        narrow = out["narrow.rates"][-1]
        ops.append((
            "nested events give ordered masses",
            isinstance(wide, float) and isinstance(narrow, float)
            and wide > -self.narrow_schedule[-1] * narrow,
        ))
        kappas = out["curve_kappa"]
        for z, got, want in zip(self.curve_z, kappas, refs["curve_kappa"]):
            ops.append((f"cumulant(z={z:g})",
                        near(got, want, 1e-8 * max(1.0, abs(want)))))
        head = kappas[-len(self.monotone_z):]
        ops.append((
            "cumulant increases as z -> 0 and exceeds 10 at 0.01",
            all(isinstance(v, float) for v in head)
            and all(a < b for a, b in zip(head, head[1:])) and head[-1] > 10.0,
        ))
        ops.append(("cumulant at the boundary point (0, 1)",
                    near(out["boundary_kappa"], refs["boundary_kappa"], 1e-8)))
        ops.append(("condition C holds with the open origin",
                    out["open.condition_c"] is True))
        ops.append(("condition C fails with the adjoined origin",
                    out["adjoined.condition_c"] is False))
        # the gradient property suite's normalization and tolerance
        for th, got, want in zip(self.near_boundary, out["mean_map"],
                                 refs["mean_map"]):
            ok = isinstance(got, list) and (
                max(abs(g - w) for g, w in zip(got, want))
                <= 1e-6 * max(1.0, max(abs(w) for w in want))
            )
            ops.append((_near_boundary_name(th), ok))
        return ops


# ---------------------------------------------------------------------------
# mle-dual: the MLE side, the grid oracle and the Landau dual
# ---------------------------------------------------------------------------


def _hw_mean_point(rng):
    x = float(rng.uniform(0.05, 0.85))
    return [x, float(rng.uniform(0.05, 0.9 - x))]


class MleDual:
    name = "mle-dual"
    truth = 1.0                       # gauss-mean-eq-sd sampling coordinate
    # criterion 6's coordinates and more from the scenario's grid, fixed:
    # contraction_rate raises NoConvergence at about 4% of coordinates in
    # [0.4, 3] (see CHANGES.md), so seeded ones would fail on some seeds only
    coords = (0.4, 0.5, 0.7, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0)
    enumeration_schedule = tuple(range(100, 1601, 100))
    enumeration_event_lo = 0.5
    grid_spec = ((-4.0, 4.0, 2001), (-4.0, 4.0, 2001))
    grid_step = 8.0 / 2000.0
    landau_mus = (0.5, 1.0, 2.0)
    conjugate_families = ("poisson", "gauss-mean", "hardy-weinberg-saturated",
                          "gauss-parabola")
    known_faults = frozenset()

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        points = {}
        for fam in self.conjugate_families:
            pts = []
            for _ in range(16):
                if fam == "poisson":
                    pts.append([float(rng.uniform(0.2, 5.0))])
                elif fam == "gauss-mean":
                    pts.append([float(rng.uniform(-3.0, 3.0))])
                elif fam == "gauss-parabola":
                    t1 = float(rng.uniform(-3.0, 3.0))
                    pts.append([t1, t1 * t1 + float(rng.uniform(0.2, 4.0))])
                else:
                    pts.append(_hw_mean_point(rng))
            points[fam] = pts
        return {
            "conjugate_points": points,
            "grid_point": _hw_mean_point(rng),
            "dual_pairs": rng.uniform(-2.0, 2.0, size=(40, 2)).tolist(),
            "landau_y": stratified(rng, -20.0, 4.0, 16),
        }

    def build(self, ex):
        return {
            "gauss": ex.models.builtin_model("gauss-mean-eq-sd"),
            "event": ex.models.event_at_least(self.enumeration_event_lo),
            "pair": ex.rates.poisson_landau_pair(),
            "full": ex.legendre.ConstraintSet.full(),
            "families": {f: ex.families.builtin(f) for f in self.conjugate_families},
        }

    def run_pass(self, ex, state, inputs):
        rates, oracles, legendre, landau = ex.rates, ex.oracles, ex.legendre, ex.landau
        model, pair = state["gauss"], state["pair"]
        theta0 = model.map(self.truth)
        out = {}
        out["contraction"] = [
            attempt(rates.contraction_rate, model, theta0, c) for c in self.coords
        ]
        out["kl"] = [
            attempt(rates.kl_divergence, model.family, model.map(c), theta0)
            for c in self.coords
        ]

        def tail(n):
            spec = oracles.TrinomialSpec.from_theta0(n, np.zeros(2), state["event"])
            return oracles.multinomial_mle_tail(spec).log_probability

        tails = [attempt(tail, n) for n in self.enumeration_schedule]
        out["enumeration.log_p"] = tails
        out["enumeration.extrapolated"] = attempt(
            lambda: ex.models.fit_rate_limit(
                self.enumeration_schedule,
                [-lp / n for lp, n in zip(tails, self.enumeration_schedule)]))
        hw = state["families"]["hardy-weinberg-saturated"]
        out["grid_oracle"] = attempt(
            lambda: legendre.conjugate_grid_oracle(
                hw, state["full"], inputs["grid_point"], self.grid_spec)[0])
        out["conjugates"] = {
            fam: [attempt(lambda t: legendre.conjugate(family, t).value, t)
                  for t in inputs["conjugate_points"][fam]]
            for fam, family in state["families"].items()
        }
        pairs = inputs["dual_pairs"]
        out["dual_gap"] = [attempt(rates.dual_rate_gap, pair, [a], [b])
                           for a, b in pairs]
        out["dual_kl"] = [
            attempt(rates.kl_divergence, pair.dual, [math.exp(b)], [math.exp(a)])
            for a, b in pairs[:20]
        ]
        swapped = pair.swapped()
        out["swapped_gap"] = [
            attempt(rates.dual_rate_gap, swapped, [math.exp(a)], [math.exp(b)])
            for a, b in pairs[:10]
        ]
        out["landau_normalization"] = attempt(lambda: landau.landau_normalization().value)
        out["landau_cumulant"] = [
            attempt(landau.landau_dual_numeric_cumulant, mu) for mu in self.landau_mus
        ]
        out["landau_density"] = [
            attempt(lambda y: float(landau.landau_density(y)), y)
            for y in inputs["landau_y"]
        ]
        return out

    def references(self, inputs):
        import reference as ref

        points = inputs["conjugate_points"]
        return {
            "contraction": [ref.gauss_contraction_rate(c, self.truth)
                            for c in self.coords],
            "kl": [ref.gauss_curve_kl(c, self.truth) for c in self.coords],
            "enumeration.log_p": [
                ref.hw_mle_tail_log_probability(n, self.enumeration_event_lo)
                for n in self.enumeration_schedule
            ],
            "enumeration.kl": ref.hw_trinomial_kl(self.enumeration_event_lo),
            "grid_oracle": ref.conjugate_closed_form("hardy-weinberg-saturated",
                                                     inputs["grid_point"]),
            "conjugates": {fam: [ref.conjugate_closed_form(fam, t) for t in pts]
                           for fam, pts in points.items()},
            "dual_kl": [ref.landau_dual_kl(math.exp(b), math.exp(a))
                        for a, b in inputs["dual_pairs"][:20]],
            "landau_cumulant": [ref.landau_dual_cumulant(mu) for mu in self.landau_mus],
            "landau_density": [ref.landau_density(y) for y in inputs["landau_y"]],
        }

    def check(self, inputs, out, refs):
        ops = []
        for c, got, want in zip(self.coords, out["contraction"], refs["contraction"]):
            ops.append((f"contraction_rate(c={c:.6g})", near(got, want, 1e-8)))
        for c, tilde, kl, want in zip(self.coords, out["contraction"], out["kl"],
                                      refs["kl"]):
            ops.append((f"kl_divergence(c={c:.6g})", near(kl, want, 1e-10)))
            if not (isinstance(tilde, float) and isinstance(kl, float)):
                ops.append((f"sanov_gap(c={c:.6g})", False))
            elif c == self.truth:   # criterion 6: zero at the truth ...
                ops.append((f"sanov_gap(c={c:.6g})", abs(kl - tilde) < 1e-9))
            else:                   # ... and above 1e-4 off it
                ops.append((f"sanov_gap(c={c:.6g})", kl - tilde > 1e-4))
        for n, got, want in zip(self.enumeration_schedule, out["enumeration.log_p"],
                                refs["enumeration.log_p"]):
            ops.append((f"enumeration(n={n})", near(got, want, 1e-9 * max(1.0, abs(want)))))
        kl = refs["enumeration.kl"]
        ops.append(("enumeration limit", near(out["enumeration.extrapolated"], kl,
                                              0.05 * kl)))
        got, want = out["grid_oracle"], refs["grid_oracle"]
        ops.append(("grid oracle within one grid step",
                    isinstance(got, float) and 0.0 <= want - got <= self.grid_step))
        for fam, values in out["conjugates"].items():
            for i, (got, want) in enumerate(zip(values, refs["conjugates"][fam])):
                ops.append((f"conjugate({fam})[{i}]", near(got, want, 1e-8)))
        for i, gap in enumerate(out["dual_gap"]):
            ops.append((f"dual_rate_gap[{i}]", near(gap, 0.0, 1e-10)))
        for i, (got, want) in enumerate(zip(out["dual_kl"], refs["dual_kl"])):
            ops.append((f"dual kl_divergence[{i}]", near(got, want, 1e-12)))
        for i, gap in enumerate(out["swapped_gap"]):
            ops.append((f"swapped dual_rate_gap[{i}]", near(gap, 0.0, 1e-8)))
        ops.append(("landau_normalization", near(out["landau_normalization"], 1.0, 1e-3)))
        for mu, got, want in zip(self.landau_mus, out["landau_cumulant"],
                                 refs["landau_cumulant"]):
            ops.append((f"landau_dual_numeric_cumulant({mu})", near(got, want, 1e-3)))
        for y, got, want in zip(inputs["landau_y"], out["landau_density"],
                                refs["landau_density"]):
            ops.append((f"landau_density({y:.6g})", near(got, want, 1e-6)))
        return ops


WORKLOADS = {w.name: w for w in (PosteriorHw(), PosteriorStrip(), MleDual())}
