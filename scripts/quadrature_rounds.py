#!/usr/bin/env python3
"""Rounds, panels and integrand nodes of the posterior quadratures.

Runs the posterior masses of two fixed examples and prints one row per
``quadrature.log_integral_peaked`` call that ``models`` makes: its jobs,
its Gauss-Kronrod rounds, the panels those rounds evaluate and their
integrand nodes (21 a panel).  The counts come from wrapping the ``logf``
that each call receives; the first ``logf`` call of a call takes the jobs'
peak values and is not a round.  The examples:

- strip: ``strip-curve`` with μ0 = (0.3, 0.5) and the uniform prior on
  (0, 1); the mass of (0, 0.12) at n = 128 ("wide") and the decay schedule
  n = 64, 128 of (0, 0.05) ("narrow");
- hw: ``hw-line`` with μ0 = (0.3, 0.2) and the decay schedule
  n = 64 … 4096 of z ≥ 0.5 under the prior [−3, 3] ("ws") and of z ≥ 1
  under [0.5, 3] ("mis").

Usage: python scripts/quadrature_rounds.py [example ...]   (default: all)

An unknown example prints the usage and exits 2.
"""

import sys

import numpy as np

from expldp import builtin_model, models, uniform_prior
from expldp.intervals import Interval
from expldp.models import ModelEvent, event_at_least

USAGE = "usage: python scripts/quadrature_rounds.py [strip|hw ...]"


def _open_below(eps):
    return ModelEvent((Interval(0.0, eps, lo_closed=False, hi_closed=False),))


def _strip():
    prior = uniform_prior(builtin_model("strip-curve"), 0.0, 1.0)
    mu0 = np.array([0.3, 0.5])
    yield "wide", lambda: models.log_posterior_mass(prior, mu0, 128,
                                                    _open_below(0.12))
    yield "narrow", lambda: models.decay_rate_estimate(
        prior, mu0, _open_below(0.05), (64, 128))


def _hw():
    model = builtin_model("hw-line")
    mu0 = np.array([0.3, 0.2])
    schedule = tuple(64 * 2 ** k for k in range(7))
    for label, (lo, hi), event_lo in (("ws", (-3.0, 3.0), 0.5),
                                      ("mis", (0.5, 3.0), 1.0)):
        prior = uniform_prior(model, lo, hi)
        yield label, lambda p=prior, e=event_lo: models.decay_rate_estimate(
            p, mu0, event_at_least(e), schedule)


EXAMPLES = {"strip": _strip, "hw": _hw}


def count_calls(run):
    """(jobs, rounds, panels, nodes) of each ``log_integral_peaked`` call
    that ``run()`` makes through ``models``."""
    original = models.log_integral_peaked
    rows = []

    def counted(logf, a, b, peak, width, scale=1.0):
        sizes = []

        def counting(x):
            sizes.append(np.size(x))
            return logf(x)

        out = original(counting, a, b, peak, width, scale)
        nodes = sum(sizes[1:])
        rows.append((sizes[0], len(sizes) - 1, nodes // 21, nodes))
        return out

    models.log_integral_peaked = counted
    try:
        run()
    finally:
        models.log_integral_peaked = original
    return rows


def main():
    names = sys.argv[1:] or list(EXAMPLES)
    unknown = [name for name in names if name not in EXAMPLES]
    if unknown:
        print(f"{USAGE}\nunknown example {unknown[0]!r}", file=sys.stderr)
        sys.exit(2)
    print(f"{'example':<14}{'jobs':>6}{'rounds':>8}{'panels':>8}{'nodes':>8}")
    for name in names:
        for label, run in EXAMPLES[name]():
            for jobs, rounds, panels, nodes in count_calls(run):
                print(f"{name + ' ' + label:<14}{jobs:>6}{rounds:>8}"
                      f"{panels:>8}{nodes:>8}")


if __name__ == "__main__":
    main()
