#!/usr/bin/env python3
"""How fast do finite-n posterior decay rates approach the LDP limit?

Sweeps the sample-size schedule for the three-outcome line model and prints
per-n rates, the fitted r_inf + c/n extrapolation, and the error against
the exact rate-function infimum over the event.  Useful for picking desk-
scale schedules and sanity-checking the O(log n / n) correction.

Usage: python scripts/decay_convergence_study.py [max_doublings]

max_doublings is a whole number, at least 2 (default 8).
"""

import sys

import numpy as np

from expldp import builtin_model, decay_rate_estimate, limiting_mle, uniform_prior
from expldp.families import log_likelihood
from expldp.models import event_at_least

MU0 = np.array([0.3, 0.2])
USAGE = "usage: python scripts/decay_convergence_study.py [max_doublings >= 2]"


def main():
    try:
        doublings = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    except ValueError:
        doublings = 0
    if doublings < 2:
        # the r_inf + c/n extrapolation needs at least two sample sizes
        print(f"{USAGE}\ngot {sys.argv[1]!r}", file=sys.stderr)
        sys.exit(2)
    model = builtin_model("hw-line")
    prior = uniform_prior(model, -3.0, 3.0)
    event = event_at_least(0.5)
    mle = limiting_mle(prior, MU0)
    theta_end = model.map(0.5)
    target = mle.value - log_likelihood(model.family, theta_end, MU0)
    print(f"event infimum of the rate function: {target:.10f}")
    print(f"{'n':>7} {'r_n':>12} {'r_n - target':>14}")
    schedule = tuple(64 * 2 ** k for k in range(doublings))
    est = decay_rate_estimate(prior, MU0, event, schedule)
    for n, r in zip(est.schedule, est.rates):
        print(f"{n:>7} {r:>12.8f} {r - target:>14.2e}")
    rel = abs(est.extrapolated - target) / target
    print(f"extrapolated: {est.extrapolated:.10f}  relative error {rel:.3%}")


if __name__ == "__main__":
    main()
