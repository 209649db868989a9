#!/usr/bin/env python3
"""Scan contraction rates on the mean=sd curve against the exhaustive oracle.

Evaluates `contraction_rate` on `gauss-mean-eq-sd` with the
truth at coordinate 1.0, over [0.4, 0.8] in steps of 0.002 and [1.25, 3.0]
in steps of 0.01 (377 coordinates, including the near-degenerate line
points where the Newton conjugates are flat to rounding), and compares each
rate with `curved_line_min_oracle`.  Prints how many coordinates raised,
the worst gap to the oracle and where it occurred; exits 1 if any
coordinate raised or the worst gap exceeds the tolerance.

Usage: python scripts/contraction_scan.py [tolerance]   (default 1e-8)

tolerance is a finite positive number; anything else prints the usage and
exits 2 before the scan starts.
"""

import math
import sys
import time

import numpy as np

from expldp import builtin_model, contraction_rate, curved_line_min_oracle
from expldp.errors import ExpLdpError

TRUTH = 1.0
USAGE = "usage: python scripts/contraction_scan.py [tolerance > 0]"


def coordinates():
    low = np.round(np.arange(201) * 0.002 + 0.4, 10)
    high = np.round(np.arange(176) * 0.01 + 1.25, 10)
    return np.concatenate([low, high])


def main():
    try:
        tol = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-8
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        # a NaN tolerance would pass every gap: worst > nan is always false
        print(f"{USAGE}\ngot {sys.argv[1]!r}", file=sys.stderr)
        return 2
    model = builtin_model("gauss-mean-eq-sd")
    theta0 = model.map(TRUTH)
    coords = coordinates()
    raised, worst, worst_at = [], 0.0, None
    start = time.perf_counter()
    for c in coords:
        try:
            rate = contraction_rate(model, theta0, float(c))
        except ExpLdpError as exc:
            raised.append((float(c), type(exc).__name__))
            continue
        gap = abs(rate - curved_line_min_oracle(TRUTH, float(c))[0])
        if gap > worst:
            worst, worst_at = gap, float(c)
    elapsed = time.perf_counter() - start
    print(f"coordinates: {len(coords)}  raised: {len(raised)}  "
          f"worst gap: {worst:.3e} at c={worst_at}  ({elapsed:.1f}s)")
    for c, name in raised:
        print(f"  raised {name} at c={c}")
    return 1 if raised or worst > tol else 0


if __name__ == "__main__":
    sys.exit(main())
