#!/usr/bin/env python3
"""Scan contraction rates on the mean=sd curve against the exhaustive oracle.

Evaluates `contraction_rate` on `gauss-mean-eq-sd` with the truth at
coordinate 1.0, over [0.4, 0.8] in steps of 0.002 and [1.25, 3.0] in steps
of 0.01 (377 coordinates, including the near-degenerate ends of the
constant-MLE lines), in one call that solves them one at a time, and
compares each rate with `curved_line_min_oracle`.  Prints how many
coordinates raised (the call raises for all of them or for none), the worst
gap to the oracle and where it occurred; exits 1 if the call raised or the
worst gap exceeds the tolerance.  The rates take about 0.4 s and the oracle
about 0.5 s on a 2-core Xeon.

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
    start = time.perf_counter()
    try:
        rates = contraction_rate(model, theta0, coords)
    except ExpLdpError as exc:
        print(f"coordinates: {len(coords)}  raised: {len(coords)}  "
              f"({type(exc).__name__}: {exc})")
        return 1
    elapsed = time.perf_counter() - start
    gaps = np.abs(rates - [curved_line_min_oracle(TRUTH, c)[0] for c in coords])
    worst = int(np.argmax(gaps))
    print(f"coordinates: {len(coords)}  raised: 0  worst gap: {gaps[worst]:.3e} "
          f"at c={coords[worst]}  ({elapsed:.3f}s)")
    return 1 if gaps[worst] > tol else 0


if __name__ == "__main__":
    sys.exit(main())
