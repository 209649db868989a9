#!/usr/bin/env python3
"""In-process timings of the layers that evaluate l(theta; t) on stacks.

Prints one row per timed call shape: the repeat count, which is fixed per
layer, and the median and the interquartile range of the repeats, in µs.
Each row is preceded by one untimed warm-up call.  The layers:

- grid-oracle: ``conjugate_grid_oracle`` on hardy-weinberg over the
  2001 x 2001 grid on [-4, 4]^2 at the mean point (0.3, 0.2), the shape of
  the benchmark's ``mle-dual`` call;
- grid-oracle-20: the same grid at 20 seeded mean points, drawn as
  acceptance criterion 4 draws them, the shape of that criterion's call;
- curve-loglik: an ``hw-line`` ``curve_loglik`` call at 1 coordinate and
  at 16; a repeat is the mean of 1000 calls.

``expldp`` is imported from ``sys.path``, so one copy of this script times
any source tree:

    PYTHONPATH=<tree>/src python scripts/layer_timings.py [layer ...]

With no layer named it times all of them.  An unknown layer prints the
usage and exits 2.
"""

import sys
import time

import numpy as np

from expldp import builtin, builtin_model, legendre

USAGE = ("usage: python scripts/layer_timings.py "
         "[grid-oracle|grid-oracle-20|curve-loglik ...]")
HW_GRID = ((-4.0, 4.0, 2001), (-4.0, 4.0, 2001))
CURVE_CALLS = 1000


def _grid_oracle(ts):
    hw = builtin("hardy-weinberg-saturated")
    full = legendre.ConstraintSet.full()
    return lambda: legendre.conjugate_grid_oracle(hw, full, ts, HW_GRID)


def _seeded_mean_points(count, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        x = rng.uniform(0.05, 0.85)
        points.append([x, rng.uniform(0.05, 0.9 - x)])
    return np.array(points)


def _curve_loglik(size):
    l_of = legendre.curve_loglik(builtin_model("hw-line"), np.array([0.3, 0.2]))
    z = 0.2 if size == 1 else np.linspace(-1.0, 1.0, size)

    def run():
        for _ in range(CURVE_CALLS):
            l_of(z)
    return run


# layer -> (repeats, calls per repeat, [(row label, timed function), ...])
LAYERS = {
    "grid-oracle": (21, 1, lambda: [
        ("grid-oracle", _grid_oracle(np.array([0.3, 0.2])))]),
    "grid-oracle-20": (9, 1, lambda: [
        ("grid-oracle-20", _grid_oracle(_seeded_mean_points(20)))]),
    "curve-loglik": (21, CURVE_CALLS, lambda: [
        ("curve-loglik 1", _curve_loglik(1)),
        ("curve-loglik 16", _curve_loglik(16))]),
}


def time_row(run, repeats, calls):
    """Median and IQR of ``repeats`` timings of ``run``, in µs per call."""
    run()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return median, q3 - q1


def main():
    names = sys.argv[1:] or list(LAYERS)
    unknown = [name for name in names if name not in LAYERS]
    if unknown:
        print(f"{USAGE}\nunknown layer {unknown[0]!r}", file=sys.stderr)
        sys.exit(2)
    print(f"{'layer':<18}{'repeats':>8}{'median_us':>14}{'iqr_us':>12}")
    for name in names:
        repeats, calls, rows = LAYERS[name]
        for label, run in rows():
            median, iqr = time_row(run, repeats, calls)
            print(f"{label:<18}{repeats:>8}{median:>14.2f}{iqr:>12.2f}")


if __name__ == "__main__":
    main()
