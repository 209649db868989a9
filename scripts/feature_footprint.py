#!/usr/bin/env python3
"""Which scipy subpackages each feature loads, and its peak memory.

Each feature runs once in a fresh Python process that imports expldp from
this checkout's ``src``; the processes run side by side.  The script prints
one row per feature: the process's peak resident memory (VmHWM, in MB) and
the public scipy subpackages in ``sys.modules`` after the run ("-" for
none).  The features:

- import: ``import expldp`` alone;
- hw-posterior: a posterior rate table and a posterior mass on hw-line;
- mle-tail: the exact finite-n MLE tail at n = 400;
- landau: the Landau density, its normalization and the numeric cumulant;
- strip: the strip family's cumulant and a posterior mass on strip-curve.

Usage: python scripts/feature_footprint.py [feature ...]   (default: all)

An unknown feature prints the usage and exits 2.  The peak comes from
/proc/self/status on Linux, and from ``ru_maxrss`` elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
USAGE = "usage: python scripts/feature_footprint.py [feature ...]"

FEATURES = {
    "import": "",
    "hw-posterior": """
from expldp import builtin_model, posterior_mass, posterior_rate, uniform_prior
from expldp.models import event_at_least
prior = uniform_prior(builtin_model("hw-line"), -3.0, 3.0)
posterior_rate(prior, [0.3, 0.2], [-1.0, 0.0, 1.0])
posterior_mass(prior, [0.3, 0.2], 256, event_at_least(0.5))
""",
    "mle-tail": """
from expldp import TrinomialSpec, multinomial_mle_tail
from expldp.models import event_at_least
multinomial_mle_tail(TrinomialSpec.from_theta0(400, [0.0, 0.0], event_at_least(0.5)))
""",
    "landau": """
from expldp import landau_density, landau_dual_numeric_cumulant, landau_normalization
landau_density(0.5)
landau_normalization()
landau_dual_numeric_cumulant(0.5)
""",
    "strip": """
from expldp import builtin_model, cumulant, posterior_mass, uniform_prior
from expldp.models import event_interval
model = builtin_model("strip-curve")
theta = model.map(0.5)
cumulant(model.family, theta)
posterior_mass(uniform_prior(model, 0.0, 1.0), [0.3, 0.5], 64,
               event_interval(0.0, 0.12))
""",
}

# run after the feature, in the same process
REPORT = """
import resource, sys

def peak_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

subpackages = sorted(
    name for name, module in list(sys.modules.items())
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.split(".")[1].startswith("_") and hasattr(module, "__path__"))
print(f"{peak_mb():.1f}", " ".join(subpackages) or "-")
"""


def start(feature):
    """A fresh process that runs ``feature`` and prints its footprint."""
    code = "import expldp\n" + FEATURES[feature] + REPORT
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


def main():
    chosen = sys.argv[1:] or list(FEATURES)
    unknown = [name for name in chosen if name not in FEATURES]
    if unknown:
        print(f"unknown feature {unknown[0]!r}; known: {', '.join(FEATURES)}",
              file=sys.stderr)
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    # the processes run side by side; each one's peak is its own
    procs = {name: start(name) for name in chosen}
    print(f"{'feature':<14}{'VmHWM MB':>9}  scipy subpackages")
    for name, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode:
            sys.exit(f"{name}: exit status {proc.returncode}")
        peak, subpackages = out.split(maxsplit=1)
        print(f"{name:<14}{float(peak):>9.1f}  {subpackages.strip()}")


if __name__ == "__main__":
    main()
