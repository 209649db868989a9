"""Per-layer tracing of expldp's public functions, from outside the program.

Each traced function is replaced by a timing wrapper in every expldp module
namespace that bound it: the modules import these names directly, so
patching ``families.cumulant`` alone would miss the calls made from
``models``, ``legendre`` and ``rates``.  A function's self time is its
span minus the spans of the traced functions it called.  Spans are kept
for the calls the benchmark makes and their direct traced children (depth
0 and 1); deeper calls are counted and timed but not kept one by one.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

TRACED = (
    ("families", ("as_point", "cumulant", "mean_map", "hessian", "log_likelihood")),
    ("quadrature", ("locate_peak", "log_integral_peaked")),
    ("legendre", ("conjugate", "conjugate_constrained", "conjugate_grid_oracle")),
    ("models", ("log_posterior_mass", "decay_rate_estimate", "limiting_mle")),
    ("rates", ("cramer_rate", "contraction_rate", "kl_divergence",
               "posterior_rate", "dual_rate_gap")),
    ("oracles", ("multinomial_mle_tail",)),
    ("landau", ("landau_density", "landau_normalization",
                "landau_dual_numeric_cumulant")),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED for fn in fns)
# result attributes summed over calls, reported as <name>.<attribute>
SUMMED = {"legendre.conjugate": "iterations",
          "oracles.multinomial_mle_tail": "outcomes"}
MASS = "models.log_posterior_mass"
PER_MASS = "families.log_likelihood"
SPAN_DEPTH = 1


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in NAMES:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
        if name in SUMMED:
            out.append((f"{name}.{SUMMED[name]}", "count"))
    out.append((PER_MASS + ".calls_per_mass", "count"))
    out.append(("trace.pass_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Counts, self times and spans of the traced functions for one pass."""

    def __init__(self):
        self._stack = []          # frames [start, child seconds, span id]
        self._mass_depth = 0
        self._next_span = 0
        self.keep_spans = True
        self.spans = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.sums = Counter()
        self.calls_in_mass = 0

    def install(self):
        """Wrap every traced function in every loaded expldp namespace."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "expldp" or name.startswith("expldp.")]
        for mod, fns in TRACED:
            module = importlib.import_module("expldp." + mod)
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack
        summed = SUMMED.get(name)

        def traced(*args, **kwargs):
            depth = len(stack)
            span_id = None
            if self.keep_spans and depth <= SPAN_DEPTH:
                span_id = self._next_span
                self._next_span += 1
            if name == MASS:
                self._mass_depth += 1
            elif name == PER_MASS and self._mass_depth:
                self.calls_in_mass += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[0]
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if name == MASS:
                    self._mass_depth -= 1
                if span_id is not None:
                    parent = stack[-1][2] if stack else None
                    self.spans.append((span_id, parent, name, frame[0], end))
            if summed is not None:
                self.sums[name] += getattr(result, summed)
            return result

        return traced

    def pass_metrics(self):
        """The per-layer metrics of the pass since the last reset."""
        out = {}
        for name in NAMES:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
            if name in SUMMED:
                out[f"{name}.{SUMMED[name]}"] = self.sums[name]
        masses = self.calls[MASS]
        out[PER_MASS + ".calls_per_mass"] = (
            self.calls_in_mass / masses if masses else 0.0
        )
        return out
