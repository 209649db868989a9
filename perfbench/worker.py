"""One fresh process of the benchmark: set up, or set up and run passes.

    python3 perfbench/worker.py setup --workload NAME --out FILE
    python3 perfbench/worker.py work --workload NAME --seed N --seconds S \\
        --trace 0|1 --out FILE

``setup`` times importing expldp from the checkout's ``src`` and building
the workload's families, models and priors.  ``work`` does the same, runs
one warm-up pass, then passes until ``--seconds`` have gone by.  With
``--trace 1`` the first half of that time runs untraced passes and the
second half traced ones.  The result, including every pass's outputs, is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3


def set_up(workload_name):
    """Import expldp and build the workload; return (expldp, workload,
    state, seconds taken by the import and the build)."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import expldp
    imported = perf_counter()
    if SRC not in Path(expldp.__file__).resolve().parents:
        raise SystemExit(f"expldp was imported from {expldp.__file__}, not {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    built_from = perf_counter()
    state = workload.build(expldp)
    done = perf_counter()
    return expldp, workload, state, (imported - start) + (done - built_from)


def peak_rss_mb():
    """Peak resident memory of this process.  Linux keeps ru_maxrss across
    exec, so a worker would inherit the orchestrator's peak; VmHWM is the
    worker's own."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(run, seconds, min_passes):
    """Run passes until ``seconds`` have gone by and at least
    ``min_passes`` are done; return (times, outputs)."""
    times, outputs = [], []
    deadline = perf_counter() + seconds
    while len(times) < min_passes or perf_counter() < deadline:
        gc.collect()
        start = perf_counter()
        outputs.append(run())
        times.append(perf_counter() - start)
    return times, outputs


def work(args):
    ex, workload, state, setup_s = set_up(args.workload)
    inputs = workload.inputs(args.seed)

    def run():
        return workload.run_pass(ex, state, inputs)

    outputs = [run()]                      # warm-up, not timed
    result = {"setup_s": setup_s}
    if not args.trace:
        times, more = timed_passes(run, args.seconds, MIN_PASSES)
        result["pass_s"] = times
    else:
        from tracer import Tracer

        times, more = timed_passes(run, args.seconds / 2.0, MIN_PASSES)
        tracer = Tracer()
        tracer.install()
        per_pass = []

        def traced_run():
            tracer.reset()
            out = run()
            per_pass.append(tracer.pass_metrics())
            tracer.keep_spans = False     # spans of the first traced pass only
            return out

        start = perf_counter()
        traced_times, traced_outputs = timed_passes(traced_run, args.seconds / 2.0,
                                                    MIN_PASSES - 1)
        more += traced_outputs
        result["pass_s"] = times
        result["traced_pass_s"] = traced_times
        result["per_pass_layers"] = per_pass
        result["spans"] = [
            {"id": i, "parent": p, "name": n, "start_s": s - start, "end_s": e - start}
            for i, p, n, s, e in tracer.spans
        ]
    result["outputs"] = outputs + more
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "work"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.role == "setup":
        result = {"setup_s": set_up(args.workload)[3]}
    else:
        result = work(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
