"""Benchmark of expldp: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload posterior-hw --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout: expldp is imported from ``src/``.  Each
workload runs in fresh worker processes (``worker.py``); this process makes
the seeded inputs, computes the reference values apart from expldp,
checks every output of every pass and prints the metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics
``setup_s``, ``pass_s`` and ``peak_rss_mb``, with ``--trace 1`` the
per-layer metrics of ``tracer.py``.  Details, including the spans of the
traced run, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 5          # set-up is timed in this many fresh processes
TIME_LIMIT_S = 170.0    # for one workload, all processes included
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    # one BLAS thread: the program's arrays are small or elementwise, and
    # a 2-core machine times more steadily without thread contention
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def spawn(role, workload, deadline, extra=()):
    """Run one worker process to completion and return its JSON result."""
    RESULTS.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix=f".{workload}-{role}-", suffix=".json",
                                dir=RESULTS)
    os.close(fd)
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), role,
               "--workload", workload, "--out", path, *extra]
        proc = subprocess.run(cmd, env={**os.environ, **WORKER_ENV},
                              stdout=subprocess.DEVNULL,
                              timeout=max(deadline - perf_counter(), 1.0))
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: {role} worker exited with "
                             f"code {proc.returncode}")
        with open(path) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: {role} worker ran out of time") from None
    finally:
        os.unlink(path)


def layer_metrics(work):
    """Per-layer metrics of a traced worker result: counts from the first
    traced pass, self times as medians over the traced passes."""
    from tracer import metric_names

    per_pass = work["per_pass_layers"]
    first = per_pass[0]
    untraced = statistics.median(work["pass_s"])
    traced = statistics.median(work["traced_pass_s"])
    values = {}
    for name, unit in metric_names():
        if name.endswith(".self_s"):
            values[name] = statistics.median(p[name] for p in per_pass)
        elif name in first:
            values[name] = first[name]
    values["trace.pass_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_names()}


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    deadline = perf_counter() + TIME_LIMIT_S
    setup = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setup.append(spawn("setup", name, deadline)["setup_s"])
    work = spawn("work", name, deadline,
                 ("--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)))
    setup.append(work["setup_s"])

    inputs = workload.inputs(seed)
    refs = workload.references(inputs)
    ops = [op for out in work["outputs"] for op in workload.check(inputs, out, refs)]
    failed = sorted({op for op, ok in ops if not ok})
    unexpected = [op for op in failed if op not in workload.known_faults]
    if trace:
        metrics = layer_metrics(work)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(work["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
        }
    line = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "metrics": metrics,
    }

    import numpy
    import scipy

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "result": line,
        "failed_operations": failed,
        "unexpected_failures": unexpected,
        "setup_s": setup,
        "pass_s": work["pass_s"],
        "peak_rss_mb": work["peak_rss_mb"],
        "machine": {
            "platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
        },
    }
    if trace:
        detail["traced_pass_s"] = work["traced_pass_s"]
        counts = [{k: v for k, v in p.items() if not k.endswith(".self_s")}
                  for p in work["per_pass_layers"]]
        detail["calls_repeat"] = all(c == counts[0] for c in counts)
        detail["per_pass_layers"] = work["per_pass_layers"]
        detail["spans"] = work["spans"]
    with open(RESULTS / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)

    shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                      for k, v in metrics.items()
                      if not trace or k.startswith("trace."))
    print(f"{name}: {shown}; {line['attempted']} operations attempted, "
          f"{line['failed']} failed")
    for op in failed:
        tag = "known fault" if op in workload.known_faults else "UNEXPECTED"
        print(f"  failed ({tag}): {op}")
    return line


def main():
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "expldp" / "__init__.py").is_file():
        print(f"no expldp sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        lines[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(json.dumps(lines[name]))
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{n}.{k}": v for n, r in lines.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
