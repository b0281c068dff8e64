"""One workload in a fresh interpreter: timed passes, or a traced run.

Started by ``run.py`` with the BLAS thread cap and ``PYTHONPATH`` already in
its environment.  Prints one JSON object on its last stdout line.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import qkzhyper.kernels as kernels
from qkzhyper.numkernel import DEFAULT_POLICY

import metrics
import spans
import workloads
from probe import ready

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
SWEEP_P = 0.2 * np.exp(0.3j)
SWEEP_MIN_S = 0.05


def timed_pass(workload, seed, tally):
    spans.require_untraced()
    t0 = time.perf_counter()
    records, _ = workloads.run_pass(workload, seed)
    dt = time.perf_counter() - t0
    spans.require_untraced()
    tally.add(records)
    return dt


def timed_run(args):
    tally = workloads.Tally()
    times = []
    end = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < end:
        times.append(timed_pass(args.workload, args.seed, tally))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"pass_s": statistics.median(times), "mean_margin_decades": tally.mean_margin(), "peak_rss_mb": rss_mb}
    return tally, values, {"pass_times_s": times, "min_margin_decades": tally.min_margin()}


def kernel_sweep(seed):
    """Per-call time of each kernel at each sweep size, on untraced kernels.

    Bytes are computed, not measured: complex128 arrays read and written once
    per call.  Every array fits in the last-level cache, so no bandwidth is
    derived from them."""
    spans.require_untraced()
    rng = np.random.default_rng(seed)
    nterms = DEFAULT_POLICY.nterms(SWEEP_P)
    out = {}
    for n in metrics.SWEEP_SIZES:
        u = rng.uniform(0.3, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        v = rng.uniform(0.3, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        calls = {
            "qpoch_array": (lambda: kernels.qpoch_array(u, SWEEP_P, nterms), 2),
            "theta_array": (lambda: kernels.theta_array(u, SWEEP_P, nterms, 1.0), 2),
            "qpoch_ratio_array": (lambda: kernels.qpoch_ratio_array(u, v, SWEEP_P, nterms), 3),
        }
        for name, (call, arrays) in calls.items():
            per_call = []
            spent = 0.0
            while len(per_call) < 3 or spent < SWEEP_MIN_S:
                t0 = time.perf_counter()
                call()
                dt = time.perf_counter() - t0
                per_call.append(dt)
                spent += dt
            med = statistics.median(per_call)
            out[(n, name)] = {
                "ns_per_point_term": 1e9 * med / (n * nterms),
                "nterms": nterms,
                "calls": len(per_call),
                "bytes_computed": 16 * arrays * n,
            }
    return out


def traced_run(args):
    import selftest

    selftest.run_all()
    sweep = kernel_sweep(args.seed)
    tally = workloads.Tally()
    untraced = []
    tracer = spans.Tracer()
    end = time.perf_counter() + args.seconds
    untraced.append(timed_pass(args.workload, args.seed, tally))
    with tracer:
        t0 = time.perf_counter()
        records, suite_times = workloads.run_pass(args.workload, args.seed, span=tracer.span)
        traced_s = time.perf_counter() - t0
    tally.add(records)
    while time.perf_counter() < end:
        untraced.append(timed_pass(args.workload, args.seed, tally))
    summary, arrays = spans.summarize(tracer)
    residues = spans.descendants_named(arrays, tracer.names, "integrate.jackson_sum", "integrate.multi_residue")
    overhead = traced_s / statistics.median(untraced) - 1.0
    values = metrics.layer_values(summary, residues, sweep, suite_times, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    layers = {
        "workload": args.workload,
        "seed": args.seed,
        "functions": summary,
        "sweep": {f"n{n}.{k}": v for (n, k), v in sweep.items()},
        "suites_s": suite_times,
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced,
        "metrics": values,
    }
    (OUT_DIR / f"layers-{args.workload}.json").write_text(json.dumps(layers, indent=1, sort_keys=True))
    return tally, values, {"traced_pass_s": traced_s, "untraced_pass_s": untraced, "suites_s": suite_times}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    ready()
    tally, values, detail = traced_run(args) if args.trace else timed_run(args)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        # a non-finite value (no finite margin at all) becomes null, which the launcher rejects
        "metrics": {k: (v if math.isfinite(v) else None) for k, v in values.items()},
        "detail": detail,
        "backend": kernels.BACKEND,
        "numpy": np.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
