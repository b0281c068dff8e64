"""Certification benchmark for qkzhyper.

    python3 perfbench/run.py --workload residue --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout.  The launcher caps BLAS threads at 1,
times set-up in fresh interpreters, then runs the workload in one more fresh
interpreter (``worker.py``): one client in a closed loop, pass after pass,
every check judged at its suite's frozen tolerance.  ``--trace 1`` instead
runs the self-test, the kernel size sweep and one traced pass, and reports
the per-layer metrics.

Prints an environment record and a summary line, then one JSON line
{correct, attempted, failed, metrics}.  Exits 1 when a check fails, 2 when
the package cannot be imported or the worker fails.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, WORKLOADS, per_layer_specs  # noqa: E402

# OpenBLAS reports MAX_THREADS=64 on small hosts; one client, one thread.
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9  # after one discarded warm-up probe
DEADLINE_S = 175.0


def child_env():
    env = dict(os.environ)
    env.update(BLAS_CAP)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_child(args, env, timeout):
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


def setup_seconds(env, deadline):
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = run_child([str(HERE / "probe.py")], env, max(1.0, deadline - time.monotonic()))
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            seconds = float(proc.stdout.split()[-1])
        except (ValueError, IndexError) as exc:
            raise RuntimeError(f"set-up probe failed ({exc}):\n{proc.stderr.strip()}") from None
        if i:
            samples.append(seconds)
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qkzhyper" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup_s = setup_seconds(env, deadline)
        cmd = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
        cmd += ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = run_child(cmd, env, max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        print(f"worker failed ({exc}):\n{proc.stderr.strip()}", file=sys.stderr)
        return 2
    env_record = {
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "backend": res["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_CAP,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env_record, sort_keys=True))
    values = dict(res["metrics"])
    values["setup_s"] = setup_s
    specs = per_layer_specs() if args.trace else [(k, u) for k, (u, _) in END_TO_END.items()]
    missing = [k for k, _ in specs if values.get(k) is None]
    if missing:
        print(f"worker reported no value for {missing}", file=sys.stderr)
        return 2
    attempted, failed = res["attempted"], res["failed"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: setup_s={setup_s:.4f} "
        f"failed_frac={failed / attempted:.4g} ({failed}/{attempted})"
        + "".join(f" {k}={values[k]:.6g}" for k in ("pass_s", "mean_margin_decades", "peak_rss_mb") if k in values)
        + (f" min_margin_decades={res['detail']['min_margin_decades']:.6g}" if "min_margin_decades" in res["detail"] else "")
        + (f" failures={res['failures']}" if failed else "")
    )
    print(json.dumps(res["detail"], sort_keys=True))
    out = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in specs},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
