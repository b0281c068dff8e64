"""Exact-count self-test of the tracer, run at the start of every traced run.

Run alone with ``PYTHONPATH=src python3 perfbench/selftest.py``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from qkzhyper import combin, integrate, numkernel, suites, weightfn
from qkzhyper.cli_params import sample_params
from qkzhyper.errors import ConvergenceError
from qkzhyper.numkernel import TruncationPolicy

import metrics
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SelfTestError(AssertionError):
    pass


def check(cond, what):
    if not cond:
        raise SelfTestError(what)


def bindings():
    return {(m.__name__, k): v for m in spans.package_modules() for k, v in vars(m).items()}


def test_qpoch_counts():
    """One qpoch on 64 points: one kernel call, 64 points, 64 x nterms terms."""
    p = 0.2 * np.exp(0.4j)
    u = np.linspace(0.1, 0.9, 64) * np.exp(1j * np.linspace(0, 6, 64))
    tr = spans.Tracer()
    with tr:
        numkernel.qpoch(u, p)
    summary, _ = spans.summarize(tr)
    k = summary["kernels.qpoch_array"]
    check(k["calls"] == 1, f"qpoch_array calls {k['calls']} != 1")
    check(k["points"] == 64, f"qpoch_array points {k['points']} != 64")
    want = 64 * TruncationPolicy().nterms(p)
    check(k["point_terms"] == want, f"qpoch_array point_terms {k['point_terms']} != {want}")
    check(summary["numkernel.qpoch"]["calls"] == 1, "numkernel.qpoch calls != 1")
    check(set(summary) == {"kernels.qpoch_array", "numkernel.qpoch"}, f"unexpected spans {sorted(summary)}")


def test_jackson_counts():
    """One (2, 1) jackson_sum: one multi_residue call per residue its shells enumerate."""
    P = sample_params(9, 2, 1, regime="jackson_overlap")
    IV = combin.index_vectors(2, 1)
    Wf = lambda t: weightfn.W_ell(IV[0], t, P, "subset")
    wf = lambda t: weightfn.w_trig(IV[-1], t, P, "subset")
    tr = spans.Tracer()
    with tr:
        _, report = integrate.jackson_sum(Wf, wf, P, side="x")
    summary, arrays = spans.summarize(tr)
    # ell = 1: each shell holds one lattice vector per index vector
    want = report["shells"] * len(IV)
    got = summary["integrate.multi_residue"]["calls"]
    check(got == want, f"multi_residue calls {got} != {want} residues")
    check(spans.descendants_named(arrays, tr.names, "integrate.jackson_sum", "integrate.multi_residue") == want, "residues under jackson_sum")
    check(summary["integrate.jackson_sum"]["shells"] == report["shells"], "jackson_sum shells")
    check(summary["integrate.multi_residue"]["points"] == want * 64, "multi_residue points")
    check(summary["weightfn.W_ell"]["calls"] == want, "W_ell calls")


def test_every_binding_wrapped_and_restored():
    before = bindings()
    tr = spans.Tracer()
    with tr:
        import qkzhyper.suites as su

        # from-imports make second names that must be wrapped too
        for mod, name in ((numkernel, "qpoch_array"), (weightfn, "theta_ratio"), (integrate, "phase_phi"), (su, "sample_params")):
            check(hasattr(getattr(mod, name), spans.MARK), f"{mod.__name__}.{name} not wrapped")
        check(spans.installed_wrappers(), "no wrappers reported while installed")
        try:
            spans.require_untraced()
        except RuntimeError:
            pass
        else:
            raise SelfTestError("a timed run would start with wrappers installed")
    after = bindings()
    changed = sorted(k for k in before if after.get(k) is not before[k])
    check(not changed, f"bindings not restored: {changed[:5]}")
    check(not spans.installed_wrappers(), "wrappers left installed")


def test_gate():
    """A QkzError is one failed check; a non-finite rel_err fails and has no margin."""

    def raises(seed=0, cfg=None):
        raise ConvergenceError("outside the convergence regime")

    saved = suites.SUITES["kernel"]
    suites.SUITES["kernel"] = raises
    try:
        records = workloads.run_suite("kernel", 0)
    finally:
        suites.SUITES["kernel"] = saved
    records += [
        {"id": "nan", "rel_err": math.nan, "tol": 1e-8, "status": "pass"},
        {"id": "inf", "rel_err": math.inf, "tol": 1e-8, "status": "fail"},
        {"id": "ok", "rel_err": 1e-12, "tol": 1e-8, "status": "pass"},
    ]
    tally = workloads.Tally()
    tally.add(records)
    check((tally.attempted, tally.failed) == (4, 3), f"gate counted {tally.failed}/{tally.attempted} failed")
    check(len(tally.margins) == 1 and abs(tally.margins[0] - 4.0) < 1e-12, f"margins {tally.margins}")


def test_metric_names_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    check(per_layer == [(n, u, "lower") for n, u in metrics.per_layer_specs()], "per_layer list differs from metrics.py")
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    check(e2e == metrics.END_TO_END, "end_to_end list differs from metrics.py")
    check([w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS), "workload list differs")


def run_all():
    for test in (
        test_qpoch_counts,
        test_jackson_counts,
        test_every_binding_wrapped_and_restored,
        test_gate,
        test_metric_names_match_benchmark_json,
    ):
        test()


if __name__ == "__main__":
    run_all()
    print("selftest passed")
    sys.exit(0)
