"""One pass of a workload, and how its checks are judged.

A seed ``s`` runs every suite at its default seed + ``s``; the C03 q-beta
draw uses ``default_rng(3 + s)``.  So ``s = 0`` reproduces the default seeds
of ``qkzhyper verify`` and the draw of acceptance criterion C03.
"""

import contextlib
import inspect
import math
import time

import numpy as np

from qkzhyper import integrate, suites
from qkzhyper.errors import QkzError

from metrics import C03, WORKLOADS


def default_seed(suite):
    return inspect.signature(suites.SUITES[suite]).parameters["seed"].default


def c03_qbeta_l3(seed):
    """Acceptance criterion C03's ell = 3 q-beta integral on a 96^3 torus grid."""
    rng = np.random.default_rng(3 + seed)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, x, p = draw(0.35), draw(0.4), draw(1.2), draw(0.42), draw(0.2)
    lhs = integrate.torus_integral(
        integrate.qbeta_integrand(a, b, c, x, p, 3), 3, integrate.QuadratureSpec(96), measure="dt"
    )
    rhs = integrate.qbeta_rhs(a, b, c, x, p, 3)
    return suites.finalize([{"id": C03, "lhs": complex(lhs), "rhs": complex(rhs), "tol": 1e-6}])


def run_suite(name, seed):
    """Finalized check records of one suite; a QkzError is one failed check."""
    try:
        if name == C03:
            return c03_qbeta_l3(seed)
        return suites.run_suite(name, seed=default_seed(name) + seed)["checks"]
    except QkzError as exc:
        return [{"id": name, "error": f"{type(exc).__name__}: {exc}", "status": "fail", "rel_err": math.nan, "tol": 0.0}]


def judge(rec):
    """(passed, margin in decades or None).  A non-finite rel_err fails and
    has no margin."""
    rel, tol = rec["rel_err"], rec["tol"]
    if not math.isfinite(rel):
        return False, None
    return rec["status"] == "pass", math.log10(tol / max(rel, 1e-16))


def run_pass(workload, seed, span=None):
    """One complete pass: (records, {suite: wall seconds}).  `span(name)` is
    an optional context manager opened around each suite."""
    records, times = [], {}
    for name in WORKLOADS[workload]:
        t0 = time.perf_counter()
        with span(f"suites.{name}") if span else contextlib.nullcontext():
            recs = run_suite(name, seed)
        times[name] = time.perf_counter() - t0
        records.extend(recs)
    return records, times


class Tally:
    """Checks attempted and failed, the failures' ids, and the margins of the
    checks that have one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.margins = []

    def add(self, records):
        for rec in records:
            ok, margin = judge(rec)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(rec["id"])
            if margin is not None:
                self.margins.append(margin)

    def mean_margin(self):
        return sum(self.margins) / len(self.margins) if self.margins else math.nan

    def min_margin(self):
        return min(self.margins, default=math.nan)
