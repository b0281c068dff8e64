"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
tolerances are frozen here and match the shipped verification suites.
"""

import time

import numpy as np
import pytest

from qkzhyper import integrate as ig, suites
from qkzhyper.cli_params import sample_params
from qkzhyper.numkernel import qpoch, theta


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # warm-up so the stated wall-time budgets measure math, not first-call set-up
    qpoch(np.ones(4) * 0.3, 0.2)
    theta(np.ones(4) * 0.7, 0.2)
    from qkzhyper.numkernel import qpoch_ratio

    qpoch_ratio(np.ones(4) * 0.5, np.ones(4) * 0.6, 0.2)


def _line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


def _suite_block(records, ids=None):
    recs = suites.finalize(records)
    if ids is not None:
        recs = [r for r in recs if any(r["id"].startswith(i) for i in ids)]
    worst = max(r["rel_err"] / r["tol"] for r in recs)
    ok = all(r["status"] == "pass" for r in recs)
    return ok, worst, recs


def _worst_rel(records, ids=None):
    """Worst error of suite records by the criterion's own measure: the norm
    residual, or |lhs - rhs| / |rhs| for a value comparison."""
    recs = [r for r in records if ids is None or r["id"] in ids]
    return max(r["residual"] if "residual" in r else abs(r["lhs"] - r["rhs"]) / abs(r["rhs"]) for r in recs)


def _rel_to_lhs(rec):
    return abs(rec["lhs"] - rec["rhs"]) / abs(rec["lhs"])


def test_c01_kernel_identities():
    t0 = time.perf_counter()
    ok, worst, recs = _suite_block(
        suites.suite_kernel(seed=1),
        ids=("qpoch-functional-eq", "theta-quasi", "theta-inversion", "theta-zero", "theta-prime"),
    )
    dt = time.perf_counter() - t0
    _line("C01", ok and dt < 1.0, f"kernel identities, worst err/tol {worst:.2e}, {dt:.2f}s")


def test_c02_n1l1_integral():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    a, b, c, p = (m * np.exp(1j * rng.uniform(0, 2 * np.pi)) for m in (0.35, 0.4, 1.2, 0.2))
    rel = _worst_rel(suites.integral_n1l1_check(a, b, c, p))
    dt = time.perf_counter() - t0
    _line("C02", rel <= 1e-10 and dt < 1.0, f"n=1,l=1 integral rel={rel:.2e}, {dt:.2f}s")


def test_c03_qbeta():
    rng = np.random.default_rng(3)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, x, p = draw(0.35), draw(0.4), draw(1.2), draw(0.42), draw(0.2)
    t0 = time.perf_counter()
    recs = suites.qbeta_check(a, b, c, x, p, 1, 256, 1e-8) + suites.qbeta_check(a, b, c, x, p, 2, 128, 1e-8)
    worst12 = max(_rel_to_lhs(r) for r in recs)
    dt12 = time.perf_counter() - t0
    t0 = time.perf_counter()
    (rec,) = suites.qbeta_check(a, b, c, x, p, 3, 96, 1e-6)
    rel3 = _rel_to_lhs(rec)
    dt3 = time.perf_counter() - t0
    ok = worst12 <= 1e-8 and dt12 < 5.0 and rel3 <= 1e-6 and dt3 < 300.0
    _line("C03", ok, f"q-beta l=1,2 rel={worst12:.2e} ({dt12:.1f}s); l=3 rel={rel3:.2e} ({dt3:.1f}s)")


def test_c04_askey_roy():
    rng = np.random.default_rng(4)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, al, be, p, x = draw(0.35), draw(0.4), draw(1.2), draw(0.3), draw(0.28), draw(0.2), draw(0.42)
    t0 = time.perf_counter()
    (rec,) = suites.askey_roy_check(a, b, c, al, be, p, 256, 1e-10)
    rel1 = _rel_to_lhs(rec)
    dt1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    (rec,) = suites.arl_check(a, b, c, al, be, x, p, 2, 128, 1e-8)
    rel2 = _rel_to_lhs(rec)
    dt2 = time.perf_counter() - t0
    ok = rel1 <= 1e-10 and dt1 < 1.0 and rel2 <= 1e-8 and dt2 < 30.0
    _line("C04", ok, f"Askey-Roy rel={rel1:.2e} ({dt1:.2f}s); l=2 version rel={rel2:.2e} ({dt2:.1f}s)")


def test_c05_askey_conjecture_and_qselberg():
    rng = np.random.default_rng(5)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, al, be = draw(0.3), draw(0.35), draw(0.28), draw(0.31)
    t0 = time.perf_counter()
    rel1 = _worst_rel(suites.ascj_check(a, b, al, be, 0.25, 1, 2, cutoff=40, tol=1e-8))
    dt1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    s, r, _ = ig.qselberg_jackson(draw(0.4), draw(0.2), 0.55, 0.3, 2)
    rel2 = abs(s - r) / abs(r)
    dt2 = time.perf_counter() - t0
    ok = rel1 <= 1e-8 and dt1 < 30 and rel2 <= 1e-8 and dt2 < 30
    _line("C05", ok, f"Askey sum rel={rel1:.2e} ({dt1:.1f}s); q-Selberg sum rel={rel2:.2e} ({dt2:.1f}s)")


def test_c06_jackson_representations():
    t0 = time.perf_counter()
    recs = []
    for n, ell in ((2, 1), (2, 2)):
        recs += suites.jackson_checks(sample_params(6 + n + ell, n, ell, regime="jackson_overlap"))
    worst = _worst_rel(recs)
    dt = time.perf_counter() - t0
    _line("C06", worst <= 1e-7 and dt < 120, f"torus = x-sum = y-sum, worst rel={worst:.2e}, {dt:.1f}s")


def test_c07_determinant_theorems():
    t0 = time.perf_counter()
    recs = []
    for n, ell, M in ((1, 1, 256), (1, 2, 128), (2, 1, 256), (2, 2, 128)):
        recs += suites.generic_det_check(sample_params(70 + 10 * n + ell, n, ell), M)
    for n, ell, M in ((2, 1, 256), (3, 1, 192), (2, 2, 128)):
        recs += suites.special_det_checks(sample_params(170 + 10 * n + ell, n, ell), M)
    worst = _worst_rel(recs)
    dt = time.perf_counter() - t0
    _line("C07", worst <= 1e-8 and dt < 600, f"pairing determinants + minors, worst rel={worst:.2e}, {dt:.1f}s")


def test_c08_basis_determinants():
    t0 = time.perf_counter()
    recs = []
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        recs += suites.basis_det_checks(sample_params(80 + 10 * n + ell, n, ell))
    worst = _worst_rel(recs)
    dt = time.perf_counter() - t0
    _line("C08", worst <= 1e-8, f"basis-change determinants, worst rel={worst:.2e}, {dt:.1f}s")


def test_c09_rmatrix_suite():
    t0 = time.perf_counter()
    ok, worst, recs = _suite_block(suites.suite_rmatrix(seed=9))
    dt = time.perf_counter() - t0
    _line("C09", ok, f"trig R suite (10 draws): worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c10_qkz_flatness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    recs = []
    for k in range(10):
        n, ell = (2, 1) if k % 2 == 0 else (3, 2)
        P = sample_params(100 + k, n, ell)
        recs += suites.qkz_flatness_check(P, 0.5 + rng.random() + 0.3j * (rng.random() - 0.5), k)
    worst = _worst_rel(recs)
    dt = time.perf_counter() - t0
    _line("C10", worst <= 1e-10, f"qKZ flatness (10 draws, n=2,3): worst={worst:.2e}, {dt:.1f}s")


def test_c11_hypergeometric_solution():
    t0 = time.perf_counter()
    recs = suites.qkz_solution_checks(sample_params(521, 2, 1, regime="solution"))
    res = _worst_rel(recs, ids=("qkz-solution-residual",))
    sing = _worst_rel(recs, ids=("qkz-solution-singular",))
    dt = time.perf_counter() - t0
    ok = res <= 1e-6 and sing <= 1e-7
    _line("C11", ok, f"qKZ solution residual={res:.2e} (Ks=kappa), E.Psi={sing:.2e}, {dt:.1f}s")


def test_c12_transition_theorems():
    t0 = time.perf_counter()
    recs = []
    for ell in (1, 2):
        recs += suites.transition_adjacent_checks(sample_params(120 + ell, 2, ell))
    worst_t = _worst_rel(recs, ids=("transition-trig-adjacent-l1", "transition-trig-adjacent-l2"))
    worst_e = _worst_rel(recs, ids=("transition-ell-adjacent-l1", "transition-ell-adjacent-l2"))
    dt = time.perf_counter() - t0
    ok = worst_t <= 1e-7 and worst_e <= 1e-7
    _line("C12", ok, f"transition = R-matrix: trig {worst_t:.2e}, elliptic {worst_e:.2e}, {dt:.1f}s")


def test_c13_elliptic_R_certification():
    t0 = time.perf_counter()
    recs = suites.elliptic_R_checks(13)
    ok, worst, _ = _suite_block(recs)
    dt = time.perf_counter() - t0
    _line("C13", ok, f"elliptic R: dyn-YBE, intertwining, product-limit checks worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c14_shapovalov():
    t0 = time.perf_counter()
    ok, worst, _ = _suite_block(suites.suite_shapovalov(seed=14))
    dt = time.perf_counter() - t0
    _line("C14", ok, f"Shapovalov diag/offdiag suites worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c15_vanishing_suites():
    t0 = time.perf_counter()
    ok, worst, _ = _suite_block(suites.vanishing_checks(15))
    dt = time.perf_counter() - t0
    _line("C15", ok, f"coboundary/boundary vanishing worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c16_structural_suites():
    t0 = time.perf_counter()
    recs = suites.suite_weights(seed=16)
    ok1, worst1, _ = _suite_block(
        recs, ids=("w-form", "W-form", "w-invariance", "W-invariance", "star-", "binomial")
    )
    worst2 = _worst_rel(suites.transition_cocycle_checks(sample_params(163, 3, 1), seed=0))
    dt = time.perf_counter() - t0
    ok = ok1 and worst2 <= 1e-9
    _line("C16", ok, f"structural suites worst err/tol={worst1:.2e}, cocycle={worst2:.2e}, {dt:.1f}s")


def test_c17_asymptotics():
    t0 = time.perf_counter()
    ok, worst, recs = _suite_block(suites.suite_asymptotics(seed=17))
    dt = time.perf_counter() - t0
    lead = [r for r in recs if "leading" in r["id"]]
    detail = ", ".join(f"{r['id']}={r['rel_err']:.3f}" for r in lead)
    _line("C17", ok, f"asymptotic zone: {detail} (3% bound), {dt:.1f}s")
