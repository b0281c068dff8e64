"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
tolerances are frozen here and match the shipped verification suites.
"""

import time

import numpy as np
import pytest

from qkzhyper import combin, integrate as ig, repthy as rt, solutions as so, suites, weightfn as wf
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


def test_c01_kernel_identities():
    t0 = time.time()
    ok, worst, recs = _suite_block(
        suites.suite_kernel(seed=1),
        ids=("qpoch-functional-eq", "theta-quasi", "theta-inversion", "theta-zero", "theta-prime"),
    )
    dt = time.time() - t0
    _line("C01", ok and dt < 1.0, f"kernel identities, worst err/tol {worst:.2e}, {dt:.2f}s")


def test_c02_n1l1_integral():
    t0 = time.time()
    rng = np.random.default_rng(2)
    a = 0.35 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    b = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c = 1.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p = 0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = lambda t: theta(c * t[..., 0], p) / (qpoch(a * t[..., 0], p) * qpoch(b / t[..., 0], p))
    lhs = ig.torus_integral(f, 1, ig.QuadratureSpec(256))
    rhs = 2j * np.pi * qpoch(p * a / c, p) * qpoch(b * c, p) / qpoch(a * b, p)
    rel = abs(lhs - rhs) / abs(rhs)
    dt = time.time() - t0
    _line("C02", rel <= 1e-10 and dt < 1.0, f"n=1,l=1 integral rel={rel:.2e}, {dt:.2f}s")


def test_c03_qbeta():
    rng = np.random.default_rng(3)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, x, p = draw(0.35), draw(0.4), draw(1.2), draw(0.42), draw(0.2)
    t0 = time.time()
    worst12 = 0.0
    for ell, M in ((1, 256), (2, 128)):
        lhs = ig.torus_integral(
            ig.qbeta_integrand(a, b, c, x, p, ell), ell, ig.QuadratureSpec(M), measure="dt"
        )
        worst12 = max(worst12, abs(lhs - ig.qbeta_rhs(a, b, c, x, p, ell)) / abs(lhs))
    dt12 = time.time() - t0
    t0 = time.time()
    lhs = ig.torus_integral(
        ig.qbeta_integrand(a, b, c, x, p, 3), 3, ig.QuadratureSpec(96), measure="dt"
    )
    rel3 = abs(lhs - ig.qbeta_rhs(a, b, c, x, p, 3)) / abs(lhs)
    dt3 = time.time() - t0
    ok = worst12 <= 1e-8 and dt12 < 5.0 and rel3 <= 1e-6 and dt3 < 300.0
    _line("C03", ok, f"q-beta l=1,2 rel={worst12:.2e} ({dt12:.1f}s); l=3 rel={rel3:.2e} ({dt3:.1f}s)")


def test_c04_askey_roy():
    rng = np.random.default_rng(4)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, al, be, p, x = draw(0.35), draw(0.4), draw(1.2), draw(0.3), draw(0.28), draw(0.2), draw(0.42)
    t0 = time.time()
    lhs = ig.torus_integral(ig.askey_roy_integrand(a, b, c, al, be, p), 1, ig.QuadratureSpec(256))
    rel1 = abs(lhs - ig.askey_roy_rhs(a, b, c, al, be, p)) / abs(lhs)
    dt1 = time.time() - t0
    t0 = time.time()
    lhs = ig.torus_integral(
        ig.arl_integrand(a, b, c, al, be, x, p, 2), 2, ig.QuadratureSpec(128), measure="dt"
    )
    rel2 = abs(lhs - ig.arl_rhs(a, b, c, al, be, x, p, 2)) / abs(lhs)
    dt2 = time.time() - t0
    ok = rel1 <= 1e-10 and dt1 < 1.0 and rel2 <= 1e-8 and dt2 < 30.0
    _line("C04", ok, f"Askey-Roy rel={rel1:.2e} ({dt1:.2f}s); l=2 version rel={rel2:.2e} ({dt2:.1f}s)")


def test_c05_askey_conjecture_and_qselberg():
    rng = np.random.default_rng(5)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, al, be = draw(0.3), draw(0.35), draw(0.28), draw(0.31)
    t0 = time.time()
    s, r, _ = ig.ascj_sum(a, b, al, be, 0.25, 1, 2)
    rel1 = abs(s - r) / abs(r)
    dt1 = time.time() - t0
    t0 = time.time()
    s, r, _ = ig.qselberg_jackson(draw(0.4), draw(0.2), 0.55, 0.3, 2)
    rel2 = abs(s - r) / abs(r)
    dt2 = time.time() - t0
    ok = rel1 <= 1e-8 and dt1 < 30 and rel2 <= 1e-8 and dt2 < 30
    _line("C05", ok, f"Askey sum rel={rel1:.2e} ({dt1:.1f}s); q-Selberg sum rel={rel2:.2e} ({dt2:.1f}s)")


def test_c06_jackson_representations():
    t0 = time.time()
    worst = 0.0
    for n, ell in ((2, 1), (2, 2)):
        P = sample_params(6 + n + ell, n, ell, regime="jackson_overlap")
        IV = combin.index_vectors(n, ell)
        Wf = lambda t: wf.W_ell(IV[0], t, P, "subset")
        wfn = lambda t: wf.w_trig(IV[-1], t, P, "subset")
        I0 = ig.hyper_I(Wf, wfn, P, ig.QuadratureSpec(128))
        Ix, _ = ig.jackson_sum(Wf, wfn, P, side="x")
        Iy, _ = ig.jackson_sum(Wf, wfn, P, side="y")
        worst = max(worst, abs(Ix - I0) / abs(I0), abs(Iy - I0) / abs(I0))
    dt = time.time() - t0
    _line("C06", worst <= 1e-7 and dt < 120, f"torus = x-sum = y-sum, worst rel={worst:.2e}, {dt:.1f}s")


def test_c07_determinant_theorems():
    t0 = time.time()
    worst = 0.0
    for n, ell, M in ((1, 1, 256), (1, 2, 128), (2, 1, 256), (2, 2, 128)):
        P = sample_params(70 + 10 * n + ell, n, ell)
        _, G = ig.pairing_matrix(P, spec=ig.QuadratureSpec(M))
        rhs = ig.det_rhs(P, "mu_gen")
        worst = max(worst, abs(np.linalg.det(G) - rhs) / abs(rhs))
    for n, ell, M in ((2, 1, 256), (3, 1, 192), (2, 2, 128)):
        P0 = sample_params(170 + 10 * n + ell, n, ell)
        Pp = P0.with_kappa(P0.kappa_special(+1))
        _, G = ig.pairing_matrix(Pp, restrict="first_zero", spec=ig.QuadratureSpec(M))
        rhs = ig.det_rhs(Pp, "mu_plus")
        worst = max(worst, abs(np.linalg.det(G) - rhs) / abs(rhs))
        Pm = P0.with_kappa(P0.kappa_special(-1))
        _, G = ig.pairing_matrix(Pm, restrict="last_zero", spec=ig.QuadratureSpec(M))
        rhs = ig.det_rhs(Pm, "mu_minus")
        worst = max(worst, abs(np.linalg.det(G) - rhs) / abs(rhs))
    dt = time.time() - t0
    _line("C07", worst <= 1e-8 and dt < 600, f"pairing determinants + minors, worst rel={worst:.2e}, {dt:.1f}s")


def test_c08_basis_determinants():
    t0 = time.time()
    worst = 0.0
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        P = sample_params(80 + 10 * n + ell, n, ell)
        worst = max(worst, abs(so.detM_numeric(P, "trig") - ig.detM_rhs(P)) / abs(ig.detM_rhs(P)))
        worst = max(
            worst, abs(so.detM_numeric(P, "elliptic") - ig.detMq_rhs(P)) / abs(ig.detMq_rhs(P))
        )
    dt = time.time() - t0
    _line("C08", worst <= 1e-8, f"basis-change determinants, worst rel={worst:.2e}, {dt:.1f}s")


def test_c09_rmatrix_suite():
    t0 = time.time()
    ok, worst, recs = _suite_block(suites.suite_rmatrix(seed=9, draws=10))
    dt = time.time() - t0
    _line("C09", ok, f"trig R suite (10 draws): worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c10_qkz_flatness():
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst = 0.0
    for k in range(10):
        n = 2 if k % 2 == 0 else 3
        ell = 1 + (k % 2)
        P = sample_params(100 + k, n, ell)
        Ks = 0.5 + rng.random() + 0.3j * (rng.random() - 0.5)
        for li in range(n):
            for mi in range(li + 1, n):
                zl = list(P.z)
                zl[li] *= P.p
                zm = list(P.z)
                zm[mi] *= P.p
                lhs = rt.qkz_K(li, P.Lambda, P.q, tuple(zm), P.p, Ks, ell) @ rt.qkz_K(
                    mi, P.Lambda, P.q, P.z, P.p, Ks, ell
                )
                rhs = rt.qkz_K(mi, P.Lambda, P.q, tuple(zl), P.p, Ks, ell) @ rt.qkz_K(
                    li, P.Lambda, P.q, P.z, P.p, Ks, ell
                )
                worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    dt = time.time() - t0
    _line("C10", worst <= 1e-10, f"qKZ flatness (10 draws, n=2,3): worst={worst:.2e}, {dt:.1f}s")


def test_c11_hypergeometric_solution():
    t0 = time.time()
    P = sample_params(521, 2, 1, regime="solution")
    res = so.qkz_residual((1, 0), P)
    Ps = P.with_kappa(P.kappa_special(+1))
    sing = so.singular_residual((0, 1), Ps)
    dt = time.time() - t0
    ok = res <= 1e-6 and sing <= 1e-7
    _line("C11", ok, f"qKZ solution residual={res:.2e} (Ks=kappa), E.Psi={sing:.2e}, {dt:.1f}s")


def test_c12_transition_theorems():
    t0 = time.time()
    worst_t = worst_e = 0.0
    for ell in (1, 2):
        P = sample_params(120 + ell, 2, ell)
        B = so.transition_matrix("B", (0, 1), (1, 0), P)
        R = rt.trig_R_block(P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], P.q, ell)
        worst_t = max(worst_t, np.linalg.norm(B - R.T) / np.linalg.norm(R))
        C = so.transition_matrix("C", (1, 0), (0, 1), P)
        lam = so.lambda_from_kappa(P.kappa, ell, P.xi[0], P.xi[1], P.eta)
        Rq = so.ell_R_from_transition(
            P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], lam, ell, P.p, P.eta
        )[ell]
        worst_e = max(worst_e, np.linalg.norm(C - Rq) / np.linalg.norm(Rq))
    dt = time.time() - t0
    ok = worst_t <= 1e-7 and worst_e <= 1e-7
    _line("C12", ok, f"transition = R-matrix: trig {worst_t:.2e}, elliptic {worst_e:.2e}, {dt:.1f}s")


def test_c13_elliptic_R_certification():
    t0 = time.time()
    recs = suites.elliptic_R_checks(13)
    ok, worst, _ = _suite_block(recs)
    dt = time.time() - t0
    _line("C13", ok, f"elliptic R: dyn-YBE, intertwining, product-limit checks worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c14_shapovalov():
    t0 = time.time()
    ok, worst, _ = _suite_block(suites.suite_shapovalov(seed=14))
    dt = time.time() - t0
    _line("C14", ok, f"Shapovalov diag/offdiag suites worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c15_vanishing_suites():
    t0 = time.time()
    ok, worst, _ = _suite_block(suites.vanishing_checks(15))
    dt = time.time() - t0
    _line("C15", ok, f"coboundary/boundary vanishing worst err/tol={worst:.2e}, {dt:.1f}s")


def test_c16_structural_suites():
    t0 = time.time()
    recs = suites.suite_weights(seed=16)
    ok1, worst1, _ = _suite_block(
        recs, ids=("w-form", "W-form", "w-invariance", "W-invariance", "star-", "binomial")
    )
    P3 = sample_params(163, 3, 1)
    t0_, t1_, t2_ = (0, 1, 2), (1, 0, 2), (1, 2, 0)
    worst2 = 0.0
    for fl in ("B", "C"):
        M01 = so.transition_matrix(fl, t0_, t1_, P3, seed=1)
        M12 = so.transition_matrix(fl, t1_, t2_, P3, seed=2)
        M02 = so.transition_matrix(fl, t0_, t2_, P3, seed=3)
        worst2 = max(worst2, np.linalg.norm(M01 @ M12 - M02) / np.linalg.norm(M02))
    dt = time.time() - t0
    ok = ok1 and worst2 <= 1e-9
    _line("C16", ok, f"structural suites worst err/tol={worst1:.2e}, cocycle={worst2:.2e}, {dt:.1f}s")


def test_c17_asymptotics():
    t0 = time.time()
    ok, worst, recs = _suite_block(suites.suite_asymptotics(seed=17))
    dt = time.time() - t0
    lead = [r for r in recs if "leading" in r["id"]]
    detail = ", ".join(f"{r['id']}={r['rel_err']:.3f}" for r in lead)
    _line("C17", ok, f"asymptotic zone: {detail} (3% bound), {dt:.1f}s")
