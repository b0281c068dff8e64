"""Named verification suites.

Each check function returns a list of records {id, lhs, rhs, tol} (value
comparisons) or {id, residual, tol} (norm residuals, already relative).
The CLI and the acceptance tests share these; tolerances are the frozen
acceptance numbers.
"""

import cmath
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import combin, integrate, repthy, solutions, weightfn
from .cli_params import sample_params
from .numkernel import (
    ParameterSet,
    assert_admissible,
    phase_phi,
    p_gamma_sin,
    p_power_bracket,
    qpoch,
    theta,
    theta_prime_one,
)


@dataclass(frozen=True)
class RunConfig:
    grid: int = None
    cutoff: int = 60


def _grid(cfg, default):
    return cfg.grid if (cfg is not None and cfg.grid) else default


def _val(id_, lhs, rhs, tol):
    return {"id": id_, "lhs": complex(lhs), "rhs": complex(rhs), "tol": float(tol)}


def _res(id_, residual, tol):
    return {"id": id_, "residual": float(residual), "tol": float(tol)}


def _binomial_identity(id_):
    """Exact check of combin's binomial identity over j, k, l, m < 7."""
    pairs = (combin.counts("binom_identity", *v) for v in itertools.product(range(7), repeat=4))
    return _res(id_, 0.0 if all(lhs == rhs for lhs, rhs in pairs) else 1.0, 0.5)


def finalize(records):
    """Attach abs/rel errors and pass status.  A non-finite lhs, rhs or
    residual fails with reason "non-finite"."""
    out = []
    for r in records:
        rec = dict(r)
        if "residual" in r:
            rec["abs_err"] = rec["rel_err"] = float(r["residual"])
            finite = math.isfinite(rec["rel_err"])
        else:
            finite = cmath.isfinite(r["lhs"]) and cmath.isfinite(r["rhs"])
            a = abs(r["lhs"] - r["rhs"])
            rec["abs_err"] = a
            rec["rel_err"] = a / max(abs(r["lhs"]), abs(r["rhs"]), 1e-300)
        if not finite:
            rec["status"], rec["reason"] = "fail", "non-finite"
        else:
            rec["status"] = "pass" if rec["rel_err"] <= r["tol"] else "fail"
        out.append(rec)
    return out


# ---------------------------------------------------------------------------


def suite_kernel(seed=1, cfg=None):
    rng = np.random.default_rng(seed)
    p = 0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    u = rng.uniform(0.4, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    out = []
    out.append(_val("qpoch-functional-eq", qpoch(u, p), (1 - u) * qpoch(p * u, p), 1e-12))
    out.append(_val("theta-quasi-periodicity", theta(p * u, p), -theta(u, p) / u, 1e-12))
    out.append(_val("theta-inversion", theta(1 / u, p), -theta(u, p) / u, 1e-12))
    out.append(_val("theta-zero", 1.0 + theta(1.0, p), 1.0, 1e-12))
    h = 1e-6
    fd = (theta(1 + h, p) - theta(1 - h, p)) / (2 * h)
    out.append(_val("theta-prime-one-fd", theta_prime_one(p), fd, 1e-6))
    # short phase function swap symmetry
    P = sample_params(seed, 2, 2)
    t = np.array([0.95 * np.exp(0.7j), 1.05 * np.exp(2.4j)])
    lhs = phase_phi(np.array([t[1], t[0]]), P)
    eta = P.eta
    rhs = (
        phase_phi(t, P)
        * (t[0] - eta * t[1])
        / (eta * t[0] - t[1])
        * eta
        * theta(t[0] / t[1] / eta, P.p)
        / theta(eta * t[0] / t[1], P.p)
    )
    out.append(_val("phase-swap-symmetry", lhs, rhs, 1e-12))
    # p-analogues
    out.append(_val("gamma_p(1)", p_gamma_sin(1.0, 0.15, "gamma"), 1.0, 1e-13))
    x = 0.3
    s = p_gamma_sin(x, 0.15, "sin") * p_gamma_sin(x, 0.15, "gamma") * p_gamma_sin(1 - x, 0.15, "gamma")
    out.append(_val("sin_p-reflection", s, np.pi, 1e-12))
    uu, xx, pr = 0.4, 0.25, 0.1
    lhs = p_gamma_sin(xx, pr, "power", extra=uu)
    rhs = p_power_bracket(uu, xx, pr) * p_gamma_sin(xx, pr, "power", extra=pr / uu)
    out.append(_val("p-power-split", lhs, rhs, 1e-12))
    return out


def suite_weights(seed=2, cfg=None):
    out = []
    P = sample_params(seed, 2, 2)
    rng = np.random.default_rng(seed + 1)
    t = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 2))) * rng.uniform(0.85, 1.15, (4, 2))
    for l in combin.index_vectors(2, 2):
        a = weightfn.w_trig(l, t, P, "symmetrized")
        b = weightfn.w_trig(l, t, P, "subset")
        out.append(_res(f"w-form-agreement-{l}", np.max(np.abs(a - b) / np.abs(a)), 1e-11))
        A = weightfn.W_ell(l, t, P, "symmetrized")
        B = weightfn.W_ell(l, t, P, "subset")
        out.append(_res(f"W-form-agreement-{l}", np.max(np.abs(A - B) / np.abs(A)), 1e-11))
    # S_ell invariance
    l = (1, 1)
    f = lambda tt: weightfn.w_trig(l, tt, P)
    g = combin.sym_act_trig(f, (1, 0), P.eta)
    out.append(_res("w-invariance", abs(g(t[0]) - f(t[0])) / abs(f(t[0])), 1e-11))
    F = lambda tt: weightfn.W_ell(l, tt, P)
    G = combin.sym_act_ell(F, (1, 0), P.eta, P.p)
    out.append(_res("W-invariance", abs(G(t[0]) - F(t[0])) / abs(F(t[0])), 1e-11))
    # c N identity
    pp = qpoch(P.p, P.p)
    for l in combin.index_vectors(2, 2):
        c = weightfn.c_coeff(l, P)
        N = weightfn.N_coeff(l, P)
        rhs = P.eta ** (P.ell * (1 - P.ell) / 2) * P.kappa**P.ell * P.xi_prod**P.ell / (
            pp ** (3 * P.ell) * N
        )
        out.append(_val(f"c-equals-inv-N-{l}", c, rhs, 1e-10))
    # quasi-periodicity of Y W
    l = (1, 1)
    Y, alphas = weightfn.adjusting_factor(l, P)
    f = lambda tt, zz: Y(zz) * weightfn.W_ell(l, tt, P.with_z(zz))
    t0 = t[0]
    for a in range(2):
        ts = t0.copy()
        ts[a] = P.p * ts[a]
        fac = P.kappa * P.eta ** (P.ell - 2 * (a + 1) + 1) / P.xi_prod
        out.append(
            _res(
                f"t-quasi-periodicity-a{a}",
                abs(f(ts, P.z) - fac * f(t0, P.z)) / abs(f(t0, P.z)),
                1e-10,
            )
        )
    for m in range(2):
        zs = list(P.z)
        zs[m] *= P.p
        out.append(
            _res(
                f"z-quasi-periodicity-m{m}",
                abs(f(t0, tuple(zs)) - P.xi[m] ** P.ell * f(t0, P.z)) / abs(f(t0, P.z)),
                1e-10,
            )
        )
    # P / J vanishing and closed evaluations (n, ell) = (2, 2)
    IV = combin.index_vectors(2, 2)
    for fam in ("P", "J"):
        vals = {}
        for l in IV:
            for m in IV:
                xp = weightfn.special_point(m, P, "x")
                vals[(l, m)] = weightfn.basis_aux(fam, l, xp, P)
        scale = max(abs(v) for v in vals.values())
        worst = max(
            abs(vals[(l, m)]) for l in IV for m in IV if not combin.dominance_le(l, m)
        )
        out.append(_res(f"{fam}-vanishing-pattern", worst / scale, 1e-10))
        for l in IV:
            closed = (
                weightfn.P_at_x_closed(l, P) if fam == "P" else weightfn.J_at_x_closed(l, P)
            )
            out.append(_val(f"{fam}-diagonal-closed-{l}", vals[(l, l)], closed, 1e-10))
    # star products: associativity and factorization
    Pq = sample_params(seed + 3, 2, 2)
    f1 = weightfn.one_block_w(1, 0, Pq)
    f2 = weightfn.one_block_w(1, 1, Pq)
    prod = weightfn.star_product(f1, f2, 1, 1, 1, Pq, "trig")
    direct = lambda tt: weightfn.w_trig((1, 1), tt, Pq, "subset")
    tpt = t[1]
    out.append(
        _res("star-factorization-(1,1)", abs(prod(tpt) - direct(tpt)) / abs(direct(tpt)), 1e-11)
    )
    h1 = lambda tt: tt[..., 0] ** 0 + 0.3 * tt[..., 0]
    h2 = lambda tt: 1.0 / (tt[..., 0] - 0.2)
    h3 = lambda tt: tt[..., 0] * 0 + 1.7
    P3 = sample_params(seed + 4, 3, 3)
    a12 = weightfn.star_product(h1, h2, 1, 1, 1, P3, "trig")
    lhs_f = weightfn.star_product(a12, h3, 2, 1, 2, P3, "trig")
    # the inner product on the right couples the middle block's parameters
    b23 = weightfn.star_product(h2, h3, 1, 1, 1, P3.permuted((1, 2, 0)), "trig")
    rhs_f = weightfn.star_product(h1, b23, 1, 2, 1, P3, "trig")
    t3 = np.exp(1j * rng.uniform(0, 2 * np.pi, 3)) * rng.uniform(0.9, 1.1, 3)
    out.append(
        _res("star-associativity", abs(lhs_f(t3) - rhs_f(t3)) / abs(lhs_f(t3)), 1e-11)
    )
    out.append(_binomial_identity("binomial-identity-exact"))
    # basis determinants
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        Pd = sample_params(seed + 10 * n + ell, n, ell)
        dM = solutions.detM_numeric(Pd, "trig")
        out.append(_val(f"detM-({n},{ell})", dM, integrate.detM_rhs(Pd), 1e-8))
        dMq = solutions.detM_numeric(Pd, "elliptic")
        out.append(_val(f"detMq-({n},{ell})", dMq, integrate.detMq_rhs(Pd), 1e-8))
    return out


def suite_rmatrix(seed=3, cfg=None, draws=10):
    out = []
    rng = np.random.default_rng(seed)
    for k in range(draws):
        L1 = 0.35 + 0.4 * rng.random() + 0.2j * (rng.random() - 0.5)
        L2 = 0.35 + 0.4 * rng.random() + 0.2j * (rng.random() - 0.5)
        L3 = 0.35 + 0.4 * rng.random() + 0.2j * (rng.random() - 0.5)
        q = (1.2 + 0.6 * rng.random()) * np.exp(1j * rng.uniform(-0.3, 0.3))
        x = (0.5 + rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        y = (0.5 + rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        worst_m = 0.0
        for w in (1, 2, 3):
            Ra = repthy.trig_R_block(L1, L2, x, q, w, "linear_solve")
            Rb = repthy.trig_R_block(L1, L2, x, q, w, "spectral")
            worst_m = max(worst_m, np.linalg.norm(Ra - Rb) / np.linalg.norm(Ra))
        out.append(_res(f"R-two-methods-{k}", worst_m, 1e-10))
        inv_w = 0.0
        for w in (1, 2, 3):
            R12 = repthy.trig_R_block(L1, L2, x, q, w)
            R21 = repthy.trig_R_block(L2, L1, 1 / x, q, w)
            Pm = repthy.perm_matrix(w)
            inv_w = max(
                inv_w,
                np.linalg.norm(Pm @ R12 - np.linalg.inv(R21) @ Pm)
                / np.linalg.norm(Pm @ R12),
            )
        out.append(_res(f"R-inversion-{k}", inv_w, 1e-10))
        out.append(_res(f"R-ybe-{k}", repthy.ybe_residual_trig(L1, L2, L3, x, y, q, 3), 1e-10))
        out.append(_res(f"R-intertwining-{k}", _rmore_residual(L1, L2, x, q, 3), 1e-10))
    return out


def _rmore_residual(L1, L2, x, q, wmax):
    worst = 0.0
    for w in range(1, wmax + 1):
        Rw = repthy.trig_R_block(L1, L2, x, q, w)
        Rwm = repthy.trig_R_block(L1, L2, x, q, w - 1)
        src = repthy.tensor_basis(2, w)
        dst = repthy.tensor_basis(2, w - 1)
        idx = {v: i for i, v in enumerate(dst)}

        def eop(c2, c1, xmul=1.0):
            M = np.zeros((len(dst), len(src)), dtype=np.complex128)
            for j, (k1, k2) in enumerate(src):
                if k1 > 0:
                    M[idx[(k1 - 1, k2)], j] += (
                        xmul * repthy.e_coeff(k1, L1, q) * repthy.q_pow(q, c2 * (L2 - k2))
                    )
                if k2 > 0:
                    M[idx[(k1, k2 - 1)], j] += repthy.e_coeff(k2, L2, q) * repthy.q_pow(
                        q, c1 * (L1 - k1)
                    )
            return M

        for lhs_ops, rhs_ops in (
            ((-1, +1, 1.0), (+1, -1, 1.0)),
            ((+1, -1, x), (-1, +1, x)),
        ):
            lhs = Rwm @ eop(*lhs_ops)
            rhs = eop(*rhs_ops) @ Rw
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    return worst


def suite_qkz(seed=4, cfg=None, draws=10):
    out = []
    rng = np.random.default_rng(seed)
    for k in range(draws):
        n = 2 if k % 2 == 0 else 3
        ell = 1 + (k % 2)
        P = sample_params(seed + 100 + k, n, ell)
        Lams = P.Lambda
        q = P.q
        Ks = 0.5 + rng.random() + 0.3j * (rng.random() - 0.5)
        worst = 0.0
        for lidx in range(n):
            for midx in range(lidx + 1, n):
                zl = list(P.z)
                zl[lidx] *= P.p
                zm = list(P.z)
                zm[midx] *= P.p
                Kl_shift = repthy.qkz_K(lidx, Lams, q, tuple(zm), P.p, Ks, ell)
                Km = repthy.qkz_K(midx, Lams, q, P.z, P.p, Ks, ell)
                Km_shift = repthy.qkz_K(midx, Lams, q, tuple(zl), P.p, Ks, ell)
                Kl = repthy.qkz_K(lidx, Lams, q, P.z, P.p, Ks, ell)
                lhs = Kl_shift @ Km
                rhs = Km_shift @ Kl
                worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
        out.append(_res(f"qkz-flatness-n{n}-l{ell}-{k}", worst, 1e-10))
    # hypergeometric solution solves the qKZ equation, Ks = kappa
    P = sample_params(seed + 500, 2, 1, regime="solution")
    out.append(_res("qkz-solution-residual", solutions.qkz_residual((1, 0), P), 1e-6))
    Ps = P.with_kappa(P.kappa_special(+1))
    out.append(_res("qkz-solution-singular", solutions.singular_residual((0, 1), Ps), 1e-7))
    out.append(_res("qkz-solution-functorial", solutions.mono_functoriality_residual((1, 0), P), 1e-7))
    return out


def suite_pairing_det(seed=5, cfg=None):
    out = []
    # n = 1, ell = 1 closed-form integral
    rng = np.random.default_rng(seed)
    a = 0.35 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    b = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c = 1.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p = 0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = lambda t: theta(c * t[..., 0], p) / (
        qpoch(a * t[..., 0], p) * qpoch(b / t[..., 0], p)
    )
    lhs = integrate.torus_integral(f, 1, integrate.QuadratureSpec(_grid(cfg, 256)))
    rhs = 2j * np.pi * qpoch(p * a / c, p) * qpoch(b * c, p) / qpoch(a * b, p)
    out.append(_val("integral-n1-l1", lhs, rhs, 1e-10))
    # determinant theorems
    for n, ell, M in ((1, 1, 256), (1, 2, 128), (2, 1, 256), (2, 2, 128)):
        P = sample_params(seed + 10 * n + ell, n, ell)
        _, G = integrate.pairing_matrix(P, spec=integrate.QuadratureSpec(_grid(cfg, M)))
        out.append(_val(f"det-mu-generic-({n},{ell})", np.linalg.det(G), integrate.det_rhs(P, "mu_gen"), 1e-8))
    for n, ell, M in ((2, 1, 256), (3, 1, 192), (2, 2, 128)):
        P0 = sample_params(seed + 50 + 10 * n + ell, n, ell)
        Pp = P0.with_kappa(P0.kappa_special(+1))
        _, G = integrate.pairing_matrix(Pp, restrict="first_zero", spec=integrate.QuadratureSpec(M))
        out.append(_val(f"det-mu-plus-({n},{ell})", np.linalg.det(G), integrate.det_rhs(Pp, "mu_plus"), 1e-8))
        Pm = P0.with_kappa(P0.kappa_special(-1))
        _, G = integrate.pairing_matrix(Pm, restrict="last_zero", spec=integrate.QuadratureSpec(M))
        out.append(_val(f"det-mu-minus-({n},{ell})", np.linalg.det(G), integrate.det_rhs(Pm, "mu_minus"), 1e-8))
    # vanishing suites
    out.extend(vanishing_checks(seed + 200))
    return out


def vanishing_checks(seed):
    out = []
    # vanishing ratios are measured against the largest nonvanishing pairing
    # of the same family (whole rows die at the special kappa values)
    P0 = sample_params(seed, 2, 2)
    IV = combin.index_vectors(2, 2)
    IVm = combin.index_vectors(2, 1)
    for sign, name, primed in ((+1, "coboundary-plain", False), (-1, "coboundary-primed", True)):
        P = P0.with_kappa(P0.kappa_special(sign))
        _, grid = integrate.pairing_matrix(P, spec=integrate.QuadratureSpec(128))
        scale = np.max(np.abs(grid))
        worst = 0.0
        for lm in IVm:
            coeffs = weightfn.coboundary_coeffs(lm, P, primed=primed)
            for i, jl in enumerate(IV):
                acc = 0.0
                for m in range(2):
                    lplus = list(lm)
                    lplus[m] += 1
                    acc += coeffs[m] * grid[i, IV.index(tuple(lplus))]
                worst = max(worst, abs(acc))
        out.append(_res(name, worst / scale, 1e-9))
    # boundary subspaces: I(Q-element, w) and I(Q'-element, w)
    for sign, flavor, name in ((+1, "Q", "boundary-Q"), (-1, "Qprime", "boundary-Qprime")):
        P = P0.with_kappa(P0.kappa_special(sign))
        kap_low = P.kappa / P.eta if flavor == "Q" else P.kappa * P.eta
        Plow = P.with_kappa(kap_low).with_ell(1)
        Wlow = lambda t: weightfn.W_ell((1, 0), t, Plow, "subset")
        Qel = weightfn.boundary_element(flavor, Wlow, P)
        _, grid = integrate.pairing_matrix(P, spec=integrate.QuadratureSpec(128))
        scale = np.max(np.abs(grid))
        worst = 0.0
        for mv in IV:
            wfn = lambda t, l=mv: weightfn.w_trig(l, t, P, "subset")
            Iq = integrate.hyper_I(Qel, wfn, P, integrate.QuadratureSpec(128))
            worst = max(worst, abs(Iq))
        out.append(_res(name, worst / scale, 1e-9))
    # boundary elements: residues vanish at x-points, values vanish at y-points
    P = P0
    kap_low = P.kappa / P.eta
    Plow = P.with_kappa(kap_low).with_ell(1)
    Wlow = lambda t: weightfn.W_ell((0, 1), t, Plow, "subset")
    Qel = weightfn.boundary_element("Q", Wlow, P)
    worst = 0.0
    scale = 0.0
    for mv in combin.index_vectors(2, 2):
        pt = weightfn.special_point(mv, P, "x")
        r = integrate.multi_residue(Qel, pt, params=P)
        worst = max(worst, abs(r))
        Wref = lambda t: weightfn.W_ell((1, 1), t, P, "subset")
        scale = max(scale, abs(integrate.multi_residue(Wref, pt, params=P)))
    out.append(_res("boundary-residue-vanishing", worst / scale, 1e-9))
    kap_low = P.kappa * P.eta
    Plow = P.with_kappa(kap_low).with_ell(1)
    Wlow = lambda t: weightfn.W_ell((0, 1), t, Plow, "subset")
    Qpel = weightfn.boundary_element("Qprime", Wlow, P)
    worst = 0.0
    scale = 0.0
    for mv in combin.index_vectors(2, 2):
        pt = weightfn.special_point(mv, P, "y")
        v = complex(Qpel(pt[None, :])[0])
        worst = max(worst, abs(v))
        Wref = lambda t: weightfn.W_ell((1, 1), t, P, "subset")
        scale = max(scale, abs(complex(Wref(pt[None, :])[0])))
    out.append(_res("boundary-value-vanishing", worst / scale, 1e-9))
    # I(W, D_a g) = 0 for the rational-family derivative, (n, ell) = (2, 1)
    Pg = sample_params(seed + 7, 2, 1, regime="small_xi")
    gfun = lambda t, z: t[..., 0] / ((t[..., 0] - Pg.xi[0] * z[0]) * (t[..., 0] - Pg.p / Pg.xi[1] * z[1]))
    Dg = weightfn.discrete_shift(gfun, 0, Pg, "D")
    Wf = lambda t: weightfn.W_ell((1, 0), t, Pg, "subset")
    num = integrate.hyper_I(Wf, lambda t: Dg(t, Pg.z), Pg, integrate.QuadratureSpec(192))
    den = integrate.hyper_I(Wf, lambda t: gfun(t, Pg.z), Pg, integrate.QuadratureSpec(192))
    out.append(_res("pairing-kills-derivatives", abs(num) / max(abs(den), 1e-300), 1e-9))
    return out


def suite_jackson(seed=6, cfg=None):
    out = []
    for n, ell in ((2, 1), (2, 2)):
        P = sample_params(seed + n + ell, n, ell, regime="jackson_overlap")
        IV = combin.index_vectors(n, ell)
        l, m = IV[0], IV[-1]
        Wf = lambda t: weightfn.W_ell(l, t, P, "subset")
        wfn = lambda t: weightfn.w_trig(m, t, P, "subset")
        I0 = integrate.hyper_I(Wf, wfn, P, integrate.QuadratureSpec(_grid(cfg, 128)))
        cut = cfg.cutoff if cfg is not None else 60
        Ix, _ = integrate.jackson_sum(Wf, wfn, P, side="x", cutoff=cut)
        Iy, _ = integrate.jackson_sum(Wf, wfn, P, side="y", cutoff=cut)
        out.append(_val(f"jackson-x-({n},{ell})", Ix, I0, 1e-7))
        out.append(_val(f"jackson-y-({n},{ell})", Iy, I0, 1e-7))
    return out


def suite_shapovalov(seed=7, cfg=None):
    out = []
    for n, ell in ((2, 1), (2, 2)):
        P = sample_params(seed + 2 * n + ell, n, ell)
        Pinv = P.with_kappa(1 / P.kappa)
        IV = combin.index_vectors(n, ell)
        om = combin.perm_reversal(n)
        tau = tuple(range(n))
        S = np.zeros((len(IV), len(IV)), dtype=complex)
        for i, l in enumerate(IV):
            for j, mv in enumerate(IV):
                f1 = lambda t: weightfn.W_tau(l, t, P, tau, "subset")
                f2 = lambda t: weightfn.W_tau(mv, t, Pinv, om, "subset")
                S[i, j] = integrate.shapovalov("elliptic", f1, f2, P)
        Ns = [weightfn.norm_constants(l, P, tau).N_l for l in IV]
        diag = max(abs(S[i, i] - Ns[i]) / abs(Ns[i]) for i in range(len(IV)))
        out.append(_res(f"shapovalov-ell-diag-({n},{ell})", diag, 1e-8))
        if len(IV) > 1:
            offd = max(abs(S[i, j]) for i in range(len(IV)) for j in range(len(IV)) if i != j)
            out.append(
                _res(f"shapovalov-ell-offdiag-({n},{ell})", offd / min(abs(v) for v in Ns), 1e-9)
            )
        St = np.zeros((len(IV), len(IV)), dtype=complex)
        for i, l in enumerate(IV):
            for j, mv in enumerate(IV):
                f1 = lambda t: weightfn.w_tau(l, t, P, tau, "subset")
                f2 = lambda t: weightfn.w_tau(mv, t, P, om, "subset")
                St[i, j] = integrate.shapovalov("trig", f1, f2, P)
        def tdiag(l):
            v = 1.0 + 0j
            for mm, lm in enumerate(l):
                for s in range(1, lm + 1):
                    v *= (1 - P.eta) / (P.z[mm] * (1 - P.eta**s) * (P.xi[mm] ** 2 - P.eta ** (s - 1)))
            return v
        Nt = [tdiag(l) for l in IV]
        diag = max(abs(St[i, i] - Nt[i]) / abs(Nt[i]) for i in range(len(IV)))
        out.append(_res(f"shapovalov-trig-diag-({n},{ell})", diag, 1e-8))
        if len(IV) > 1:
            offd = max(abs(St[i, j]) for i in range(len(IV)) for j in range(len(IV)) if i != j)
            out.append(
                _res(f"shapovalov-trig-offdiag-({n},{ell})", offd / min(abs(v) for v in Nt), 1e-9)
            )
        # residue balance of the x- and y-side sums
        om_f = integrate.omega_elliptic(P)
        f1 = lambda t: weightfn.W_ell(IV[0], t, P, "subset")
        f2 = lambda t: weightfn.W_ell(IV[-1], t, Pinv, "subset")
        g = lambda t: om_f(t) * f1(t) * f2(t)
        rep = integrate.residue_balance_check(g, P)
        out.append(
            _res(
                f"residue-balance-({n},{ell})",
                abs(rep["difference"]) / max(abs(rep["x_sum"]), 1e-300),
                1e-8,
            )
        )
    return out


def suite_transition(seed=8, cfg=None):
    out = []
    for ell in (1, 2):
        P = sample_params(seed + ell, 2, ell)
        q = P.q
        L = P.Lambda
        B = solutions.transition_matrix("B", (0, 1), (1, 0), P, seed=seed)
        R = repthy.trig_R_block(L[0], L[1], P.z[0] / P.z[1], q, ell)
        out.append(
            _res(
                f"transition-trig-adjacent-l{ell}",
                np.linalg.norm(B - R.T) / np.linalg.norm(R),
                1e-7,
            )
        )
        C = solutions.transition_matrix("C", (1, 0), (0, 1), P, seed=seed)
        lam = solutions.lambda_from_kappa(P.kappa, ell, P.xi[0], P.xi[1], P.eta)
        Rq = solutions.ell_R_from_transition(
            L[0], L[1], P.z[0] / P.z[1], lam, ell, P.p, P.eta, seed=seed + 3
        )[ell]
        out.append(
            _res(
                f"transition-ell-adjacent-l{ell}",
                np.linalg.norm(C - Rq) / np.linalg.norm(Rq),
                1e-7,
            )
        )
    # cocycle, n = 3, ell = 1
    P = sample_params(seed + 9, 3, 1)
    t0, t1, t2 = (0, 1, 2), (1, 0, 2), (1, 2, 0)
    for fl in ("B", "C"):
        M01 = solutions.transition_matrix(fl, t0, t1, P, seed=seed + 1)
        M12 = solutions.transition_matrix(fl, t1, t2, P, seed=seed + 2)
        M02 = solutions.transition_matrix(fl, t0, t2, P, seed=seed + 3)
        out.append(
            _res(
                f"transition-cocycle-{fl}",
                np.linalg.norm(M01 @ M12 - M02) / np.linalg.norm(M02),
                1e-9,
            )
        )
    # elliptic R certification: dynamical YBE, intertwining, RpR block
    out.extend(elliptic_R_checks(seed + 20))
    return out


def elliptic_R_checks(seed):
    out = []
    rng = np.random.default_rng(seed)
    p = 0.16 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    eta = (1.8 + 0.4 * rng.random()) * np.exp(1j * rng.uniform(-0.2, 0.2))
    L1 = 0.42 + 0.3 * rng.random() + 0.12j * (rng.random() - 0.5)
    L2 = 0.55 + 0.3 * rng.random() + 0.12j * (rng.random() - 0.5)
    L3 = 0.48 + 0.3 * rng.random() + 0.12j * (rng.random() - 0.5)
    x = (0.9 + 0.5 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    y = (0.6 + 0.3 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    lam = (0.7 + 0.4 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    ev12 = solutions.ell_R_evaluator(L1, L2, p, eta)
    ev13 = solutions.ell_R_evaluator(L1, L3, p, eta)
    ev23 = solutions.ell_R_evaluator(L2, L3, p, eta)
    res = repthy.dynamical_ybe_residual(ev12, ev13, ev23, x, y, lam, (L1, L2, L3), eta, 2)
    out.append(_res("ell-R-dynamical-ybe", res, 1e-9))
    out.append(_res("ell-R-intertwining", intertwining_residual(L1, L2, x, lam, p, eta), 1e-8))
    # weight-1 block against the closed-form infinite-product limit
    q = cmath.exp(0.5 * cmath.log(eta))
    xi1, xi2 = cmath.exp(L1 * cmath.log(eta)), cmath.exp(L2 * cmath.log(eta))
    kappa = (0.8 + 0.3 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    coeffs = repthy.rpr_matrix_params(L1, L2, q, kappa)
    M = repthy.rpr_middle_matrix(coeffs, x, p)
    lam1 = solutions.lambda_from_kappa(kappa, 1, xi1, xi2, eta)
    R1 = solutions.ell_R_from_transition(L1, L2, x, lam1, 1, p, eta)[1]
    out.append(
        _val("ell-R-rpr-weight1-invariant", repthy.cross_ratio(M), repthy.cross_ratio(R1), 1e-6)
    )
    # truncated product converges monotonically to the closed form
    CF = repthy.rpr_closed_form(coeffs, x, 0.3)
    errs = []
    for S in (5, 10, 20, 30):
        T = repthy.rpr_truncated_product(coeffs, x, 0.3, S)
        errs.append(np.linalg.norm(T - CF) / np.linalg.norm(CF))
    mono = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    out.append(_res("rpr-product-monotone", 0.0 if mono else 1.0, 0.5))
    out.append(_res("rpr-product-S30", errs[-1], 1e-6))
    return out


def intertwining_residual(L1, L2, x, lam, p, eta, depth=3, wmax=2):
    bas = [(k1, k2) for k1 in range(depth + 1) for k2 in range(depth + 1)]

    def phi_matrix(lv):
        blocks = solutions.ell_R_from_transition(L1, L2, x, lv, wmax + 1, p, eta)
        idx_out = {v: i for i, v in enumerate(bas)}
        M = np.zeros((len(bas),) * 2, dtype=complex)
        for col, (ka, kb) in enumerate(bas):
            w = ka + kb
            if w > wmax + 1:
                continue
            pair = combin.index_vectors(2, w)
            pidx = {v: i for i, v in enumerate(pair)}
            for kap_, kbp_ in pair:
                M[idx_out[(kbp_, kap_)], col] += blocks[w][pidx[(kap_, kbp_)], pidx[(ka, kb)]]
        return M

    xx = 1.1 * np.exp(0.5j)
    yy = xx / x
    u = 1.4 * np.exp(0.9j)
    worst = 0.0
    for ij in ((1, 1), (2, 1), (1, 2), (2, 2)):
        sh = eta if ij[1] == 1 else 1 / eta
        dj = ij[1] - ij[0]
        _, M12 = repthy.ell_coproduct_action(ij, u, lam, ((L1, xx), (L2, yy)), eta, p, depth)
        _, M21 = repthy.ell_coproduct_action(ij, u, lam, ((L2, yy), (L1, xx)), eta, p, depth)
        Lfull = phi_matrix(lam) @ M12
        Rfull = M21 @ phi_matrix(lam * sh)
        rows = [r for r, (a, b) in enumerate(bas) if a + b <= wmax]
        cols = [c for c, (a, b) in enumerate(bas) if a + b <= wmax and 0 <= a + b + dj <= wmax]
        D = (Lfull - Rfull)[np.ix_(rows, cols)]
        S = Lfull[np.ix_(rows, cols)]
        worst = max(worst, np.linalg.norm(D) / max(np.linalg.norm(S), 1e-300))
    return worst


def suite_asymptotics(seed=9, cfg=None):
    out = []
    rng = np.random.default_rng(seed)
    p = 0.14 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    eta = (1.9 + 0.3 * rng.random()) * np.exp(1j * rng.uniform(-0.15, 0.15))
    xi = tuple(
        (0.34 + 0.1 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(2)
    )
    kap = 0.18 * np.exp(1j * rng.uniform(0, 2 * np.pi))

    def params_at_ratio(r):
        z = (r * np.exp(0.4j), np.exp(2.0j))
        return ParameterSet(p=p, eta=eta, kappa=kap, xi=xi, z=z, n=2, ell=1)

    for l in ((1, 0), (0, 1)):
        rep = solutions.asymptotic_check(l, params_at_ratio, ratios=(1e-1, 1e-2, 1e-3))
        lead = [row["leading_rel"] for row in rep]
        mono = all(lead[i + 1] < lead[i] for i in range(len(lead) - 1))
        out.append(_res(f"zone-leading-at-1e-3-{l}", lead[-1], 0.03))
        out.append(_res(f"zone-monotone-{l}", 0.0 if mono else 1.0, 0.5))
        vanish = [
            v[0]
            for row in rep
            for mv, v in row["subleading"].items()
            if v[1] == "vanishing"
        ]
        if vanish:
            groups = np.array(vanish).reshape(len(rep), -1)
            dec = all(
                groups[i + 1].max() < groups[i].max() for i in range(len(rep) - 1)
            )
            out.append(_res(f"zone-sparsity-{l}", 0.0 if dec else 1.0, 0.5))
    # blockwise factorization trend of the pairing itself
    vals = [abs(solutions.as_factorization_ratio((1, 0), params_at_ratio(r)) - 1) for r in (1e-1, 1e-2, 1e-3)]
    out.append(_res("pairing-factorization-trend", 0.0 if vals[2] < vals[1] < vals[0] else 1.0, 0.5))
    out.append(_res("pairing-factorization-at-1e-3", vals[2], 0.03))
    return out


def suite_identities(seed=10, cfg=None):
    out = []
    rng = np.random.default_rng(seed)

    def draw(mod):
        return mod * np.exp(1j * rng.uniform(0, 2 * np.pi))

    a, b, c = draw(0.35), draw(0.4), draw(1.2)
    al, be = draw(0.3), draw(0.28)
    p = draw(0.2)
    x = draw(0.42)
    # q-beta, ell = 1, 2
    for ell, M, tol in ((1, 256, 1e-8), (2, 128, 1e-8)):
        lhs = integrate.torus_integral(
            integrate.qbeta_integrand(a, b, c, x, p, ell), ell, integrate.QuadratureSpec(M), measure="dt"
        )
        out.append(_val(f"qbeta-l{ell}", lhs, integrate.qbeta_rhs(a, b, c, x, p, ell), tol))
    # Askey-Roy and its multidimensional version
    lhs = integrate.torus_integral(
        integrate.askey_roy_integrand(a, b, c, al, be, p), 1, integrate.QuadratureSpec(256)
    )
    out.append(_val("askey-roy", lhs, integrate.askey_roy_rhs(a, b, c, al, be, p), 1e-10))
    lhs = integrate.torus_integral(
        integrate.arl_integrand(a, b, c, al, be, x, p, 2), 2, integrate.QuadratureSpec(128), measure="dt"
    )
    out.append(_val("askey-roy-multi-l2", lhs, integrate.arl_rhs(a, b, c, al, be, x, p, 2), 1e-8))
    # Askey's conjecture and the q-Selberg Jackson sum
    s, r, _ = integrate.ascj_sum(a, b, al, be, 0.25, 1, 2)
    out.append(_val("askey-conjecture-l2-m1", s, r, 1e-8))
    s, r, _ = integrate.ascj_general_sum(a, b, al, be, draw(0.45), 0.25, 2)
    out.append(_val("askey-conjecture-general-l2", s, r, 1e-8))
    s, r, _ = integrate.qselberg_jackson(draw(0.4), draw(0.2), 0.55, 0.3, 2)
    out.append(_val("qselberg-jackson-l2", s, r, 1e-8))
    # X-recurrence
    rat, closed = integrate.qselberg_X_ratio(1, a, b, c, x, p, 2, integrate.QuadratureSpec(128))
    out.append(_val("qselberg-X1-X0", rat, closed, 1e-9))
    # exact symmetrization identities of the one-variable monomial sums
    eta_x = draw(0.6)
    t3 = np.exp(1j * rng.uniform(0, 2 * np.pi, 3)) * rng.uniform(0.8, 1.2, 3)
    out.append(_res("symmetrization-identities", _symmetrization_residual(t3, eta_x), 1e-12))
    out.append(_binomial_identity("binomial-identity"))
    return out


def _symmetrization_residual(t, x):
    ell = len(t)
    worst = 0.0
    for k in range(1, ell):
        s_plain = sum(
            np.prod([t[s] for s in sig[:k]]) for sig in itertools.permutations(range(ell))
        )
        lhs1 = (
            k
            * (1 - x)
            * sum(
                np.prod([t[s] for s in sig[:k]])
                * np.prod([(x * t[sig[0]] - t[sig[j]]) / (t[sig[0]] - t[sig[j]]) for j in range(1, ell)])
                for sig in itertools.permutations(range(ell))
            )
        )
        worst = max(worst, abs(lhs1 - (x ** (ell - k) - x**ell) * s_plain) / abs(s_plain))
        lhs3 = (
            k
            * (1 - x)
            * sum(
                np.prod([t[s] for s in sig[:k]])
                * np.prod([(t[sig[0]] - x * t[sig[j]]) / (t[sig[0]] - t[sig[j]]) for j in range(1, ell)])
                for sig in itertools.permutations(range(ell))
            )
        )
        worst = max(worst, abs(lhs3 - (1 - x**k) * s_plain) / abs(s_plain))
    return worst


SUITES = {
    "kernel": suite_kernel,
    "weights": suite_weights,
    "rmatrix": suite_rmatrix,
    "qkz": suite_qkz,
    "pairing-det": suite_pairing_det,
    "jackson": suite_jackson,
    "shapovalov": suite_shapovalov,
    "transition": suite_transition,
    "asymptotics": suite_asymptotics,
    "identities": suite_identities,
}


def checks_on_params(name, P):
    """Focused checks run on an explicit parameter set (audited first, so a
    resonant file fails structurally)."""
    assert_admissible(P, delta=1e-3)
    out = []
    if name == "kernel":
        t = np.array([0.95 * np.exp(0.7j), 1.05 * np.exp(2.4j)])[: max(P.ell, 1)]
        if P.ell >= 2:
            lhs = phase_phi(np.array([t[1], t[0]]), P)
            rhs = (
                phase_phi(t, P)
                * (t[0] - P.eta * t[1])
                / (P.eta * t[0] - t[1])
                * P.eta
                * theta(t[0] / t[1] / P.eta, P.p)
                / theta(P.eta * t[0] / t[1], P.p)
            )
            out.append(_val("phase-swap-symmetry", lhs, rhs, 1e-12))
        u = 0.7 + 0.1j
        out.append(_val("theta-quasi-periodicity", theta(P.p * u, P.p), -theta(u, P.p) / u, 1e-12))
    elif name == "weights":
        rng = np.random.default_rng(0)
        t = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, P.ell))) * rng.uniform(0.9, 1.1, (3, P.ell))
        for l in combin.index_vectors(P.n, P.ell):
            a = weightfn.w_trig(l, t, P, "symmetrized")
            b = weightfn.w_trig(l, t, P, "subset")
            out.append(_res(f"w-form-agreement-{l}", float(np.max(np.abs(a - b) / np.abs(a))), 1e-11))
    elif name == "pairing-det":
        _, G = integrate.pairing_matrix(P, spec=integrate.QuadratureSpec(128))
        out.append(_val("det-mu-generic", np.linalg.det(G), integrate.det_rhs(P, "mu_gen"), 1e-8))
    elif name == "jackson":
        IV = combin.index_vectors(P.n, P.ell)
        Wf = lambda t: weightfn.W_ell(IV[0], t, P, "subset")
        wfn = lambda t: weightfn.w_trig(IV[-1], t, P, "subset")
        I0 = integrate.hyper_I(Wf, wfn, P, integrate.QuadratureSpec(128))
        Ix, _ = integrate.jackson_sum(Wf, wfn, P, side="x")
        out.append(_val("jackson-x", Ix, I0, 1e-7))
    elif name == "shapovalov":
        IV = combin.index_vectors(P.n, P.ell)
        tau = tuple(range(P.n))
        om = combin.perm_reversal(P.n)
        l = IV[0]
        f1 = lambda t: weightfn.W_tau(l, t, P, tau, "subset")
        f2 = lambda t: weightfn.W_tau(l, t, P.with_kappa(1 / P.kappa), om, "subset")
        S = integrate.shapovalov("elliptic", f1, f2, P)
        out.append(_val("shapovalov-diag", S, weightfn.norm_constants(l, P, tau).N_l, 1e-8))
    elif name == "transition":
        if P.n != 2:
            raise ValueError("transition checks on explicit params need n = 2")
        B = solutions.transition_matrix("B", (0, 1), (1, 0), P)
        R = repthy.trig_R_block(P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], P.q, P.ell)
        out.append(
            _res("transition-trig-local", float(np.linalg.norm(B - R.T) / np.linalg.norm(R)), 1e-7)
        )
    elif name == "qkz":
        Ks = 0.8 + 0.1j
        worst = 0.0
        for li in range(P.n):
            for mi in range(li + 1, P.n):
                zl = list(P.z)
                zl[li] *= P.p
                zm = list(P.z)
                zm[mi] *= P.p
                lhs = repthy.qkz_K(li, P.Lambda, P.q, tuple(zm), P.p, Ks, P.ell) @ repthy.qkz_K(
                    mi, P.Lambda, P.q, P.z, P.p, Ks, P.ell
                )
                rhs = repthy.qkz_K(mi, P.Lambda, P.q, tuple(zl), P.p, Ks, P.ell) @ repthy.qkz_K(
                    li, P.Lambda, P.q, P.z, P.p, Ks, P.ell
                )
                worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
        out.append(_res("qkz-flatness", worst, 1e-10))
    elif name == "rmatrix":
        worst = 0.0
        for w in (1, 2):
            Ra = repthy.trig_R_block(P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], P.q, w, "linear_solve")
            Rb = repthy.trig_R_block(P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], P.q, w, "spectral")
            worst = max(worst, np.linalg.norm(Ra - Rb) / np.linalg.norm(Ra))
        out.append(_res("R-two-methods", worst, 1e-10))
    else:
        raise ValueError(f"suite {name!r} does not take a parameter file")
    return out


def run_suite(name, seed=None, cfg=None, params=None):
    if name not in SUITES:
        raise KeyError(name)
    t0 = time.perf_counter()
    if params is not None:
        recs = finalize(checks_on_params(name, params))
    else:
        kwargs = {}
        if seed is not None:
            kwargs["seed"] = seed
        recs = finalize(SUITES[name](cfg=cfg, **kwargs))
    return {"suite": name, "checks": recs, "elapsed_s": time.perf_counter() - t0}
