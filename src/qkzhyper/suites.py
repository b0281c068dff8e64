"""Named verification suites.

A suite is a loop over draws.  Each draw's inputs, mostly a ParameterSet
from sample_params, go to a check function that returns that draw's
records: {id, lhs, rhs, tol} (value comparisons) or {id, residual, tol}
(norm residuals, already relative).  `run_suite(name, params=P)` calls the
same check functions on one explicit ParameterSet instead of the draws
(ON_PARAMS), and the acceptance criteria call them with their own draws.
Tolerances are the frozen acceptance numbers.
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


def _sum_val(id_, lhs, rhs, tol, report):
    """A lattice or Jackson sum's record, carrying the sum's `shells` and
    `tail_estimate` from its report."""
    rec = _val(id_, lhs, rhs, tol)
    rec.update(shells=int(report["shells"]), tail_estimate=float(report["tail_estimate"]))
    return rec


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


def kernel_checks(p, u):
    """Functional equations of qpoch and theta at nome p and argument u."""
    h = 1e-6
    fd = (theta(1 + h, p) - theta(1 - h, p)) / (2 * h)
    return [
        _val("qpoch-functional-eq", qpoch(u, p), (1 - u) * qpoch(p * u, p), 1e-12),
        _val("theta-quasi-periodicity", theta(p * u, p), -theta(u, p) / u, 1e-12),
        _val("theta-inversion", theta(1 / u, p), -theta(u, p) / u, 1e-12),
        _val("theta-zero", 1.0 + theta(1.0, p), 1.0, 1e-12),
        _val("theta-prime-one-fd", theta_prime_one(p), fd, 1e-6),
    ]


def phase_swap_check(P):
    """Swap symmetry of the phase function in t_0, t_1 (needs ell >= 2)."""
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
    return [_val("phase-swap-symmetry", lhs, rhs, 1e-12)]


def suite_kernel(seed=1, cfg=None):
    rng = np.random.default_rng(seed)
    p = 0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    u = rng.uniform(0.4, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    out = kernel_checks(p, u) + phase_swap_check(sample_params(seed, 2, 2))
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


def weight_form_checks(P, t):
    """The symmetrized and subset forms of w_l and W_l agree at the nodes t."""
    out = []
    for l in combin.index_vectors(P.n, P.ell):
        a = weightfn.w_trig(l, t, P, "symmetrized")
        b = weightfn.w_trig(l, t, P, "subset")
        out.append(_res(f"w-form-agreement-{l}", np.max(np.abs(a - b) / np.abs(a)), 1e-11))
        A = weightfn.W_ell(l, t, P, "symmetrized")
        B = weightfn.W_ell(l, t, P, "subset")
        out.append(_res(f"W-form-agreement-{l}", np.max(np.abs(A - B) / np.abs(A)), 1e-11))
    return out


def basis_det_checks(P):
    """Basis-change determinants to the rational (g) and theta (G) bases."""
    tag = f"({P.n},{P.ell})"
    return [
        _val(f"detM-{tag}", solutions.detM_numeric(P, "trig"), integrate.detM_rhs(P), 1e-8),
        _val(f"detMq-{tag}", solutions.detM_numeric(P, "elliptic"), integrate.detMq_rhs(P), 1e-8),
    ]


def suite_weights(seed=2, cfg=None):
    P = sample_params(seed, 2, 2)
    rng = np.random.default_rng(seed + 1)
    t = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 2))) * rng.uniform(0.85, 1.15, (4, 2))
    out = weight_form_checks(P, t)
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
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        out += basis_det_checks(sample_params(seed + 10 * n + ell, n, ell))
    return out


_DRAWS = 10  # draws of the rmatrix and qkz suites


def rmatrix_pair_checks(L1, L2, x, q, k=0):
    """Trig R(x) on V^L1 (x) V^L2 in weights 1..3: the two constructions
    agree, it inverts against R21(1/x), and it intertwines E.  Each block
    is built once for the three checks."""
    block = repthy.trig_R_memo()
    worst_m = inv_w = 0.0
    for w in (1, 2, 3):
        Ra = block(L1, L2, x, q, w, "linear_solve")
        Rb = block(L1, L2, x, q, w, "spectral")
        R21 = block(L2, L1, 1 / x, q, w)
        Pm = repthy.perm_matrix(w)
        worst_m = max(worst_m, np.linalg.norm(Ra - Rb) / np.linalg.norm(Ra))
        inv_w = max(inv_w, np.linalg.norm(Pm @ Ra - np.linalg.inv(R21) @ Pm) / np.linalg.norm(Pm @ Ra))
    return [
        _res(f"R-two-methods-{k}", worst_m, 1e-10),
        _res(f"R-inversion-{k}", inv_w, 1e-10),
        _res(f"R-intertwining-{k}", _rmore_residual(L1, L2, x, q, 3, block), 1e-10),
    ]


def rmatrix_ybe_check(L1, L2, L3, x, y, q, k=0):
    """Yang-Baxter equation R12(x/y) R13(x) R23(y) = R23 R13 R12 to weight 3."""
    return [_res(f"R-ybe-{k}", repthy.ybe_residual_trig(L1, L2, L3, x, y, q, 3), 1e-10)]


def suite_rmatrix(seed=3, cfg=None):
    out = []
    rng = np.random.default_rng(seed)
    for k in range(_DRAWS):
        L1 = 0.35 + 0.4 * rng.random() + 0.2j * (rng.random() - 0.5)
        L2 = 0.35 + 0.4 * rng.random() + 0.2j * (rng.random() - 0.5)
        L3 = 0.35 + 0.4 * rng.random() + 0.2j * (rng.random() - 0.5)
        q = (1.2 + 0.6 * rng.random()) * np.exp(1j * rng.uniform(-0.3, 0.3))
        x = (0.5 + rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        y = (0.5 + rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        out += rmatrix_pair_checks(L1, L2, x, q, k) + rmatrix_ybe_check(L1, L2, L3, x, y, q, k)
    return out


def _rmore_residual(L1, L2, x, q, wmax, block):
    """Worst relative residual of R(x) Delta(E) = Delta'(E) R(x), and of
    its x-twisted pair, on the maps from weight w to w - 1, 1 <= w <= wmax;
    `block` is a repthy.trig_R_memo."""
    worst = 0.0
    for w in range(1, wmax + 1):
        Rw = block(L1, L2, x, q, w)
        Rwm = block(L1, L2, x, q, w - 1)
        src = combin.index_vectors(2, w)
        dst = combin.index_vectors(2, w - 1)
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


def qkz_flatness_check(P, Ks, k=0):
    """The qKZ operators with multiplier Ks commute along every pair of
    shifted z_l, z_m.  Each trig R block is built once for the check."""
    n, ell, Lams, q = P.n, P.ell, P.Lambda, P.q
    block = repthy.trig_R_memo()
    worst = 0.0
    for lidx in range(n):
        for midx in range(lidx + 1, n):
            zl = list(P.z)
            zl[lidx] *= P.p
            zm = list(P.z)
            zm[midx] *= P.p
            Kl_shift = repthy.qkz_K(lidx, Lams, q, tuple(zm), P.p, Ks, ell, block)
            Km = repthy.qkz_K(midx, Lams, q, P.z, P.p, Ks, ell, block)
            Km_shift = repthy.qkz_K(midx, Lams, q, tuple(zl), P.p, Ks, ell, block)
            Kl = repthy.qkz_K(lidx, Lams, q, P.z, P.p, Ks, ell, block)
            lhs = Kl_shift @ Km
            rhs = Km_shift @ Kl
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    return [_res(f"qkz-flatness-n{n}-l{ell}-{k}", worst, 1e-10)]


def qkz_solution_checks(P):
    """The hypergeometric solution at (n, ell) = (2, 1) solves the qKZ
    equation with Ks = kappa, takes singular values at the special kappa and
    is functorial under the swap.  Its x-side Jackson sums need P inside
    their convergence regime."""
    Ps = P.with_kappa(P.kappa_special(+1))
    return [
        _res("qkz-solution-residual", solutions.qkz_residual((1, 0), P), 1e-6),
        _res("qkz-solution-singular", solutions.singular_residual((0, 1), Ps), 1e-7),
        _res("qkz-solution-functorial", solutions.mono_functoriality_residual((1, 0), P), 1e-7),
    ]


def suite_qkz(seed=4, cfg=None):
    out = []
    rng = np.random.default_rng(seed)
    for k in range(_DRAWS):
        n = 2 if k % 2 == 0 else 3
        ell = 1 + (k % 2)
        P = sample_params(seed + 100 + k, n, ell)
        Ks = 0.5 + rng.random() + 0.3j * (rng.random() - 0.5)
        out += qkz_flatness_check(P, Ks, k)
    return out + qkz_solution_checks(sample_params(seed + 500, 2, 1, regime="solution"))


def integral_n1l1_check(a, b, c, p, cfg=None):
    """Closed form of the n = ell = 1 torus integral of theta(c t) /
    ((a t; p) (b / t; p))."""
    f = lambda t: theta(c * t[..., 0], p) / (
        qpoch(a * t[..., 0], p) * qpoch(b / t[..., 0], p)
    )
    lhs = integrate.torus_integral(f, 1, integrate.QuadratureSpec(_grid(cfg, 256)))
    rhs = 2j * np.pi * qpoch(p * a / c, p) * qpoch(b * c, p) / qpoch(a * b, p)
    return [_val("integral-n1-l1", lhs, rhs, 1e-10)]


def generic_det_check(P, M, cfg=None):
    """Determinant of the pairing matrix on an M-node torus grid."""
    _, G = integrate.pairing_matrix(P, spec=integrate.QuadratureSpec(_grid(cfg, M)))
    return [_val(f"det-mu-generic-({P.n},{P.ell})", np.linalg.det(G), integrate.det_rhs(P, "mu_gen"), 1e-8)]


def special_det_checks(P0, M):
    """Minors of the pairing matrix at the two special values of kappa."""
    out = []
    for sign, restrict, side in ((+1, "first_zero", "plus"), (-1, "last_zero", "minus")):
        P = P0.with_kappa(P0.kappa_special(sign))
        _, G = integrate.pairing_matrix(P, restrict=restrict, spec=integrate.QuadratureSpec(M))
        out.append(_val(f"det-mu-{side}-({P.n},{P.ell})", np.linalg.det(G), integrate.det_rhs(P, f"mu_{side}"), 1e-8))
    return out


def suite_pairing_det(seed=5, cfg=None):
    # n = 1, ell = 1 closed-form integral
    rng = np.random.default_rng(seed)
    a = 0.35 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    b = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c = 1.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p = 0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    out = integral_n1l1_check(a, b, c, p, cfg)
    # determinant theorems
    for n, ell, M in ((1, 1, 256), (1, 2, 128), (2, 1, 256), (2, 2, 128)):
        out += generic_det_check(sample_params(seed + 10 * n + ell, n, ell), M, cfg)
    for n, ell, M in ((2, 1, 256), (3, 1, 192), (2, 2, 128)):
        out += special_det_checks(sample_params(seed + 50 + 10 * n + ell, n, ell), M)
    # vanishing suites
    return out + vanishing_checks(seed + 200)


def vanishing_checks(seed):
    out = []
    # vanishing ratios are measured against the largest nonvanishing pairing
    # of the same family (whole rows die at the special kappa values)
    P0 = sample_params(seed, 2, 2)
    IV = combin.index_vectors(2, 2)
    IVm = combin.index_vectors(2, 1)
    special = {}
    for sign in (+1, -1):
        P = P0.with_kappa(P0.kappa_special(sign))
        _, grid = integrate.pairing_matrix(P, spec=integrate.QuadratureSpec(128))
        special[sign] = P, grid, np.max(np.abs(grid))
    for sign, name, primed in ((+1, "coboundary-plain", False), (-1, "coboundary-primed", True)):
        P, grid, scale = special[sign]
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
        P, _, scale = special[sign]
        kap_low = P.kappa / P.eta if flavor == "Q" else P.kappa * P.eta
        Plow = P.with_kappa(kap_low).with_ell(1)
        Wlow = lambda t: weightfn.W_ell((1, 0), t, Plow, "subset")
        Qel = weightfn.boundary_element(flavor, Wlow, P)
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


def jackson_checks(P, cfg=None):
    """Torus integral = x-side Jackson sum = y-side Jackson sum of
    I(W_l, w_m) for the first and last index vectors; needs P in the
    overlap of both convergence regimes.  Each sum's record carries its
    `shells` and `tail_estimate`."""
    IV = combin.index_vectors(P.n, P.ell)
    l, m = IV[0], IV[-1]
    Wf = lambda t: weightfn.W_ell(l, t, P, "subset")
    wfn = lambda t: weightfn.w_trig(m, t, P, "subset")
    I0 = integrate.hyper_I(Wf, wfn, P, integrate.QuadratureSpec(_grid(cfg, 128)))
    cut = cfg.cutoff if cfg is not None else 60
    tag = f"({P.n},{P.ell})"
    out = []
    for side in ("x", "y"):
        val, report = integrate.jackson_sum(Wf, wfn, P, side=side, cutoff=cut)
        out.append(_sum_val(f"jackson-{side}-{tag}", val, I0, 1e-7, report))
    return out


def suite_jackson(seed=6, cfg=None):
    out = []
    for n, ell in ((2, 1), (2, 2)):
        out += jackson_checks(sample_params(seed + n + ell, n, ell, regime="jackson_overlap"), cfg)
    return out


def shapovalov_checks(P):
    """Elliptic and trigonometric Shapovalov matrices are diagonal with the
    closed diagonal values, and the x- and y-side residue sums balance."""
    tag = f"({P.n},{P.ell})"
    Pinv = P.with_kappa(1 / P.kappa)
    IV = combin.index_vectors(P.n, P.ell)
    om = combin.perm_reversal(P.n)
    tau = tuple(range(P.n))

    def diagonal(kind, label, f1, f2, N):
        k = len(IV)
        S = [[integrate.shapovalov(kind, lambda t: f1(l, t), lambda t: f2(m, t), P) for m in IV] for l in IV]
        out = [_res(f"shapovalov-{label}-diag-{tag}", max(abs(S[i][i] - N[i]) / abs(N[i]) for i in range(k)), 1e-8)]
        if k > 1:
            offd = max(abs(S[i][j]) for i in range(k) for j in range(k) if i != j)
            out.append(_res(f"shapovalov-{label}-offdiag-{tag}", offd / min(abs(v) for v in N), 1e-9))
        return out

    def tdiag(l):
        v = 1.0 + 0j
        for mm, lm in enumerate(l):
            for s in range(1, lm + 1):
                v *= (1 - P.eta) / (P.z[mm] * (1 - P.eta**s) * (P.xi[mm] ** 2 - P.eta ** (s - 1)))
        return v

    out = diagonal(
        "elliptic",
        "ell",
        lambda l, t: weightfn.W_tau(l, t, P, tau, "subset"),
        lambda m, t: weightfn.W_tau(m, t, Pinv, om, "subset"),
        [weightfn.norm_constants(l, P, tau).N_l for l in IV],
    )
    out += diagonal(
        "trig",
        "trig",
        lambda l, t: weightfn.w_tau(l, t, P, tau, "subset"),
        lambda m, t: weightfn.w_tau(m, t, P, om, "subset"),
        [tdiag(l) for l in IV],
    )
    # residue balance of the x- and y-side sums
    om_f = integrate.omega_elliptic(P)
    g = lambda t: om_f(t) * weightfn.W_ell(IV[0], t, P, "subset") * weightfn.W_ell(IV[-1], t, Pinv, "subset")
    rep = integrate.residue_balance_check(g, P)
    out.append(_res(f"residue-balance-{tag}", abs(rep["difference"]) / max(abs(rep["x_sum"]), 1e-300), 1e-8))
    return out


def suite_shapovalov(seed=7, cfg=None):
    out = []
    for n, ell in ((2, 1), (2, 2)):
        out += shapovalov_checks(sample_params(seed + 2 * n + ell, n, ell))
    return out


def transition_adjacent_checks(P, seed=1, r_seed=5):
    """At n = 2 the transition matrices of the adjacent swap are the trig
    R-matrix (B) and the elliptic R-matrix built from transitions (C).  seed
    samples the nodes of the transition fits, r_seed those of the elliptic
    R-matrix fit."""
    ell, L, x = P.ell, P.Lambda, P.z[0] / P.z[1]
    B = solutions.transition_matrix("B", (0, 1), (1, 0), P, seed=seed)
    R = repthy.trig_R_block(L[0], L[1], x, P.q, ell)
    C = solutions.transition_matrix("C", (1, 0), (0, 1), P, seed=seed)
    lam = solutions.lambda_from_kappa(P.kappa, ell, P.xi[0], P.xi[1], P.eta)
    Rq = solutions.ell_R_block(L[0], L[1], x, lam, ell, P.p, P.eta, seed=r_seed)
    return [
        _res(f"transition-trig-adjacent-l{ell}", np.linalg.norm(B - R.T) / np.linalg.norm(R), 1e-7),
        _res(f"transition-ell-adjacent-l{ell}", np.linalg.norm(C - Rq) / np.linalg.norm(Rq), 1e-7),
    ]


def transition_cocycle_checks(P, seed=0):
    """At n = 3 the B and C transitions compose: M(t0, t1) M(t1, t2) =
    M(t0, t2).  The three fits sample their nodes with seed + 1, + 2, + 3."""
    t0, t1, t2 = (0, 1, 2), (1, 0, 2), (1, 2, 0)
    out = []
    for fl in ("B", "C"):
        M01 = solutions.transition_matrix(fl, t0, t1, P, seed=seed + 1)
        M12 = solutions.transition_matrix(fl, t1, t2, P, seed=seed + 2)
        M02 = solutions.transition_matrix(fl, t0, t2, P, seed=seed + 3)
        out.append(_res(f"transition-cocycle-{fl}", np.linalg.norm(M01 @ M12 - M02) / np.linalg.norm(M02), 1e-9))
    return out


def suite_transition(seed=8, cfg=None):
    out = []
    for ell in (1, 2):
        out += transition_adjacent_checks(sample_params(seed + ell, 2, ell), seed, seed + 3)
    out += transition_cocycle_checks(sample_params(seed + 9, 3, 1), seed)
    # elliptic R certification: dynamical YBE, intertwining, RpR block
    return out + elliptic_R_checks(seed + 20)


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
    R1 = solutions.ell_R_block(L1, L2, x, lam1, 1, p, eta)
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


# Truncation depth of the evaluation modules, and the largest weight
# compared, in the elliptic R-matrix intertwining check.
_INTERTWINING_DEPTH = 3
_INTERTWINING_WMAX = 2


def intertwining_residual(L1, L2, x, lam, p, eta):
    depth, wmax = _INTERTWINING_DEPTH, _INTERTWINING_WMAX
    bas = [(k1, k2) for k1 in range(depth + 1) for k2 in range(depth + 1)]
    # P relabels the degree vector (k1, k2) of V1 x V2 as (k2, k1) of V2 x V1
    swap = [bas.index((k2, k1)) for k1, k2 in bas]

    def phi_matrix(lv):
        """P R(x, lv) on bas; zero above weight wmax (P R keeps weight)."""
        blocks = [solutions.ell_R_block(L1, L2, x, lv, w, p, eta) for w in range(wmax + 1)]

        def block_fn(ks):
            w = ks[0] + ks[1]
            pair = combin.index_vectors(2, w)
            return (blocks[w] if w <= wmax else np.zeros((len(pair),) * 2)), pair

        return repthy.embed_pair_op(bas, 0, 1, block_fn)[swap]

    # P R(x, lam) at the three dynamical arguments the relations meet: lam,
    # and lam shifted by eta for T_i1 or by 1/eta for T_i2
    phi = phi_matrix(lam)
    phi_shifted = {j: phi_matrix(lam * (eta if j == 1 else 1 / eta)) for j in (1, 2)}
    xx = 1.1 * np.exp(0.5j)
    yy = xx / x
    u = 1.4 * np.exp(0.9j)
    worst = 0.0
    for ij in ((1, 1), (2, 1), (1, 2), (2, 2)):
        dj = ij[1] - ij[0]
        _, M12 = repthy.ell_coproduct_action(ij, u, lam, ((L1, xx), (L2, yy)), eta, p, depth)
        _, M21 = repthy.ell_coproduct_action(ij, u, lam, ((L2, yy), (L1, xx)), eta, p, depth)
        Lfull = phi @ M12
        Rfull = M21 @ phi_shifted[ij[1]]
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


def qbeta_check(a, b, c, x, p, ell, M, tol):
    """The ell-variable q-beta integral on an M-node torus grid against its
    product formula."""
    f = integrate.qbeta_integrand(a, b, c, x, p, ell)
    lhs = integrate.torus_integral(f, ell, integrate.QuadratureSpec(M), measure="dt")
    return [_val(f"qbeta-l{ell}", lhs, integrate.qbeta_rhs(a, b, c, x, p, ell), tol)]


def askey_roy_check(a, b, c, alpha, beta, p, M, tol):
    """The Askey-Roy integral on an M-node circle against its product formula."""
    f = integrate.askey_roy_integrand(a, b, c, alpha, beta, p)
    lhs = integrate.torus_integral(f, 1, integrate.QuadratureSpec(M))
    return [_val("askey-roy", lhs, integrate.askey_roy_rhs(a, b, c, alpha, beta, p), tol)]


def arl_check(a, b, c, alpha, beta, x, p, ell, M, tol):
    """The ell-variable Askey-Roy integral on an M-node torus grid against its
    product formula."""
    f = integrate.arl_integrand(a, b, c, alpha, beta, x, p, ell)
    lhs = integrate.torus_integral(f, ell, integrate.QuadratureSpec(M), measure="dt")
    return [_val(f"askey-roy-multi-l{ell}", lhs, integrate.arl_rhs(a, b, c, alpha, beta, x, p, ell), tol)]


def ascj_check(a, b, alpha, beta, p, m, ell, cutoff, tol):
    """Askey's lattice sum at x = p^m, summed to shell `cutoff` at most,
    against its product formula; the record carries the sum's `shells` and
    `tail_estimate`."""
    s, r, report = integrate.ascj_sum(a, b, alpha, beta, p, m, ell, cutoff=cutoff)
    return [_sum_val(f"askey-conjecture-l{ell}-m{m}", s, r, tol, report)]


def suite_identities(seed=10, cfg=None):
    out = []
    rng = np.random.default_rng(seed)

    def draw(mod):
        return mod * np.exp(1j * rng.uniform(0, 2 * np.pi))

    a, b, c = draw(0.35), draw(0.4), draw(1.2)
    al, be = draw(0.3), draw(0.28)
    p = draw(0.2)
    x = draw(0.42)
    out += qbeta_check(a, b, c, x, p, 1, 256, 1e-8) + qbeta_check(a, b, c, x, p, 2, 128, 1e-8)
    out += askey_roy_check(a, b, c, al, be, p, 256, 1e-10)
    out += arl_check(a, b, c, al, be, x, p, 2, 128, 1e-8)
    # Askey's conjecture and the q-Selberg Jackson sum
    out += ascj_check(a, b, al, be, 0.25, 1, 2, cutoff=40, tol=1e-8)
    s, r, report = integrate.ascj_general_sum(a, b, al, be, draw(0.45), 0.25, 2)
    out.append(_sum_val("askey-conjecture-general-l2", s, r, 1e-8, report))
    s, r, report = integrate.qselberg_jackson(draw(0.4), draw(0.2), 0.55, 0.3, 2)
    out.append(_sum_val("qselberg-jackson-l2", s, r, 1e-8, report))
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
    perms = list(itertools.permutations(range(ell)))
    worst = 0.0
    for k in range(1, ell):
        s_plain = sum(np.prod([t[s] for s in sig[:k]]) for sig in perms)
        for fac, coef in (
            (lambda a, b: (x * a - b) / (a - b), x ** (ell - k) - x**ell),
            (lambda a, b: (a - x * b) / (a - b), 1 - x**k),
        ):
            lhs = (
                k
                * (1 - x)
                * sum(
                    np.prod([t[s] for s in sig[:k]]) * np.prod([fac(t[sig[0]], t[sig[j]]) for j in range(1, ell)])
                    for sig in perms
                )
            )
            worst = max(worst, abs(lhs - coef * s_plain) / abs(s_plain))
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


def _rmatrix_on_params(P, cfg):
    L, z = P.Lambda, P.z
    ybe = rmatrix_ybe_check(L[0], L[1], L[2], z[0] / z[2], z[1] / z[2], P.q) if P.n >= 3 else []
    return rmatrix_pair_checks(L[0], L[1], z[0] / z[1], P.q) + ybe


def _transition_on_params(P, cfg):
    if P.n not in (2, 3):
        raise ValueError("transition checks on explicit params need n = 2 or 3")
    return transition_adjacent_checks(P) if P.n == 2 else transition_cocycle_checks(P)


# What `run_suite(name, params=P)` runs: the suite's check functions on P,
# each where the file's (n, ell) is one it is written for.  Inputs a
# ParameterSet does not carry are fixed: the kernel argument u = 0.7 + 0.1i,
# the qKZ multiplier Ks = 0.8 + 0.1i, the weight-function nodes, 128-node
# pairing grids and the library's fit seeds.  The asymptotics and identities
# suites draw no ParameterSet and take no parameter file.
ON_PARAMS = {
    "kernel": lambda P, cfg: kernel_checks(P.p, 0.7 + 0.1j) + (phase_swap_check(P) if P.ell >= 2 else []),
    "weights": lambda P, cfg: weight_form_checks(P, solutions.sample_nodes(0, P.ell, 3)) + basis_det_checks(P),
    "rmatrix": _rmatrix_on_params,
    "qkz": lambda P, cfg: qkz_flatness_check(P, 0.8 + 0.1j)
    + (qkz_solution_checks(P) if (P.n, P.ell) == (2, 1) else []),
    "pairing-det": lambda P, cfg: generic_det_check(P, 128, cfg) + (special_det_checks(P, 128) if P.n >= 2 else []),
    "jackson": jackson_checks,
    "shapovalov": lambda P, cfg: shapovalov_checks(P),
    "transition": _transition_on_params,
}


def run_suite(name, seed=None, cfg=None, params=None):
    """Finalized records of one suite: its seeded draws, or its check
    functions on an explicit ParameterSet (audited first, so a resonant
    file fails structurally)."""
    if name not in SUITES:
        raise KeyError(name)
    t0 = time.perf_counter()
    if params is not None:
        assert_admissible(params, delta=1e-3)
        if name not in ON_PARAMS:
            raise ValueError(f"suite {name!r} does not take a parameter file")
        recs = ON_PARAMS[name](params, cfg)
    else:
        recs = SUITES[name](cfg=cfg, **({} if seed is None else {"seed": seed}))
    return {"suite": name, "checks": finalize(recs), "elapsed_s": time.perf_counter() - t0}
