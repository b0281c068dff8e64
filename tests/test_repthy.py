import cmath

import numpy as np
import pytest

from qkzhyper import combin, repthy as rt
from qkzhyper.errors import ResonanceError

Q = 1.3 + 0.21j
L1, L2, L3 = 0.43 + 0.11j, 0.61 - 0.07j, 0.52 + 0.2j
X, Y = 1.7 + 0.4j, 0.6 - 0.3j
LAMS = (L1, L2)


def test_commutator_EF():
    for ell in (1, 2, 3):
        E_up = rt.op_E(LAMS, ell, Q)
        F_dn = rt.op_F(LAMS, ell - 1, Q)
        E_hi = rt.op_E(LAMS, ell + 1, Q)
        F_hi = rt.op_F(LAMS, ell, Q)
        comm = E_hi @ F_hi - F_dn @ E_up
        qH = rt.q_pow(Q, L1 + L2 - ell)
        want = (qH**2 - qH**-2) / (Q - 1 / Q) * np.eye(comm.shape[0])
        assert np.linalg.norm(comm - want) / np.linalg.norm(want) < 1e-12


def test_E_coproduct_hand_oracle():
    # E (F v1 x v2) = e_coeff(1, L1) q^{-L2} v1 x v2 by expanding
    # Delta(E) = E x q^-H + q^H x E by hand
    E = rt.op_E(LAMS, 1, Q)
    basis = combin.index_vectors(2, 1)
    j = basis.index((1, 0))
    want = rt.e_coeff(1, L1, Q) * rt.q_pow(Q, -L2)
    assert abs(E[0, j] - want) / abs(want) < 1e-14
    j2 = basis.index((0, 1))
    want2 = rt.e_coeff(1, L2, Q) * rt.q_pow(Q, L1)
    assert abs(E[0, j2] - want2) / abs(want2) < 1e-14


def test_R_weight0_identity():
    R0 = rt.trig_R_block(L1, L2, X, Q, 0)
    assert R0.shape == (1, 1) and abs(R0[0, 0] - 1) < 1e-14


def test_R_methods_agree():
    for w in (1, 2, 3):
        Ra = rt.trig_R_block(L1, L2, X, Q, w, "linear_solve")
        Rb = rt.trig_R_block(L1, L2, X, Q, w, "spectral")
        assert np.linalg.norm(Ra - Rb) / np.linalg.norm(Ra) < 1e-10


def test_spectral_weight1_eigenvalue():
    v = rt._singular_vector(L1, L2, Q, 1)
    Rinf = rt._r_infinity(L1, L2, Q, 1)
    R1 = rt.trig_R_block(L1, L2, X, Q, 1)
    rho = (X - rt.q_pow(Q, -2 * L1 - 2 * L2)) / (X - rt.q_pow(Q, 2 * L1 + 2 * L2))
    assert np.linalg.norm(R1 @ v - rho * (Rinf @ v)) / np.linalg.norm(R1 @ v) < 1e-12


def test_resonant_weights_raise():
    # q^(4 Lam) = 1 kills E on the weight-1 pair block: no unique singular vector
    q = 1.3
    Lres = 1j * np.pi / (2 * np.log(q))
    with pytest.raises(ResonanceError):
        rt.trig_R_block(Lres, Lres, X, q, 1, "spectral")


def test_inversion_relation():
    for w in (1, 2, 3):
        R12 = rt.trig_R_block(L1, L2, X, Q, w)
        R21 = rt.trig_R_block(L2, L1, 1 / X, Q, w)
        P = rt.perm_matrix(w)
        lhs = P @ R12
        rhs = np.linalg.inv(R21) @ P
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_ybe_trig():
    assert rt.ybe_residual_trig(L1, L2, L3, X, Y, Q, 3) < 1e-10


def test_qkz_n1_trivial():
    Ks = 0.8 + 0.1j
    for ell in (0, 1, 2):
        K = rt.qkz_K(0, (L1,), Q, (1.0,), 0.2, Ks, ell, rt.trig_R_memo())
        assert np.allclose(K, rt.q_pow(Ks, ell) * np.eye(1))


def test_qkz_flatness_and_weight_preservation():
    p = 0.17 + 0.04j
    z = (np.exp(0.5j), np.exp(2.3j), np.exp(4.1j))
    Ks = 0.8 + 0.1j
    L = (L1, L2, L3)
    block = rt.trig_R_memo()
    for ell in (1, 2):
        K = lambda m, zz: rt.qkz_K(m, L, Q, tuple(zz), p, Ks, ell, block)
        for li in range(3):
            for mi in range(li + 1, 3):
                zl = list(z)
                zl[li] *= p
                zm = list(z)
                zm[mi] *= p
                lhs = K(li, zm) @ K(mi, z)
                rhs = K(mi, zl) @ K(li, z)
                assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10


ETA = 1.8 + 0.25j
PP = 0.2 + 0.05j


def test_ell_T_examples():
    Lam, xev = 0.47 + 0.13j, np.exp(0.7j)
    lam = 0.9 + 0.4j
    u = 1.3 - 0.2j
    T11 = rt.ell_T((1, 1), u, lam, Lam, xev, ETA, PP, 3)
    assert abs(T11[0, 0] - 1) < 1e-13
    T21 = rt.ell_T((2, 1), u, lam, Lam, xev, ETA, PP, 3)
    assert np.max(np.abs(T21[:, 0])) == 0.0
    # displayed k = 1 coefficients, by direct substitution
    from qkzhyper.numkernel import theta

    xiL = cmath.exp(Lam * cmath.log(ETA))
    th = lambda v: theta(v, PP)
    T12 = rt.ell_T((1, 2), u, lam, Lam, xev, ETA, PP, 3)
    want = th(xiL / ETA * lam * u / xev) * th(ETA) / (th(xiL * u / xev) * th(lam))
    assert abs(T12[1, 0] - want) / abs(want) < 1e-13
    want21 = (
        u * th(xiL * lam * xev / u) * th(xiL**2) * th(ETA) / (xev * th(xiL * u / xev) * th(lam) * th(ETA)) / xiL
    )
    assert abs(T21[0, 1] - want21) / abs(want21) < 1e-13


def test_single_module_rll_axiom():
    # R(x/y, eta^{2H_V} lam) T1(x,lam) T2(y, eta^{2H_1} lam)
    #   = T2(y,lam) T1(x, eta^{2H_2} lam) R(x/y, lam)
    Lam, xev = 0.45 + 0.09j, 1.2 * np.exp(0.3j)
    lam = 0.8 + 0.3j
    x, y = 1.5 * np.exp(0.4j), 0.7 * np.exp(-0.6j)
    depth = 4
    K = depth + 1

    def bigT(slot, uu, lamfun):
        M = np.zeros((4 * K, 4 * K), dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                for i in (1, 2):
                    for j in (1, 2):
                        for k in range(K):
                            T = rt.ell_T((i, j), uu, lamfun(a, b), Lam, xev, ETA, PP, depth)
                            for kp in range(K):
                                if T[kp, k] == 0:
                                    continue
                                if slot == 1:
                                    if a != j - 1:
                                        continue
                                    dst = (i - 1, b, kp)
                                else:
                                    if b != j - 1:
                                        continue
                                    dst = (a, i - 1, kp)
                                M[(dst[0] * 2 + dst[1]) * K + dst[2], (a * 2 + b) * K + k] += T[kp, k]
        return M

    def bigR(arg, lamfun):
        M = np.zeros((4 * K, 4 * K), dtype=complex)
        for k in range(K):
            R = rt.fundamental_R(arg, lamfun(k), ETA, PP)
            for ab in range(4):
                for abp in range(4):
                    if R[abp, ab] != 0:
                        M[abp * K + k, ab * K + k] += R[abp, ab]
        return M

    h2 = {0: 0.5, 1: -0.5}
    ex = lambda mu: np.exp(2 * mu * np.log(ETA))
    LHS = bigR(x / y, lambda k: lam * ex(Lam - k)) @ bigT(1, x, lambda a, b: lam) @ bigT(
        2, y, lambda a, b: lam * ex(h2[a])
    )
    RHS = bigT(2, y, lambda a, b: lam) @ bigT(1, x, lambda a, b: lam * ex(h2[b])) @ bigR(
        x / y, lambda k: lam
    )
    rows = [ab * K + k for ab in range(4) for k in range(K) if k <= K - 2]
    cols = [ab * K + k for ab in range(4) for k in range(1, K - 2)]
    D = (LHS - RHS)[np.ix_(rows, cols)]
    S = LHS[np.ix_(rows, cols)]
    assert np.linalg.norm(D) / np.linalg.norm(S) < 1e-12


def test_coproduct_weight_structure_and_scalar():
    lam = 0.9 + 0.4j
    u = 1.3 - 0.2j
    mods = ((0.45 + 0.09j, 1.1 * np.exp(0.5j)), (0.62 - 0.06j, 0.8 * np.exp(-0.7j)))
    basis, M11 = rt.ell_coproduct_action((1, 1), u, lam, mods, ETA, PP, 2)
    # diagonal operators preserve degree
    for r, br in enumerate(basis):
        for c, bc in enumerate(basis):
            if M11[r, c] != 0:
                assert sum(br) == sum(bc)
    # weight-0 scalar = product of the two k = 0 scalars
    i0 = basis.index((0, 0))
    (La, xa), (Lb, xb) = mods
    s1 = rt.ell_T((1, 1), u, lam, La, xa, ETA, PP, 1)[0, 0]
    s2 = rt.ell_T((1, 1), u, lam * np.exp(2 * La * np.log(ETA)), Lb, xb, ETA, PP, 1)[0, 0]
    assert abs(M11[i0, i0] - s1 * s2) / abs(s1 * s2) < 1e-13
    _, M12 = rt.ell_coproduct_action((1, 2), u, lam, mods, ETA, PP, 2)
    for r, br in enumerate(basis):
        for c, bc in enumerate(basis):
            if M12[r, c] != 0:
                assert sum(br) == sum(bc) + 1


def test_fundamental_R_dynamical_ybe():
    lam = 0.9 + 0.4j

    def fund_eval(arg, lam_eff, w):
        R = rt.fundamental_R(arg, lam_eff, ETA, PP)
        pb = [(k1, k2) for k1 in (0, 1) for k2 in (0, 1) if k1 + k2 == w]
        idx4 = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
        M = np.zeros((len(pb), len(pb)), dtype=complex)
        for jc, b in enumerate(pb):
            for ir, a in enumerate(pb):
                M[ir, jc] = R[idx4[a], idx4[b]]
        return M

    res = rt.dynamical_ybe_residual(
        fund_eval, fund_eval, fund_eval,
        x=1.4 + 0.3j, y=0.7 - 0.2j, lam=lam,
        weights=(0.5, 0.5, 0.5), eta=ETA, max_weight=2, depths=(1, 1, 1),
    )
    assert res < 1e-12


def test_rpr_pencil_matches_R_block():
    q = cmath.exp(0.5 * cmath.log(ETA))
    kappa = 0.9 * np.exp(0.4j)
    u = 1.3 * np.exp(0.37j)
    R1 = rt.trig_R_block(L1, L2, u, q, 1)
    kH = np.diag([rt.q_pow(kappa, -L1), rt.q_pow(kappa, -(L1 - 1))])
    M = kH @ R1
    a, b, c, d, al, de = rt.rpr_matrix_params(L1, L2, q, kappa)
    A = np.array([[a - al * u, b * u], [c, d - de * u]])
    scal = 1.0 / (u * rt.q_pow(q, -L1 - L2) - rt.q_pow(q, L1 + L2))
    assert np.linalg.norm(A * scal - M) / np.linalg.norm(M) < 1e-12


def test_rpr_truncated_product():
    q = cmath.exp(0.5 * cmath.log(ETA))
    coeffs = rt.rpr_matrix_params(0.41 + 0.1j, 0.63 - 0.05j, q, 0.75 + 0.2j)
    u, p = 1.3 - 0.2j, 0.3
    # S = 0: single factor with zeroth-power prefactors
    a, b, c, d, al, de = coeffs
    A0 = np.array([[a - al * u, b * u], [c, d - de * u]])
    assert np.allclose(rt.rpr_truncated_product(coeffs, u, p, 0), A0)
    CF = rt.rpr_closed_form(coeffs, u, p)
    errs = [
        np.linalg.norm(rt.rpr_truncated_product(coeffs, u, p, S) - CF) / np.linalg.norm(CF)
        for S in (5, 10, 20, 30)
    ]
    assert all(errs[i + 1] < errs[i] for i in range(3))
    assert errs[-1] < 1e-6
    # b = 0 degenerates the closed form to a triangular theta matrix
    c0 = list(coeffs)
    c0[1] = 0.0
    CF0 = rt.rpr_closed_form(tuple(c0), u, p)
    assert abs(CF0[0, 1]) == 0.0
    from qkzhyper.numkernel import qpoch, theta

    aa, _, cc, dd, aal, dde = c0
    lam_r, mu_r = aa / aal, dd / dde
    pp = qpoch(p, p)
    e11 = (
        aa
        * theta(aal * u / aa, p)
        * qpoch(p * lam_r * dde / aa, p)
        * qpoch(p * mu_r * dde / aa, p)
        / (qpoch(p * dd / aa, p) * qpoch(p * dde / aal, p) * pp)
    )
    assert abs(CF0[0, 0] - e11) / abs(e11) < 1e-12
