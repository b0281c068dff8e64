import cmath

import numpy as np
import pytest

from qkzhyper import combin, integrate as ig, repthy as rt, solutions as so, weightfn as wf
from qkzhyper.cli_params import sample_params
from qkzhyper.errors import ResonanceError
from qkzhyper.numkernel import ParameterSet


def test_tensor_coordinates_n1():
    P = sample_params(2, 1, 2)
    coords = so.tensor_coordinates("B", (0,), P)
    assert len(coords) == 1
    b, fld = coords[0]
    ell, Lam = 2, P.Lambda[0]
    want = P.q_pow(ell * (ell - 1) / 2) * P.q_pow(ell * Lam)
    assert abs(b - want) / abs(want) < 1e-12


def test_c_coordinates_pole_at_special_kappa():
    P = sample_params(4, 2, 1)
    Pk = P.with_kappa(P.kappa_special(+1))
    with pytest.raises(ResonanceError):
        wf.c_coeff((1, 0), Pk)
    # the residual weight function at the special value is the boundary constant
    t = np.array([1.03 * np.exp(0.4j)])
    val = wf.W_ell((1, 0), t, Pk)
    assert abs(val - 1.0) < 1e-10


def test_transition_identity_and_cocycle():
    P = sample_params(6, 2, 1)
    M = so.transition_matrix("B", (0, 1), (0, 1), P)
    assert np.linalg.norm(M - np.eye(2)) < 1e-12
    P3 = sample_params(7, 3, 1)
    t0, t1, t2 = (0, 1, 2), (1, 0, 2), (1, 2, 0)
    for fl in ("B", "C"):
        M01 = so.transition_matrix(fl, t0, t1, P3, seed=2)
        M12 = so.transition_matrix(fl, t1, t2, P3, seed=3)
        M02 = so.transition_matrix(fl, t0, t2, P3, seed=4)
        assert np.linalg.norm(M01 @ M12 - M02) / np.linalg.norm(M02) < 1e-9


def test_adjacent_transition_trig():
    for ell in (1, 2):
        P = sample_params(11 + ell, 2, ell)
        B = so.transition_matrix("B", (0, 1), (1, 0), P)
        R = rt.trig_R_block(P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], P.q, ell)
        assert np.linalg.norm(B - R.T) / np.linalg.norm(R) < 1e-8


def test_adjacent_transition_elliptic():
    for ell in (1, 2):
        P = sample_params(21 + ell, 2, ell)
        C = so.transition_matrix("C", (1, 0), (0, 1), P)
        lam = so.lambda_from_kappa(P.kappa, ell, P.xi[0], P.xi[1], P.eta)
        Rq = so.ell_R_block(P.Lambda[0], P.Lambda[1], P.z[0] / P.z[1], lam, ell, P.p, P.eta)
        assert np.linalg.norm(C - Rq) / np.linalg.norm(Rq) < 1e-8


def test_lambda_dictionary_well_defined():
    # the same (x, lambda) reached from rescaled z and different nodes
    L1, L2 = 0.45 + 0.09j, 0.62 - 0.06j
    p, eta = 0.16 * np.exp(0.7j), 2.0 * np.exp(0.15j)
    x, lam = 1.3 * np.exp(0.5j), 0.8 + 0.3j
    for w in (1, 2):
        A = so.ell_R_block(L1, L2, x, lam, w, p, eta, seed=5)
        B = so.ell_R_block(L1, L2, x, lam, w, p, eta, seed=11, z1=x * 0.7 * np.exp(1.9j))
        assert np.linalg.norm(A - B) / np.linalg.norm(A) < 1e-7


def test_ell_R_normalization_and_inversion():
    L1, L2 = 0.45 + 0.09j, 0.62 - 0.06j
    p, eta = 0.16 * np.exp(0.7j), 2.0 * np.exp(0.15j)
    x, lam = 1.3 * np.exp(0.5j), 0.8 + 0.3j
    blocks = [so.ell_R_block(L1, L2, x, lam, w, p, eta) for w in range(3)]
    assert np.allclose(blocks[0], np.eye(1))
    blocks21 = [so.ell_R_block(L2, L1, 1 / x, lam, w, p, eta) for w in range(3)]
    for w in (1, 2):
        pair = combin.index_vectors(2, w)
        idx = {v: i for i, v in enumerate(pair)}
        P = np.zeros((len(pair),) * 2, dtype=complex)
        for j, (k1, k2) in enumerate(pair):
            P[idx[(k2, k1)], j] = 1.0
        lhs = P @ blocks[w]
        rhs = np.linalg.inv(blocks21[w]) @ P
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8


def test_ell_R_dynamical_ybe():
    p, eta = 0.16 * np.exp(0.7j), 2.0 * np.exp(0.15j)
    L1, L2, L3 = 0.45 + 0.09j, 0.62 - 0.06j, 0.53 + 0.12j
    res = rt.dynamical_ybe_residual(
        so.ell_R_evaluator(L1, L2, p, eta),
        so.ell_R_evaluator(L1, L3, p, eta),
        so.ell_R_evaluator(L2, L3, p, eta),
        1.375 * np.exp(0.9j),
        0.75 * np.exp(-0.4j),
        0.8 + 0.3j,
        (L1, L2, L3),
        eta,
        2,
    )
    assert res < 1e-9


def test_ell_R_weight1_vs_product_formula():
    p, eta = 0.16 * np.exp(0.7j), 2.0 * np.exp(0.15j)
    L1, L2 = 0.45 + 0.09j, 0.62 - 0.06j
    q = cmath.exp(0.5 * cmath.log(eta))
    xi1, xi2 = cmath.exp(L1 * cmath.log(eta)), cmath.exp(L2 * cmath.log(eta))
    kappa = 0.9 * np.exp(0.4j)
    x = 1.375 * np.exp(0.9j)
    lam1 = so.lambda_from_kappa(kappa, 1, xi1, xi2, eta)
    R1 = so.ell_R_block(L1, L2, x, lam1, 1, p, eta)
    M = rt.rpr_middle_matrix(rt.rpr_matrix_params(L1, L2, q, kappa), x, p)
    cr1, cr2 = rt.cross_ratio(M), rt.cross_ratio(R1)
    assert abs(cr1 - cr2) / abs(cr2) < 1e-8


def test_psi_solution_n1_closed_form():
    P = sample_params(17, 1, 1, regime="solution")
    psi = so.psi_solution((1,), (0,), P)
    # single component b * Y * I with the n = 1 pairing; cross-check against
    # straight-torus quadrature
    psi_q = so.psi_solution((1,), (0,), P, method="quadrature",
                            spec=ig.QuadratureSpec(256))
    assert abs(psi[0] - psi_q[0]) / abs(psi[0]) < 1e-9


def test_qkz_solution_residual():
    P = sample_params(21, 2, 1, regime="solution")
    assert so.qkz_residual((1, 0), P) < 1e-6
    Ps = P.with_kappa(P.kappa_special(+1))
    assert so.singular_residual((0, 1), Ps) < 1e-7


def test_mono_functoriality():
    P = sample_params(23, 2, 1, regime="solution")
    assert so.mono_functoriality_residual((1, 0), P) < 1e-7


def test_detM_numeric_vs_closed():
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        P = sample_params(31 + 10 * n + ell, n, ell)
        dM = so.detM_numeric(P, "trig")
        rhs = ig.detM_rhs(P)
        assert abs(dM - rhs) / abs(rhs) < 1e-8
        dMq = so.detM_numeric(P, "elliptic")
        rhsq = ig.detMq_rhs(P)
        assert abs(dMq - rhsq) / abs(rhsq) < 1e-8


def test_asymptotic_leading_and_sparsity():
    rng = np.random.default_rng(5)
    p = 0.14 * np.exp(1j * 0.9)
    eta = 2.1 * np.exp(0.12j)
    xi = (0.41 * np.exp(0.6j), 0.36 * np.exp(-1.1j))
    kap = 0.18 * np.exp(0.5j)

    def params_at_ratio(r):
        return ParameterSet(
            p=p, eta=eta, kappa=kap, xi=xi, z=(r * np.exp(0.4j), np.exp(2.0j)), n=2, ell=1
        )

    rep = so.asymptotic_check((1, 0), params_at_ratio, ratios=(1e-1, 1e-2, 1e-3))
    lead = [row["leading_rel"] for row in rep]
    assert lead[2] < lead[1] < lead[0]
    assert lead[2] < 0.03
    # the non-dominating component must decay
    subs = [row["subleading"][(0, 1)] for row in rep]
    assert all(tag == "vanishing" for _, tag in subs)
    assert subs[2][0] < subs[1][0] < subs[0][0]
    # dominating components stay O(1) for the other index
    rep2 = so.asymptotic_check((0, 1), params_at_ratio, ratios=(1e-2, 1e-3))
    tags = [row["subleading"][(1, 0)][1] for row in rep2]
    assert all(t == "O(1)-allowed" for t in tags)
    mags = [row["subleading"][(1, 0)][0] for row in rep2]
    assert mags[1] > 0.01  # genuinely O(1), not decaying to zero


def test_as_factorization_trend():
    p = 0.14 * np.exp(1j * 0.9)
    eta = 2.1 * np.exp(0.12j)
    xi = (0.41 * np.exp(0.6j), 0.36 * np.exp(-1.1j))
    kap = 0.18 * np.exp(0.5j)

    def prm(r):
        return ParameterSet(
            p=p, eta=eta, kappa=kap, xi=xi, z=(r * np.exp(0.4j), np.exp(2.0j)), n=2, ell=1
        )

    vals = [abs(so.as_factorization_ratio((1, 0), prm(r)) - 1) for r in (1e-1, 1e-2, 1e-3)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 0.03


def test_n1_psi_quasiconstant():
    # n = 1: no asymptotic zone; Psi / Y is exactly z-independent
    P = sample_params(37, 1, 1, regime="solution")
    psi1 = so.psi_solution((1,), (0,), P)
    lt = (1,)
    Y, _ = wf.adjusting_factor(lt, P)
    v1 = psi1[0] / Y(P.z)
    P2 = P.with_z((P.z[0] * 0.45 * np.exp(0.8j),))
    psi2 = so.psi_solution((1,), (0,), P2)
    v2 = psi2[0] / Y(P2.z)
    assert abs(v1 - v2) / abs(v1) < 1e-9


def test_special_point_evaluation_triangular_determinant():
    # triangular vanishing implies det[P_l(x<m)] = prod_l P_l(x<l)
    P = sample_params(55, 2, 2)
    idx = combin.index_vectors(2, 2)
    M = np.array(
        [[wf.basis_aux("P", l, wf.special_point(m, P, "x"), P) for m in idx] for l in idx]
    )
    det = np.linalg.det(M)
    prod = np.prod([wf.P_at_x_closed(l, P) for l in idx])
    assert abs(det - prod) / abs(prod) < 1e-10


@pytest.mark.parametrize("flavor", ["B", "C"])
@pytest.mark.parametrize("ell", [1, 2])
def test_transition_fit_matches_per_node_solve(flavor, ell):
    """The fit samples each field once on all nodes; a per-node sample of the
    same system solves to the same transition matrix."""
    P = sample_params(6, 2, ell)
    tau, tau_p = (0, 1), (1, 0)
    coords = so.tensor_coordinates(flavor, tau, P)
    coords_p = so.tensor_coordinates(flavor, tau_p, P)
    dim = len(coords)
    nodes = so.sample_nodes(1, ell, dim)
    per_node = lambda cs: np.array([[f(nodes[i : i + 1])[0] for _, f in cs] for i in range(dim)])
    B = per_node(coords)
    assert np.linalg.cond(B) < so._COND_CAP
    cm = np.array([c for c, _ in coords])
    cp = np.array([c for c, _ in coords_p])
    ref = np.linalg.solve(B, per_node(coords_p)) * cp[None, :] / cm[:, None]
    M = so.transition_matrix(flavor, tau, tau_p, P)
    assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)
