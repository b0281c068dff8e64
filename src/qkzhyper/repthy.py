"""Truncated representation theory.

Uq(sl2) Verma tensor products with E, F and q^H, the trigonometric
R-matrix built two independent ways, the qKZ operators, the elliptic
evaluation modules with their T_ij action and coproduct, and residual
checkers for both Yang-Baxter equations.

All operators preserve total weight; a matrix "block" always means the
restriction to the span of monomials F^{k_1} v_1 x ... x F^{k_n} v_n with
fixed k_1 + ... + k_n, ordered lexicographically (combin.index_vectors).
"""

import cmath

import numpy as np

from . import combin
from .errors import ResonanceError
from .numkernel import theta, qpoch


def q_pow(q, expo):
    return cmath.exp(complex(expo) * cmath.log(q))


def e_coeff(k, Lam, q):
    """E F^k v = e_coeff * F^(k-1) v, from [E, F] = (q^2H - q^-2H)/(q - 1/q)."""
    if k == 0:
        return 0.0 + 0j
    acc = 0.0 + 0j
    for j in range(k):
        w = Lam - k + 1 + j
        acc += (q_pow(q, 2 * w) - q_pow(q, -2 * w)) / (q - 1.0 / q)
    return acc


def _weight_factor(Lams, ks, q, rng, sign):
    out = 1.0 + 0j
    for i in rng:
        out *= q_pow(q, sign * (Lams[i] - ks[i]))
    return out


def _ladder_op(Lams, ell, q, step):
    """Matrix of Delta(E) (step -1) or Delta(F) (step +1) from block ell to
    block ell + step on the Verma modules of highest weights Lams:
    Delta(X) = sum q^H x..x X_m x q^-H x.."""
    n = len(Lams)
    src = combin.index_vectors(n, ell)
    idx = {v: i for i, v in enumerate(combin.index_vectors(n, ell + step))}
    M = np.zeros((len(idx), len(src)), dtype=np.complex128)
    for j, ks in enumerate(src):
        for m in range(n):
            if ks[m] + step < 0:
                continue
            out = list(ks)
            out[m] += step
            coeff = e_coeff(ks[m], Lams[m], q) if step < 0 else 1.0 + 0j
            coeff *= _weight_factor(Lams, ks, q, range(m), +1)
            coeff *= _weight_factor(Lams, out, q, range(m + 1, n), -1)
            M[idx[tuple(out)], j] += coeff
    return M


def op_E(Lams, ell, q):
    """Matrix of E from block ell to block ell-1."""
    return _ladder_op(Lams, ell, q, -1)


def op_F(Lams, ell, q):
    """Matrix of F from block ell to block ell+1."""
    return _ladder_op(Lams, ell, q, +1)


# ---------------------------------------------------------------------------
# trigonometric R-matrix


def trig_R_block(L1, L2, x, q, w, method="linear_solve"):
    """Weight-w block of R_{V1 V2}(x), normalized by R v1 x v2 = v1 x v2."""
    if method == "linear_solve":
        return _trig_R_linear(L1, L2, x, q, w)
    if method == "spectral":
        return _trig_R_spectral(L1, L2, x, q, w)
    raise ValueError(f"unknown method {method!r}")


def trig_R_memo():
    """trig_R_block memoized for the life of one check.  The key is every
    argument, the method included, so the linear-solve and spectral
    constructions never share an entry; each block handed out is read-only."""
    store = {}

    def block(L1, L2, x, q, w, method="linear_solve"):
        key = (complex(L1), complex(L2), complex(x), complex(q), int(w), method)
        if key not in store:
            R = trig_R_block(L1, L2, x, q, w, method)
            R.flags.writeable = False
            store[key] = R
        return store[key]

    return block


def _trig_R_linear(L1, L2, x, q, w):
    R = np.ones((1, 1), dtype=np.complex128)
    for k in range(1, w + 1):
        src = combin.index_vectors(2, k - 1)
        dst = combin.index_vectors(2, k)
        idx = {v: i for i, v in enumerate(dst)}

        def op(c_qH_on_2, c_qH_on_1, xmul):
            # c1 * F x q^(s2 H) + xmul * c2 * q^(s1 H) x F
            M = np.zeros((len(dst), len(src)), dtype=np.complex128)
            for j, (k1, k2) in enumerate(src):
                M[idx[(k1 + 1, k2)], j] += q_pow(q, c_qH_on_2 * (L2 - k2))
                M[idx[(k1, k2 + 1)], j] += xmul * q_pow(q, c_qH_on_1 * (L1 - k1))
            return M

        A1 = op(-1, +1, 1.0)        # Delta(F)  = F x q^-H + q^H x F
        B1 = op(+1, -1, 1.0)        # Delta'(F) = F x q^H  + q^-H x F
        A2 = op(+1, -1, x)          # F x q^H  + x q^-H x F
        B2 = op(-1, +1, x)          # F x q^-H + x q^H  x F
        lhs = np.hstack([A1, A2])
        rhs = np.hstack([B1 @ R, B2 @ R])
        sol, *_ = np.linalg.lstsq(lhs.T, rhs.T, rcond=None)
        Rk = sol.T
        resid = np.linalg.norm(Rk @ lhs - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if resid > 1e-8:
            raise ResonanceError(f"R-matrix solve inconsistent at weight {k}: {resid:.2e}")
        R = Rk
    return R


def _singular_vector(L1, L2, q, l):
    """Kernel of E on the pair block l (1-dimensional for generic weights)."""
    if l == 0:
        return np.array([1.0 + 0j])
    E = op_E((L1, L2), l, q)
    u, s, vh = np.linalg.svd(E)
    tol = 1e-8 * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int((s > tol).sum())
    if E.shape[1] - rank != 1:
        raise ResonanceError("degenerate singular vector (resonant weights)")
    return vh[-1].conj()


def _r_infinity(L1, L2, q, w):
    """R(infinity) = q^(2 L1 L2 - 2 H x H) sum_k (q^2-1)^(2k)
    prod_{s<=k}(1-q^(2s))^-1 (q^-H E x q^H F)^k on the pair block w."""
    basis = combin.index_vectors(2, w)
    d = len(basis)
    idx = {v: i for i, v in enumerate(basis)}
    out = np.zeros((d, d), dtype=np.complex128)
    for j, (k1, k2) in enumerate(basis):
        vec = {(k1, k2): 1.0 + 0j}
        coeff = 1.0 + 0j
        k = 0
        while True:
            for (a, b), c in vec.items():
                out[idx[(a, b)], j] += coeff * c * q_pow(
                    q, 2 * L1 * L2 - 2 * (L1 - a) * (L2 - b)
                )
            k += 1
            nxt = {}
            for (a, b), c in vec.items():
                if a == 0:
                    continue
                cc = c * e_coeff(a, L1, q) * q_pow(q, -(L1 - (a - 1))) * q_pow(q, L2 - (b + 1))
                nxt[(a - 1, b + 1)] = nxt.get((a - 1, b + 1), 0.0) + cc
            if not nxt:
                break
            vec = nxt
            coeff *= (q * q - 1.0) ** 2 / (1.0 - q_pow(q, 2 * k))
    return out


def _trig_R_spectral(L1, L2, x, q, w):
    basis = combin.index_vectors(2, w)
    d = len(basis)
    # columns: F^(w-l) s_l spanning the block, l = 0..w
    cols = []
    for l in range(w + 1):
        v = _singular_vector(L1, L2, q, l)
        vec = v
        for k in range(l, w):
            vec = op_F((L1, L2), k, q) @ vec
        cols.append(vec)
    B = np.array(cols).T
    eig = []
    for l in range(w + 1):
        ev = 1.0 + 0j
        for s in range(l):
            ev *= (x - q_pow(q, 2 * s - 2 * L1 - 2 * L2)) / (x - q_pow(q, 2 * L1 + 2 * L2 - 2 * s))
        eig.append(ev)
    D = np.diag(np.array(eig, dtype=np.complex128))
    return _r_infinity(L1, L2, q, w) @ B @ D @ np.linalg.inv(B)


def perm_matrix(ell):
    """Permutation map P: V1 x V2 -> V2 x V1 on the pair block ell.

    Row basis is indexed by (k2', k1') of V2 x V1.
    """
    basis = combin.index_vectors(2, ell)
    d = len(basis)
    idx = {v: i for i, v in enumerate(basis)}
    P = np.zeros((d, d), dtype=np.complex128)
    for j, (k1, k2) in enumerate(basis):
        P[idx[(k2, k1)], j] = 1.0
    return P


# ---------------------------------------------------------------------------
# qKZ operators


def embed_pair_op(basis, i, j, block_fn):
    """Operator on the span of `basis` (degree vectors of the tensor product)
    acting on the (i, j) pair, in module order V_i, V_j, and trivially
    elsewhere.  block_fn(ks) -> (block, pair_basis): the pair block met by
    the column ks, over the pair degree vectors of weight ks[i] + ks[j]."""
    idx = {v: r for r, v in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for col, ks in enumerate(basis):
        blk, pair_basis = block_fn(ks)
        src = pair_basis.index((ks[i], ks[j]))
        for a, (ki, kj) in enumerate(pair_basis):
            c = blk[a, src]
            if c != 0:
                out = list(ks)
                out[i], out[j] = ki, kj
                M[idx[tuple(out)], col] += c
    return M


def _trig_embedding(basis, i, j, Lams, arg, q, block):
    """R_{V_i V_j}(arg) on the (i, j) pair; `block` is a trig_R_memo."""

    def block_fn(ks):
        w = ks[i] + ks[j]
        return block(Lams[i], Lams[j], arg, q, w), combin.index_vectors(2, w)

    return embed_pair_op(basis, i, j, block_fn)


def qkz_K(m, Lams, q, z, p, Ks, ell, block):
    """qKZ operator K_m(z) on the weight-ell block of V_1 x ... x V_n.

    K_m = R_{m,m-1}(p z_m/z_{m-1}) .. R_{m,1}(p z_m/z_1) Ks^(Lam_m - H_m)
          R_{m,n}(z_m/z_n) .. R_{m,m+1}(z_m/z_{m+1});
    the rightmost factor acts first.  `block` is a trig_R_memo.
    """
    n = len(Lams)
    basis = combin.index_vectors(n, ell)
    M = np.eye(len(basis), dtype=np.complex128)
    for j in range(m + 1, n):
        M = _trig_embedding(basis, m, j, Lams, z[m] / z[j], q, block) @ M
    ks_diag = np.array([q_pow(Ks, ks[m]) for ks in basis], dtype=np.complex128)
    M = np.diag(ks_diag) @ M
    for j in range(0, m):
        M = _trig_embedding(basis, m, j, Lams, p * z[m] / z[j], q, block) @ M
    return M


def ybe_residual_trig(L1, L2, L3, x, y, q, max_weight):
    """Relative residual of R12(x/y) R13(x) R23(y) = R23(y) R13(x) R12(x/y)."""
    Lams = (L1, L2, L3)
    block = trig_R_memo()
    worst = 0.0
    for ell in range(max_weight + 1):
        basis = combin.index_vectors(3, ell)
        R12, R13, R23 = (
            _trig_embedding(basis, i, j, Lams, arg, q, block)
            for i, j, arg in ((0, 1, x / y), (0, 2, x), (1, 2, y))
        )
        lhs = R12 @ R13 @ R23
        rhs = R23 @ R13 @ R12
        scale = max(np.linalg.norm(lhs), 1e-300)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# elliptic evaluation modules


def ell_T(ij, u, lam, Lam, x, eta, p, depth):
    """Matrix of T_ij(u, lambda) on the evaluation Verma basis v[0..depth]."""
    th = lambda v: theta(v, p)
    xiL = cmath.exp(Lam * cmath.log(eta))  # eta^Lam
    d = depth + 1
    M = np.zeros((d, d), dtype=np.complex128)
    den0 = th(xiL * u / x) * th(lam)
    for k in range(d):
        if ij == (1, 1):
            M[k, k] = th(xiL * eta**-k * u / x) * th(eta**-k * lam) / den0 * eta**k
        elif ij == (1, 2):
            if k + 1 <= depth:
                M[k + 1, k] = th(xiL * eta ** (-k - 1) * lam * u / x) * th(eta) / den0
        elif ij == (2, 1):
            if k >= 1:
                M[k - 1, k] = (
                    u
                    * th(xiL * eta ** (1 - k) * lam * x / u)
                    * th(xiL**2 * eta ** (1 - k))
                    * th(eta**k)
                    / (x * den0 * th(eta))
                    * eta ** (k - 1)
                    / xiL
                )
        elif ij == (2, 2):
            M[k, k] = th(eta**k / xiL * u / x) * th(xiL**2 * eta**-k * lam) / den0
        else:
            raise ValueError("ij must be a pair in {1,2}^2")
    return M


def ell_coproduct_action(ij, u, lam, mods, eta, p, depth):
    """Matrix of Delta^ell T_ij on (V^L1(x1) x V^L2(x2)) truncated at F-depth.

    Basis: [(k1, k2) for k1 <= depth, k2 <= depth], lexicographic; the
    lambda argument of the second-factor operator is shifted by eta^(2 H x 1)
    evaluated after the first-factor operator acted.
    """
    (L1, x1), (L2, x2) = mods
    basis = [(k1, k2) for k1 in range(depth + 1) for k2 in range(depth + 1)]
    idx = {v: i for i, v in enumerate(basis)}
    d = len(basis)
    M = np.zeros((d, d), dtype=np.complex128)
    i, j = ij
    T1 = {k: ell_T((k, j), u, lam, L1, x1, eta, p, depth) for k in (1, 2)}
    # T2[k, k1'] = T_ik(u, eta^(2 H x 1) lam) with the first factor at k1',
    # built the first time a column needs it
    T2 = {}
    # (T_kj x 1) acts first, then (1 x T_ik(u, eta^(2 H x 1) lam))
    for col, (k1, k2) in enumerate(basis):
        for k in (1, 2):
            Tkj = T1[k]
            for k1p in range(depth + 1):
                c1 = Tkj[k1p, k1]
                if c1 == 0:
                    continue
                if (k, k1p) not in T2:
                    mu1 = L1 - k1p
                    lam2 = lam * cmath.exp(2 * mu1 * cmath.log(eta))
                    T2[k, k1p] = ell_T((i, k), u, lam2, L2, x2, eta, p, depth)
                Tik = T2[k, k1p]
                for k2p in range(depth + 1):
                    c2 = Tik[k2p, k2]
                    if c2 != 0:
                        M[idx[(k1p, k2p)], col] += c2 * c1
    return basis, M


def fundamental_R(x, lam, eta, p):
    """The 4x4 dynamical R-matrix on C^2 x C^2 (spin-1/2 weights +-1/2)."""
    th = lambda v: theta(v, p)

    def alpha(xx, ll):
        return eta * th(xx) * th(ll / eta) / (th(eta * xx) * th(ll))

    def beta(xx, ll):
        return th(eta) * th(xx * ll) / (th(eta * xx) * th(ll))

    M = np.zeros((4, 4), dtype=np.complex128)
    # basis e1 x e1, e1 x e2, e2 x e1, e2 x e2
    M[0, 0] = 1.0
    M[3, 3] = 1.0
    M[1, 1] = alpha(x, lam)
    M[2, 2] = alpha(x, 1.0 / lam)
    M[1, 2] = beta(x, lam)
    M[2, 1] = beta(x, 1.0 / lam)
    return M


def graded_basis(n, ell, depths=None):
    """Degree vectors summing to ell with per-factor caps, lexicographic."""
    vs = combin.index_vectors(n, ell)
    if depths is None:
        return vs
    return [v for v in vs if all(v[i] <= depths[i] for i in range(n))]


def dynamical_ybe_residual(
    R12_eval, R13_eval, R23_eval, x, y, lam, weights, eta, max_weight, depths=None
):
    """Residual of the dynamical Yang-Baxter equation on the truncated triple
    product.  R*_eval(arg, lam_eff, w) -> pair block matrix of weight w over
    the capped pair basis; weights = (L1, L2, L3) are highest weights."""
    L = weights
    worst = 0.0
    for ell in range(max_weight + 1):
        basis = graded_basis(3, ell, depths)

        def emb(ev, i, j, other, arg, shift_on_other):
            pd = None if depths is None else (depths[i], depths[j])

            def block_fn(ks):
                mu = L[other] - ks[other]
                lam_eff = lam * cmath.exp(2 * mu * cmath.log(eta)) if shift_on_other else lam
                w = ks[i] + ks[j]
                return ev(arg, lam_eff, w), graded_basis(2, w, pd)

            return embed_pair_op(basis, i, j, block_fn)

        lhs = (
            emb(R12_eval, 0, 1, 2, x / y, True)
            @ emb(R13_eval, 0, 2, 1, x, False)
            @ emb(R23_eval, 1, 2, 0, y, True)
        )
        rhs = (
            emb(R23_eval, 1, 2, 0, y, False)
            @ emb(R13_eval, 0, 2, 1, x, True)
            @ emb(R12_eval, 0, 1, 2, x / y, False)
        )
        scale = max(np.linalg.norm(lhs), 1e-300)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# the infinite-product degeneration on the weight-1 block


def rpr_matrix_params(L1, L2, q, kappa):
    """Coefficients (a, b, c, d, alpha, delta) of the linear matrix pencil
    A(u) = [[a - alpha u, b u], [c, d - delta u]] carrying the weight-1 block
    of kappa^(-H x 1) R_{V1 V2}(u), in the basis (v1 x F v2, F v1 x v2)."""
    kL1 = q_pow(kappa, -L1)
    a = -q_pow(q, L2 - L1) * kL1
    alpha = -q_pow(q, L1 - L2) * kL1
    b = (q_pow(q, -2 * L1) - q_pow(q, 2 * L1)) * kL1
    c = (q_pow(q, -2 * L2) - q_pow(q, 2 * L2)) * kL1 * kappa
    d = -q_pow(q, L1 - L2) * kL1 * kappa
    delta = -q_pow(q, L2 - L1) * kL1 * kappa
    return a, b, c, d, alpha, delta


def rpr_truncated_product(coeffs, u, p, S):
    """prod_{r=-S}^{S} A(p^r u) with the triangular regularizing prefactors
    and the u^-S p^(S(S+1)/2) normalization (factors ordered so r grows
    right to left)."""
    a, b, c, d, alpha, delta = coeffs

    def A(v):
        return np.array([[a - alpha * v, b * v], [c, d - delta * v]], dtype=np.complex128)

    M = np.eye(2, dtype=np.complex128)
    for r in range(-S, S + 1):
        M = A(p**r * u) @ M  # r grows right to left
    DL = np.array([[a, 0.0], [c, d]], dtype=np.complex128)
    DR = np.array([[-alpha, b], [0.0, -delta]], dtype=np.complex128)
    DLinvS = np.linalg.matrix_power(np.linalg.inv(DL), S)
    DRinvS = np.linalg.matrix_power(np.linalg.inv(DR), S)
    return DLinvS @ M @ DRinvS * u ** (-S) * p ** (S * (S + 1) / 2.0)


def rpr_middle_matrix(coeffs, u, p):
    """The central theta/Pochhammer 2x2 of the closed form (the unitriangular
    prefactors stripped); its diagonal-gauge class matches the weight-1 block
    of the dynamical elliptic R-matrix."""
    a, b, c, d, alpha, delta = coeffs
    # roots of det A(u) = (a - alpha u)(d - delta u) - b c u
    A2 = alpha * delta
    A1 = -(alpha * d + delta * a + b * c)
    A0 = a * d
    disc = cmath.sqrt(A1 * A1 - 4 * A2 * A0)
    lam = (-A1 + disc) / (2 * A2)
    mu = (-A1 - disc) / (2 * A2)
    qp = lambda v: qpoch(v, p)
    th = lambda v: theta(v, p)
    pp = qp(p)
    return np.array(
        [
            [
                a * th(alpha * u / a) * qp(p * lam * delta / a) * qp(p * mu * delta / a)
                / (qp(p * d / a) * qp(p * delta / alpha) * pp),
                b * u * th(a / (delta * u)) * qp(p * lam * alpha / a) * qp(p * mu * alpha / a)
                / (qp(p * d / a) * qp(alpha / delta) * pp),
            ],
            [
                c * th(alpha * u / d) * qp(p * lam * delta / d) * qp(p * mu * delta / d)
                / (qp(a / d) * qp(p * delta / alpha) * pp),
                d * th(delta * u / d) * qp(lam * alpha / d) * qp(mu * alpha / d)
                / (qp(a / d) * qp(alpha / delta) * pp),
            ],
        ],
        dtype=np.complex128,
    )


def cross_ratio(M):
    """Two-sided-diagonal gauge invariant of a 2x2 matrix."""
    return (M[0, 0] * M[1, 1]) / (M[0, 1] * M[1, 0])


def rpr_closed_form(coeffs, u, p):
    """Closed-form limit of the regularized product: UL M UR with the
    unitriangular prefactors around the middle matrix M."""
    a, b, c, d, alpha, delta = coeffs
    UL = np.array([[1.0, 0.0], [c / (a - d), 1.0]], dtype=np.complex128)
    UR = np.array([[1.0, b / (delta - alpha)], [0.0, 1.0]], dtype=np.complex128)
    return UL @ rpr_middle_matrix(coeffs, u, p) @ UR
