"""Tensor coordinates, transition matrices, hypergeometric qKZ solutions,
the dynamical elliptic R-matrix built from transitions, and asymptotic-zone
checks.

Everything here reduces to finite linear algebra: weight-function families
are expanded in one another by sampling at generic interpolation nodes, and
solution components are Jackson residue sums of the hypergeometric pairing
(valid at any z, unlike the straight-torus quadrature).
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from . import combin, integrate, repthy, weightfn
from .errors import ResonanceError
from .numkernel import ParameterSet

# Modulus band of the interpolation nodes.
_NODE_BAND = (0.9, 1.1)
# A sampled basis system is accepted below this condition number; an
# ill-conditioned one is redrawn once with the seed moved by 17.
_COND_CAP = 1e8
_RETRIES = 1
# Node seed of detM_numeric's fit.
_DETM_SEED = 3


def sample_nodes(seed, ell, count):
    """Deterministic generic t-points in C^ell on the modulus band _NODE_BAND."""
    rng = np.random.default_rng(seed)
    pts = np.empty((count, ell), dtype=np.complex128)
    for i in range(count):
        r = rng.uniform(_NODE_BAND[0], _NODE_BAND[1], size=ell)
        th = rng.uniform(0.0, 2.0 * math.pi, size=ell)
        pts[i] = r * np.exp(1j * th)
    return pts


def _sample(fields, t):
    """Every field at every point of t (a batch (..., ell) or a ProductGrid),
    stacked on a leading field axis: one call per field on all points."""
    return np.array([np.broadcast_to(f(t), t.shape[:-1]) for f in fields])


def expand_in_basis(targets, basis, ell, seed=1):
    """Coefficients X with target_j = sum_m X[m, j] basis_m, by sampling at
    dim generic points and solving the square system."""
    dim = len(basis)
    for attempt in range(_RETRIES + 1):
        nodes = sample_nodes(seed + 17 * attempt, ell, dim)
        B = _sample(basis, nodes).T
        if np.linalg.cond(B) < _COND_CAP:
            break
    else:
        raise ResonanceError("ill-conditioned basis sample system")
    return np.linalg.solve(B, _sample(targets, nodes).T)


def tensor_coordinates(flavor, tau, params):
    """Coefficient data of the tensor coordinates.

    flavor="B": list of (b_l, w^tau_l field); flavor="C": (c^tau_l, W^tau_l
    field), with the resonance of the c-coefficients surfaced as an error.
    """
    n, ell = params.n, params.ell
    tau = tuple(tau)
    out = []
    for l in combin.index_vectors(n, ell):
        if flavor == "B":
            coeff = weightfn.b_coeff(l, params)
            fld = (lambda t, l=l: weightfn.w_tau(l, t, params, tau, "subset"))
        elif flavor == "C":
            coeff = weightfn.c_coeff(combin.permute_index(l, tau), params.permuted(tau))
            fld = (lambda t, l=l: weightfn.W_tau(l, t, params, tau, "subset"))
        else:
            raise ValueError("flavor must be 'B' or 'C'")
        out.append((coeff, fld))
    return out


def transition_matrix(flavor, tau, tau_p, params, seed=1):
    """Matrix of B_{tau,tau'} (or C_{tau,tau'}) on monomial coordinates:
    image of the tau'-basis vector l has m-component [M]_{m,l}."""
    coords = tensor_coordinates(flavor, tau, params)
    coords_p = tensor_coordinates(flavor, tau_p, params)
    basis = [f for _, f in coords]
    targets = [f for _, f in coords_p]
    X = expand_in_basis(targets, basis, params.ell, seed=seed)
    cm = np.array([c for c, _ in coords])
    cp = np.array([c for c, _ in coords_p])
    return X * cp[None, :] / cm[:, None]


def detM_numeric(params, flavor="trig"):
    """Determinant of the basis-change matrix from the weight family to the
    auxiliary polynomial (g) or theta (G) family, assembled by sampling."""
    n, ell = params.n, params.ell
    idx = combin.index_vectors(n, ell)
    if flavor == "trig":
        basis = [(lambda t, l=l: weightfn.basis_aux("g", l, t, params)) for l in idx]
        targets = [(lambda t, l=l: weightfn.w_trig(l, t, params, "subset")) for l in idx]
    else:
        basis = [(lambda t, l=l: weightfn.basis_aux("G", l, t, params)) for l in idx]
        targets = [(lambda t, l=l: weightfn.W_ell(l, t, params, "subset")) for l in idx]
    X = expand_in_basis(targets, basis, ell, seed=_DETM_SEED)
    # X[m, l] holds the g_m coefficient of w_l; det is order-insensitive
    return np.linalg.det(X.T)


# ---------------------------------------------------------------------------
# the dynamical elliptic R-matrix from transition matrices


def ell_R_block(L1, L2, x, lam, w, p, eta, seed=5, z1=None):
    """Weight-w block of the dynamical elliptic R-matrix R^ell_{V^L1 V^L2}(x,
    lam), from the elliptic transition matrix at total weight w; read-only.

    The scaling parameter is resolved per block through the weight
    dictionary kappa(w) = lam xi_1 xi_2 eta^(-w), the gauge in which the
    delivered matrix is the normalized intertwiner of the evaluation-module
    tensor products (pinned by the shift relations, which fix the one global
    eta-rescaling of lam that the dynamical Yang-Baxter equation and the
    inversion relation cannot see).
    """
    if w == 0:
        block = np.ones((1, 1), dtype=np.complex128)
    else:
        le = cmath.log(eta)
        xi1 = cmath.exp(L1 * le)
        xi2 = cmath.exp(L2 * le)
        z2 = cmath.exp(0.31j) if z1 is None else z1 / x
        kap = lam * xi1 * xi2 * eta ** (-w)
        prm = ParameterSet(p=p, eta=eta, kappa=kap, xi=(xi1, xi2), z=(x * z2, z2), n=2, ell=w)
        # monomial coordinates are degrees on the modules, so the adjacent
        # transition IS the R-matrix block (the permutation is the
        # tautological slot relabeling)
        block = transition_matrix("C", (1, 0), (0, 1), prm, seed=seed)
    block.flags.writeable = False
    return block


def lambda_from_kappa(kappa, w, xi1, xi2, eta):
    """Dynamical argument of the weight-w block reached from scaling kappa."""
    return kappa * eta**w / (xi1 * xi2)


def ell_R_evaluator(L1, L2, p, eta):
    """Callable (x, lam, w) -> weight-w block of R^ell_{V^L1 V^L2}(x, lam),
    memoized per evaluator: each (x, lam, w) block is built once."""
    store = {}

    def ev(x, lam, w):
        key = (complex(x), complex(lam), int(w))
        if key not in store:
            store[key] = ell_R_block(L1, L2, x, lam, w, p, eta)
        return store[key]

    return ev


# ---------------------------------------------------------------------------
# hypergeometric solutions of the qKZ equation


def _global_element(l_index, tau, params):
    """The global element Y^tau_l W^tau_l: the xi-permuted parameter set, the
    field W_(tau l) on it, and Y^tau_l at the inverse-permuted z^(tau^-1)."""
    pp = params.with_xi_permuted(tau)
    lt = combin.permute_index(l_index, tau)
    Y, _ = weightfn.adjusting_factor(lt, pp)
    yval = Y(tuple(params.z[i] for i in combin.perm_inverse(tau)))
    return pp, (lambda t: weightfn.W_ell(lt, t, pp, "subset")), yval


def psi_solution(l_index, tau, params, method="jackson", spec=integrate.QuadratureSpec()):
    """Components of the solution section Psi^tau built from Y_l W^tau_l.

    Returns the coordinate vector over index_vectors(n, ell): component m is
    b_m Y^tau_l(z^(tau^-1)) I(W_(tau l), w_(tau m)) evaluated with the
    xi-permuted parameter set at the unpermuted z.  method="jackson" sums
    the x-side Jackson series; method="quadrature" integrates on the torus
    with `spec`.
    """
    tau = tuple(tau)
    pp, Wf, yval = _global_element(l_index, tau, params)
    idx = combin.index_vectors(params.n, params.ell)
    ws = [(lambda t, mt=combin.permute_index(mv, tau): weightfn.w_trig(mt, t, pp, "subset")) for mv in idx]
    if method == "jackson":
        vals, _ = integrate.jackson_sum(Wf, lambda t: _sample(ws, t), pp, side="x")
    elif method == "quadrature":
        (vals,) = integrate.hyper_I_many([Wf], ws, pp, spec).tolist()
    else:
        raise ValueError("method must be 'jackson' or 'quadrature'")
    return np.asarray([weightfn.b_coeff(mv, params) * yval * v for mv, v in zip(idx, vals)], dtype=np.complex128)


def qkz_residual(l_index, params):
    """Relative residual of Psi(.., p z_m, ..) = K_m(z) Psi(z) with Ks = kappa,
    for the identity ordering; returns the worst residual over m."""
    n, ell = params.n, params.ell
    q = params.q
    Lams = params.Lambda
    tau = tuple(range(n))
    psi0 = psi_solution(l_index, tau, params)
    block = repthy.trig_R_memo()
    worst = 0.0
    for m in range(n):
        shifted = params.shift_z(m)
        psi_m = psi_solution(l_index, tau, shifted)
        K = repthy.qkz_K(m, Lams, q, params.z, params.p, params.kappa, ell, block)
        resid = np.linalg.norm(psi_m - K @ psi0) / max(np.linalg.norm(psi_m), 1e-300)
        worst = max(worst, resid)
    return worst


def singular_residual(l_index, params):
    """|E Psi| / |Psi| at kappa = eta^(1-ell) prod xi (singular-subspace values)."""
    n, ell = params.n, params.ell
    psi0 = psi_solution(l_index, tuple(range(n)), params)
    E = repthy.op_E(params.Lambda, ell, params.q)
    return np.linalg.norm(E @ psi0) / max(np.linalg.norm(psi0), 1e-300)


def mono_functoriality_residual(l_index, params):
    """Residual of the solution functoriality at the adjacent swap (n = 2):
    Psi^swap(z) = R_{V1 V2}(z_2/z_1) Psi^id_W(z_swap), both sides built from
    the same global element Y W^swap_l."""
    if params.n != 2:
        raise ValueError("adjacent-swap functoriality test is n = 2 only")
    swap = (1, 0)
    lhs = psi_solution(l_index, swap, params)
    _, Wf, yval = _global_element(l_index, swap, params)
    pz = params.with_z((params.z[1], params.z[0]))
    idx = combin.index_vectors(2, params.ell)
    ws = [(lambda t, mv=mv: weightfn.w_trig(mv, t, pz, "subset")) for mv in idx]
    vals, _ = integrate.jackson_sum(Wf, lambda t: _sample(ws, t), pz, side="x")
    rhs = np.array([weightfn.b_coeff(mv, params) for mv in idx]) * yval * vals
    L = params.Lambda
    R = repthy.trig_R_block(L[0], L[1], params.z[1] / params.z[0], params.q, params.ell)
    return np.linalg.norm(lhs - R @ rhs) / max(np.linalg.norm(lhs), 1e-300)


# ---------------------------------------------------------------------------
# asymptotic zone checks


def asymptotic_check(l_index, params_at_ratio, ratios=(1e-1, 1e-2, 1e-3)):
    """Leading-coefficient and dominance-pattern report in the asymptotic zone.

    params_at_ratio(r) must return an admissible ParameterSet whose z-ratios
    realize |z_1 / z_2| = r (n = 2 zones).  Reports, per ratio, the
    relative distance of the leading component of Psi / Y_l from Xi_l and the
    magnitudes of the subleading components split by the dominance pattern.
    """
    report = []
    l_index = tuple(l_index)
    for r in ratios:
        prm = params_at_ratio(r)
        n, ell = prm.n, prm.ell
        tt = tuple(range(n))
        _, _, yval = _global_element(l_index, tt, prm)
        scaled = psi_solution(l_index, tt, prm) / yval
        idx = combin.index_vectors(n, ell)
        iL = idx.index(l_index)
        Xi = weightfn.xi_asym_coeff(l_index, prm)
        lead_rel = abs(scaled[iL] - Xi) / abs(Xi)
        sub = {}
        for j, mv in enumerate(idx):
            if mv == l_index:
                continue
            dominates = combin.dominance_le(l_index, mv)
            sub[mv] = (abs(scaled[j]) / abs(Xi), "O(1)-allowed" if dominates else "vanishing")
        report.append({"ratio": r, "leading_rel": lead_rel, "Xi": Xi, "subleading": sub})
    return report


def as_factorization_ratio(l_index, params):
    """I(W_l, w_l) over its asymptotic block factorization
    (ell!/prod l_m!) prod_m prod_{j<m} xi_j^(l_m) prod_m I^(m); the ratio
    tends to 1 as the zone limit is approached."""
    n = params.n
    l = tuple(l_index)
    Wf = lambda t: weightfn.W_ell(l, t, params, "subset")
    wfn = lambda t: weightfn.w_trig(l, t, params, "subset")
    total, _ = integrate.jackson_sum(Wf, wfn, params, side="x")
    pref = math.factorial(params.ell)
    for lm in l:
        pref /= math.factorial(lm)
    pref = complex(pref)
    for m in range(n):
        for j in range(m):
            pref *= params.xi[j] ** l[m]
    prod = 1.0 + 0j
    unit = replace(params, z=tuple(zm / abs(zm) for zm in params.z))
    for m in range(n):
        lm = l[m]
        if lm == 0:
            continue
        sub = weightfn.block_params(unit, m, lm, weightfn.kappa_lm(l, params, m))
        Wm = lambda t: weightfn.W_ell((lm,), t, sub)
        wm = lambda t: weightfn.w_trig((lm,), t, sub)
        prod *= complex(integrate.hyper_I_many([Wm], [wm], sub, integrate.QuadratureSpec(128))[0, 0])
    return total / (pref * prod)
