"""Trigonometric and elliptic weight functions and their companions.

Weight functions come in a symmetrized form (sum over S_ell with the twisted
action) and a subset form (sum over block assignments); both are implemented
and cross-checked in the tests.  The module also carries the special residue
points, the normalization constants b_l, c_l, N_l, Xi_l, adjusting factors,
the auxiliary polynomial/theta bases of the two function spaces, star
products, and the discrete shift operators of the local system.

Evaluation convention: a field is a callable f(t) vectorized over the leading
axes of t, with t.shape == (..., ell).  t may be a grid.ProductGrid, whose
t[..., a] is broadcast-shaped and whose t[..., idx] is the grid of those
rows; the result must broadcast to t.shape[:-1].  Fields read points through
grid.as_batch or grid.as_points; only discrete_shift densifies a grid.
"""

import cmath
import functools
import math
from dataclasses import replace

import numpy as np

from . import combin
from .errors import ResonanceError
from .grid import as_batch, as_points
from .numkernel import DECL_CACHE, Factor, Integrand, _nearest_p_power, qpoch, theta, theta_prime_one, theta_ratio

_TINY = 1e-240


def _unbatch(val, single):
    return complex(val[0]) if single else val


def kappa_m(params, m):
    """kappa_m = kappa prod_{l<m} xi_l prod_{l>m} xi_l^{-1} (0-based m)."""
    out = params.kappa
    for l in range(params.n):
        if l < m:
            out *= params.xi[l]
        elif l > m:
            out /= params.xi[l]
    return out


def kappa_lm(l, params, m):
    """kappa_{l,m} = kappa prod_{i<m} eta^{-l_i} xi_i prod_{i>m} eta^{l_i} xi_i^{-1}."""
    out = params.kappa
    for i in range(params.n):
        if i < m:
            out *= params.xi[i] * params.eta ** (-l[i])
        elif i > m:
            out *= params.eta ** l[i] / params.xi[i]
    return out


def block_params(params, m, lm, kappa=None):
    """Block m's n = 1 parameter set in lm variables, with kappa (default params.kappa)."""
    kappa = params.kappa if kappa is None else kappa
    return replace(params, n=1, ell=lm, xi=(params.xi[m],), z=(params.z[m],), kappa=kappa)


# ---------------------------------------------------------------------------
# trigonometric weight functions


def _w_core(assign, ts, params):
    """prod over positions a: t_a/(t_a - xi_m z_m) prod_{l<m} (xi_l t_a - z_l)/(t_a - xi_l z_l)."""
    xi, z = params.xi, params.z
    out = np.ones(ts.shape[:-1], dtype=np.complex128)
    for a, m in enumerate(assign):
        ta = ts[..., a]
        out *= ta / (ta - xi[m] * z[m])
        for l in range(m):
            out *= (xi[l] * ta - z[l]) / (ta - xi[l] * z[l])
    return out


def w_trig(l, t, params, form="symmetrized"):
    """Trigonometric weight function w_l(t, z)."""
    eta = params.eta
    if form == "symmetrized":
        pref = 1.0 + 0j
        for lk in l:
            for s in range(1, lk + 1):
                pref *= (1 - eta) / (1 - eta**s)
        base = combin.canonical_blocks(l)
        ts, single = as_batch(t)
        return _unbatch(pref * combin.symmetrize(lambda tt: _w_core(base, tt, params), sum(l), eta)(ts), single)
    if form == "subset":
        return subset_form("linear", tuple(l), params)(t)
    raise ValueError(f"unknown form {form!r}")


def w_tau(l, t, params, tau, form="symmetrized"):
    """w^tau_l(t, z; xi) = w_{tau l}(t, z_tau; xi_tau)."""
    return w_trig(combin.permute_index(l, tau), t, params.permuted(tau), form)


# ---------------------------------------------------------------------------
# elliptic weight functions


def _W_core_sym(l, ts, params):
    """Unsymmetrized product of the symmetrized form, position-graded factor
    theta(eta^{2a-ell-1} kappa_m^-1 t_a / z_m) included."""
    p, eta = params.p, params.eta
    ell = sum(l)
    xi, z = params.xi, params.z
    out = np.ones(ts.shape[:-1], dtype=np.complex128)
    assign = combin.canonical_blocks(l)
    for a, m in enumerate(assign):
        ta = ts[..., a]
        km = kappa_m(params, m)
        out *= theta_ratio(eta ** (2 * (a + 1) - ell - 1) / km * ta / z[m], ta / (xi[m] * z[m]), p)
        for lo in range(m):
            out *= theta_ratio(xi[lo] * ta / z[lo], ta / (xi[lo] * z[lo]), p)
    return out


def W_ell(l, t, params, form="symmetrized"):
    """Elliptic weight function W_l(t, z)."""
    p, eta = params.p, params.eta
    if form == "symmetrized":
        pref = 1.0 + 0j
        th_eta = theta(eta, p)
        for lk in l:
            for s in range(1, lk + 1):
                pref *= th_eta / theta(eta**s, p)
        ts, single = as_batch(t)
        return _unbatch(pref * combin.symmetrize(lambda tt: _W_core_sym(l, tt, params), sum(l), eta, p)(ts), single)
    if form == "subset":
        return subset_form("theta", tuple(l), params)(t)
    raise ValueError(f"unknown form {form!r}")


@functools.lru_cache(maxsize=DECL_CACHE)
def subset_form(kind, l, params):
    """Declared subset form of W_l (kind "theta") or w_l (kind "linear"), the
    front prod_{a<b} kind(t_a/t_b) / kind(eta t_a/t_b) in each assignment's
    term.  Linear: (xi t - z) / (t - xi z) = xi^-1 (1 - xi t/z) / (1 - t/(xi z))."""
    xi, z, eta, ell = params.xi, params.z, params.eta, sum(l)
    terms = []
    for assign in combin.gamma_partitions(l):
        term = [Factor(kind, 1, eta, a, b) for a in range(ell) for b in range(a + 1, ell)]
        term += [Factor(kind, eta, 1, a, b) for a in range(ell) for b in range(ell) if assign[a] < assign[b]]
        for a, m in enumerate(assign):
            if kind == "theta":
                term.append(Factor(kind, 1 / (kappa_lm(l, params, m) * z[m]), 1 / (xi[m] * z[m]), a))
            else:  # t_a / (t_a - xi_m z_m)
                term.append(Factor(kind, den=xi[m] * z[m], b=a))
            term += [Factor(kind, xi[lo] / z[lo], 1 / (xi[lo] * z[lo]), a) for lo in range(m)]
        terms.append(term)
    const = 1 if kind == "theta" else math.prod(1 / xi[lo] for m in combin.canonical_blocks(l) for lo in range(m))
    return Integrand(params.p, terms, const)


def W_tau(l, t, params, tau, form="symmetrized"):
    """W^tau_l(t, z; xi) = W_{tau l}(t, z_tau; xi_tau)."""
    return W_ell(combin.permute_index(l, tau), t, params.permuted(tau), form)


# ---------------------------------------------------------------------------
# special points


def special_point(l, params, kind="x", shift=None):
    """Residue points x<l / y>l, optionally p-shifted within each xi-block.

    Block m contributes eta^(j - l_m) xi_m z_m (kind x) or
    eta^(l_m - j) xi_m^-1 z_m (kind y) for j = 1..l_m; a shift vector s
    multiplies coordinate i by p^(s_i + ... + s_(block end)).
    """
    ell = sum(l)
    if shift is None:
        shift = (0,) * ell
    if len(shift) != ell:
        raise ValueError("shift must have length ell")
    coords = []
    pos = 0
    for m, lm in enumerate(l):
        block = range(pos, pos + lm)
        for j, i in enumerate(block, start=1):
            cum = sum(shift[i : pos + lm])
            if kind == "x":
                base = params.eta ** (j - lm) * params.xi[m] * params.z[m]
            elif kind == "y":
                base = params.eta ** (lm - j) / params.xi[m] * params.z[m]
            else:
                raise ValueError("kind must be 'x' or 'y'")
            coords.append(params.p**cum * base)
        pos += lm
    return np.asarray(coords, dtype=np.complex128)


# ---------------------------------------------------------------------------
# normalization constants


def b_coeff(l, params):
    """b_l = prod_m q^(l_m (l_m - 1)/2 + l_m Lambda_m)."""
    out = 1.0 + 0j
    for m, lm in enumerate(l):
        out *= params.q_pow(lm * (lm - 1) / 2.0) * params.q_pow(lm * params.Lambda[m])
    return out


# Multiplicative distance from the theta zero lattice p^Z below which a
# tensor-coordinate denominator is resonant (as is u = 0).
_RESONANCE_MARGIN = 1e-9


def c_coeff(l, params):
    """Tensor-coordinate coefficient c_l(xi_1..xi_n)."""
    p, eta, ka = params.p, params.eta, params.kappa
    xi = params.xi
    n, ell = params.n, params.ell

    def th(u):
        if u == 0 or _nearest_p_power(1.0, complex(u), complex(p))[1] < _RESONANCE_MARGIN:
            raise ResonanceError("theta zero in a tensor-coordinate denominator")
        return theta(u, p)

    out = 1.0 + 0j
    for m, lm in enumerate(l):
        for s in range(1, lm + 1):
            out *= th(eta**s) * th(eta ** (1 - s) * xi[m] ** 2) / th(eta)
    for lo in range(n):
        for m in range(lo + 1, n):
            out *= eta ** (-l[lo] * l[m]) * xi[m] ** (2 * l[lo])
    den = 1.0 + 0j
    for s in range(1, l[0] + 1):
        den *= th(eta ** (s - ell) / ka * params.xi_prod)
    for s in range(1, l[-1] + 1):
        den *= th(eta ** (ell - s) / (ka * params.xi_prod))
    for m in range(n - 1):
        pref = params.kappa ** -1
        for i in range(n):
            if i <= m:
                pref *= eta ** l[i] / xi[i]
            else:
                pref *= eta ** (-l[i]) * xi[i]
        for s in range(-l[m], l[m + 1] + 1):
            if s == 0:
                continue
            den *= th(eta**s * pref)
    if abs(den) < _RESONANCE_MARGIN * _TINY or not np.isfinite(abs(den)):
        raise ResonanceError("c_l denominator vanished")
    return out / den


def N_coeff(l, params):
    """Shapovalov diagonal N_l(xi_1..xi_n)."""
    p, eta, ka = params.p, params.eta, params.kappa
    xi, n = params.xi, params.n
    th = lambda u: theta(u, p)
    tp1 = theta_prime_one(p)
    out = 1.0 + 0j
    for m, lm in enumerate(l):
        for s in range(1, lm + 1):
            arg1 = eta**s / ka
            for i in range(n):
                if i < m:
                    arg1 *= eta ** l[i] / xi[i]
                else:
                    arg1 *= eta ** (-l[i]) * xi[i]
            arg2 = eta**s * ka
            for i in range(n):
                if i <= m:
                    arg2 *= eta ** (-l[i]) * xi[i]
                else:
                    arg2 *= eta ** l[i] / xi[i]
            out *= th(eta) / (tp1 * th(eta**s) * th(eta ** (1 - s) * xi[m] ** 2))
            out *= th(arg1) * th(arg2)
    return out


def xi_asym_coeff(l, params):
    """Leading asymptotic coefficient Xi_l of the solution basis."""
    ell = params.ell
    p, eta = params.p, params.eta
    xi = params.xi
    out = (2j * math.pi) ** ell * math.factorial(ell)
    e_inv = qpoch(1.0 / eta, p)
    pp = qpoch(p, p)
    for m, lm in enumerate(l):
        out *= params.q_pow(lm * (1 - lm) / 2.0) * params.q_pow(lm * params.Lambda[m])
        for lo in range(m):
            out *= xi[lo] ** lm
        klm = kappa_lm(l, params, m)
        for s in range(lm):
            out *= e_inv * qpoch(eta**-s / klm * xi[m], p)
            out *= qpoch(p * eta**-s * klm * xi[m], p)
            out /= qpoch(eta ** (-s - 1), p) * qpoch(eta**-s * xi[m] ** 2, p) * pp
    return out


def alpha_multipliers(l, params):
    """Quasi-periodicity multipliers a_{l,m} of the adjusting factors."""
    n = params.n
    eta, xi = params.eta, params.xi
    out = []
    for m in range(n):
        a = params.kappa ** l[m]
        for lo in range(n):
            if lo < m:
                a *= eta ** (-l[lo] * l[m]) * xi[lo] ** l[m] * xi[m] ** l[lo]
            elif lo > m:
                a *= eta ** (l[lo] * l[m]) * xi[lo] ** (-l[m]) * xi[m] ** (-l[lo])
        out.append(a)
    return tuple(out)


def adjusting_factor(l, params):
    """Adjusting factor Y_l(z) = prod_m theta(c_m z_m / a_{l,m}) / theta(c_m z_m)
    with anchors c_m = 1 + 0.1 (m + 1).

    Returns (Y, alphas) with Y a callable of the z-vector; Y(.., p z_m, ..)
    equals a_{l,m} Y(z).
    """
    n = params.n
    anchors = tuple(1.0 + 0.1 * (m + 1) for m in range(n))
    alphas = alpha_multipliers(l, params)
    p = params.p

    def Y(z):
        out = 1.0 + 0j
        for m in range(n):
            den = theta(anchors[m] * z[m], p)
            if abs(den) < 1e-200:
                raise ResonanceError("adjusting-factor anchor hits a theta zero")
            out *= theta(anchors[m] * z[m] / alphas[m], p) / den
        return out

    return Y, alphas


# ---------------------------------------------------------------------------
# auxiliary bases (polynomial and theta)


def aux_roots(params):
    """Principal roots alpha^n = p and zeta^n = (-1)^(n-1) / (kappa prod z)."""
    n = params.n
    A = params.kappa
    for zm in params.z:
        A *= zm
    alpha = cmath.exp(cmath.log(params.p) / n)
    zeta = cmath.exp(cmath.log((-1.0) ** (n - 1) / A) / n)
    return alpha, zeta


def basis_aux(kind, l, t, params):
    """Auxiliary families: Q_l, P_l, g_l (trig) and Theta_l, G_l, J_l (elliptic)."""
    ell = sum(l)
    ts, single = as_batch(t)
    n = params.n
    eta, p = params.eta, params.p
    xi, z = params.xi, params.z

    if kind == "Q":
        acc = np.zeros(ts.shape[:-1], dtype=np.complex128)
        for assign in combin.gamma_partitions(l):
            term = np.ones(ts.shape[:-1], dtype=np.complex128)
            for a, m in enumerate(assign):
                term *= ts[..., a] ** m
            acc += term
        return _unbatch(acc, single)

    if kind == "g":
        qv = basis_aux("Q", l, ts, params)
        out = np.asarray(qv, dtype=np.complex128).copy()
        for a in range(ell):
            out *= ts[..., a]
            for m in range(n):
                out /= ts[..., a] - xi[m] * z[m]
        for a in range(ell):
            for b in range(a + 1, ell):
                out *= (ts[..., a] - ts[..., b]) / (eta * ts[..., a] - ts[..., b])
        return _unbatch(out, single)

    if kind == "P":
        xs = [xi[m] * z[m] for m in range(n)]
        ys = [z[m] / xi[m] for m in range(n)]
        acc = np.zeros(ts.shape[:-1], dtype=np.complex128)
        for assign in combin.gamma_partitions(l):
            term = np.ones(ts.shape[:-1], dtype=np.complex128)
            for a, m in enumerate(assign):
                for lo in range(m + 1, n):
                    term *= ts[..., a] - xs[lo]
                for lo in range(m):
                    term *= ts[..., a] - ys[lo]
            for a in range(ell):
                for b in range(ell):
                    if a != b and assign[a] < assign[b]:
                        term *= (eta * ts[..., a] - ts[..., b]) / (ts[..., a] - ts[..., b])
            acc += term
        return _unbatch(acc, single)

    if kind == "Theta":
        alpha, zeta = aux_roots(params)
        omega = cmath.exp(2j * math.pi / n)

        def vth(lbl, u):
            out = u ** (lbl - 1)
            for m in range(1, n + 1):
                out = out * theta(zeta * alpha ** (lbl - 1) * omega**m * u, p)
            return out

        # gamma_partitions already runs over coset representatives, which
        # carries the 1/prod(l_m!) normalization of the full S_ell sum
        acc = np.zeros(ts.shape[:-1], dtype=np.complex128)
        for assign in combin.gamma_partitions(l):
            term = np.ones(ts.shape[:-1], dtype=np.complex128)
            for a, m in enumerate(assign):
                term = term * vth(m + 1, ts[..., a])
            acc += term
        return _unbatch(acc, single)

    if kind == "G":
        tv = basis_aux("Theta", l, ts, params)
        out = np.asarray(tv, dtype=np.complex128).copy()
        for a in range(ell):
            for m in range(n):
                out /= theta(ts[..., a] / (xi[m] * z[m]), p)
        for a in range(ell):
            for b in range(a + 1, ell):
                r = ts[..., a] / ts[..., b]
                out *= theta(r, p) / theta(eta * r, p)
        return _unbatch(out, single)

    if kind == "J":
        # W_l with all denominator thetas cancelled against the J-prefactor,
        # so the family stays finite at the special points
        acc = np.zeros(ts.shape[:-1], dtype=np.complex128)
        for assign in combin.gamma_partitions(l):
            term = np.ones(ts.shape[:-1], dtype=np.complex128)
            for a, m in enumerate(assign):
                ta = ts[..., a]
                term *= theta(ta / (kappa_lm(l, params, m) * z[m]), p)
                for lo in range(m):
                    term *= theta(xi[lo] * ta / z[lo], p)
                for lo in range(m + 1, n):
                    term *= theta(ta / (xi[lo] * z[lo]), p)
            for a in range(ell):
                for b in range(ell):
                    if a != b and assign[a] < assign[b]:
                        r = ts[..., a] / ts[..., b]
                        term *= theta(eta * r, p) / theta(r, p)
            acc += term
        return _unbatch(acc, single)

    raise ValueError(f"unknown kind {kind!r}")


def P_at_x_closed(l, params):
    """Closed product for P_l(x<l) from the triangular-evaluation lemma."""
    n = params.n
    eta = params.eta
    xs = [params.xi[m] * params.z[m] for m in range(n)]
    ys = [params.z[m] / params.xi[m] for m in range(n)]
    out = 1.0 + 0j
    for m, lm in enumerate(l):
        for s in range(lm):
            for lo in range(m):
                out *= eta**-s * xs[m] - ys[lo]
            for lo in range(m + 1, n):
                out *= eta ** (l[lo] - s) * xs[m] - xs[lo]
    return out


def J_at_x_closed(l, params):
    """Closed product for J_l(x<l)."""
    n, eta, p = params.n, params.eta, params.p
    xs = [params.xi[m] * params.z[m] for m in range(n)]
    ys = [params.z[m] / params.xi[m] for m in range(n)]
    A = params.kappa
    for zm in params.z:
        A *= zm
    th = lambda u: theta(u, p)
    out = 1.0 + 0j
    for m, lm in enumerate(l):
        for s in range(lm):
            arg = eta ** (s + 1) / A
            for lo in range(n):
                if lo < m:
                    arg *= eta ** l[lo] * ys[lo]
                else:
                    arg *= eta ** (-l[lo]) * xs[lo]
            out *= th(arg)
            for lo in range(m):
                out *= th(eta**-s * xs[m] / ys[lo])
            for lo in range(m + 1, n):
                out *= th(eta ** (l[lo] - s) * xs[m] / xs[lo])
    return out


# ---------------------------------------------------------------------------
# star products


def star_product(f, g, jvars, lvars, split_k, params, flavor="trig"):
    """Symmetrized product f * g of fields in jvars and lvars variables.

    split_k is the number of leading (z, xi) pairs attached to f; the bridge
    factor couples those parameters to g's variables.  Rational bridge for
    flavor="trig", theta bridge for flavor="elliptic".
    """
    eta, p = params.eta, params.p
    xi, z = params.xi, params.z

    def core(t):
        out = np.asarray(f(t[..., :jvars]), dtype=np.complex128) * np.asarray(
            g(t[..., jvars:]), dtype=np.complex128
        )
        for i in range(split_k):
            for a in range(lvars):
                ta = t[..., jvars + a]
                if flavor == "trig":
                    out = out * (xi[i] * ta - z[i]) / (ta - xi[i] * z[i])
                else:
                    out = out * theta_ratio(xi[i] * ta / z[i], ta / (xi[i] * z[i]), p)
        return out

    sym = combin.symmetrize(core, jvars + lvars, eta, None if flavor == "trig" else p)

    def h(t):
        ts, single = as_batch(t)
        return _unbatch(sym(ts) / (math.factorial(jvars) * math.factorial(lvars)), single)

    return h


# ---------------------------------------------------------------------------
# discrete shift operators of the local system


def phi_factor(a, t, z, params):
    """Connection coefficient phi_a(t, z); a in 0..ell-1 shifts t, a = ell+m shifts z_m."""
    t = as_points(t)
    ell = params.ell
    p, eta, ka = params.p, params.eta, params.kappa
    xi = params.xi
    if a < ell:
        ta = t[..., a]
        out = ka * np.ones(t.shape[:-1], dtype=np.complex128)
        for m in range(params.n):
            out *= (xi[m] * ta - z[m]) / (ta - xi[m] * z[m])
        for b in range(a + 1, ell):
            out *= (ta - eta * t[..., b]) / (eta * ta - t[..., b])
        for b in range(a):
            out *= (p * ta - eta * t[..., b]) / (p * eta * ta - t[..., b])
        return out
    m = a - ell
    out = np.ones(t.shape[:-1], dtype=np.complex128)
    for b in range(ell):
        tb = t[..., b]
        out *= (tb - p * xi[m] * z[m]) / (xi[m] * tb - p * z[m])
    return out


def discrete_shift(f, a, params):
    """Discrete derivative D_a f = Q_a f - f, where the shift operator
    Q_a f = phi_a * (f with the a-th variable scaled by p).

    Fields here are callables f(t, z) with t of shape (..., ell) and z a
    plain n-vector.
    """
    ell = params.ell

    def df(t, z):
        # the shifted copy rewrites coordinate a, so this field reads dense points
        t = np.asarray(t, dtype=np.complex128)
        z = tuple(z)
        if a < ell:
            tshift = t.copy()
            tshift[..., a] = params.p * tshift[..., a]
            shifted = f(tshift, z)
        else:
            zshift = list(z)
            zshift[a - ell] = params.p * zshift[a - ell]
            shifted = f(t, tuple(zshift))
        qf = phi_factor(a, t, z, params) * np.asarray(shifted, dtype=np.complex128)
        return qf - np.asarray(f(t, z), dtype=np.complex128)

    return df


# ---------------------------------------------------------------------------
# boundary subspaces


def coboundary_coeffs(l, params, primed=False):
    """Coefficients of w_{l+e(m)} in the exact-form relations.

    Plain: (1 - eta^(l_m+1)) (xi_m - eta^(l_m)/xi_m) prod_{l'<=m} eta^(-l_l') xi_l'
    Primed: same first factors times z_m prod_{l'<m} eta^(l_l') / xi_l'.
    """
    eta, xi, z = params.eta, params.xi, params.z
    out = []
    for m in range(params.n):
        c = (1 - eta ** (l[m] + 1)) * (xi[m] - eta ** l[m] / xi[m])
        if not primed:
            for lo in range(m + 1):
                c *= eta ** (-l[lo]) * xi[lo]
        else:
            c *= z[m]
            for lo in range(m):
                c *= eta ** l[lo] / xi[lo]
        out.append(c)
    return out


def boundary_element(flavor, W_lower, params):
    """Element of the boundary subspace Q(z) or Q'(z) built from an
    (ell-1)-variable elliptic function W_lower.

    flavor="Q":  sum_sigma [[ W(t_2..t_ell) ]]_sigma
    flavor="Qprime": sum_sigma [[ W(t_1..t_(ell-1)) t_ell^-1
                     prod_m theta(xi_m t_ell/z_m)/theta(xi_m^-1 t_ell/z_m) ]]_sigma
    """
    ell, p = params.ell, params.p

    if flavor == "Q":

        def core(t):
            return W_lower(t[..., 1:])

    elif flavor == "Qprime":

        def core(t):
            tl = t[..., ell - 1]
            out = np.asarray(W_lower(t[..., : ell - 1]), dtype=np.complex128) / tl
            for m in range(params.n):
                out = out * theta_ratio(
                    params.xi[m] * tl / params.z[m], tl / (params.xi[m] * params.z[m]), p
                )
            return out

    else:
        raise ValueError("flavor must be 'Q' or 'Qprime'")

    return combin.symmetrize(core, ell, params.eta, p)
