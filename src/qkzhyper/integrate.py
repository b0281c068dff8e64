"""Analytic pairings and closed-form right-hand sides.

Torus quadrature for the hypergeometric integral, nested multiple residues,
Jackson residue sums, Shapovalov pairings, and the product formulas every
integral identity is certified against.  Quadrature is the trapezoidal rule
on product circles (geometrically convergent for integrands analytic in an
annulus); residues are iterated small-circle contour integrals.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from . import combin, weightfn
from .errors import ConvergenceError, DegeneracyError, PoleProximityError
from .grid import ProductGrid
from .numkernel import POLE_GUARD, Factor, Integrand, phase_declaration, phase_phi, pole_families, qpoch, theta

TWO_PI_I = 2j * math.pi
_CHUNK = 1 << 17


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_circle: int = 128


@dataclass(frozen=True)
class ResiduePlan:
    center: tuple
    radii: tuple
    points: int = 64


def torus_integral(f, ell, spec=QuadratureSpec(), measure="dt_over_t"):
    """Integral over the unit torus |t_a| = 1.

    measure="dt_over_t" gives int f (dt/t)^ell = (2 pi i)^ell * mean f;
    measure="dt" gives int f d^ell t = (2 pi i)^ell * mean (f * prod t_a).
    """
    if measure not in ("dt_over_t", "dt"):
        raise ValueError("measure must be 'dt_over_t' or 'dt'")
    if ell == 0:
        return complex(f(np.zeros((1, 0), dtype=np.complex128))[0])
    M = spec.points_per_circle
    total = 0.0 + 0j
    for t in _grid_chunks((0.0,) * ell, (1.0,) * ell, M):
        vals = np.asarray(f(t), dtype=np.complex128)
        if measure == "dt":
            for a in range(ell):
                vals = vals * t[..., a]
        total += np.broadcast_to(vals, t.shape[:-1]).sum()
    return TWO_PI_I**ell * total / M**ell


def _grid_chunks(centers, radii, M):
    """The product grid t_a = c_a + r_a exp(2 pi i (j + (a + 1)/(ell + 2)) / M),
    j < M, as ProductGrid chunks of at most _CHUNK nodes (bounded memory) in
    row-major node order.

    A chunk is a slab along axis 0 with the other axes whole; when one row of
    axis 0 alone exceeds _CHUNK, the leading axes are fixed one node at a time
    and the slabs are cut along the first axis whose remaining rows fit.

    The per-axis phase stagger keeps node ratios off the p/eta lattice and the
    diagonals t_a = t_b; an offset uniform grid integrates circles exactly.
    Integrands may return values of any shape that broadcasts to the grid, so
    callers sum np.broadcast_to(vals, t.shape[:-1])."""
    ell = len(radii)
    nodes = [
        c + r * np.exp(TWO_PI_I * (np.arange(M) + (a + 1.0) / (ell + 2.0)) / M)
        for a, (c, r) in enumerate(zip(centers, radii))
    ]
    whole = ell - 1
    while M**whole > _CHUNK:
        whole -= 1
    cut = ell - 1 - whole
    step = _CHUNK // M**whole
    for fixed in itertools.product(range(M), repeat=cut):
        head = [nodes[a][j : j + 1] for a, j in enumerate(fixed)]
        for start in range(0, M, step):
            yield ProductGrid(head + [nodes[cut][start : start + step]] + nodes[cut + 1 :])


def auto_radius(params):
    """Common circle radius separating the inner family p^s xi_m z_m from the
    outer family p^-s xi_m^-1 z_m; equals 1 in the standard |z| = 1 regime."""
    rin = max(abs(params.xi[m] * params.z[m]) for m in range(params.n))
    rout = min(abs(params.z[m] / params.xi[m]) for m in range(params.n))
    if rin >= rout:
        raise PoleProximityError("pole families not separable by a product torus")
    return math.sqrt(rin * rout)


def validate_torus(params, radius):
    """Refuse a radius within POLE_GUARD of a catalog pole; the staggered grid never meets t_a = t_b."""
    fixed, pair = _pole_catalog(params)
    if np.any(np.abs(np.abs(fixed) - radius) < POLE_GUARD * radius):
        raise PoleProximityError("torus radius hits a pole family")
    if np.any((np.abs(np.abs(pair) - 1.0) < POLE_GUARD) & (pair != 1.0)):
        raise PoleProximityError("pair-pole family on the diagonal torus")


def hyper_I(Wf, wf, params, spec=QuadratureSpec()):
    """Hypergeometric pairing I(W, w) = int Phi w W (dt/t)^ell on the torus."""
    mat = hyper_I_many([Wf], [wf], params, spec)
    return complex(mat[0, 0])


def hyper_I_many(Ws, ws, params, spec=QuadratureSpec()):
    """Matrix [I(W_i, w_j)] sharing one phase-function evaluation per node,
    on the torus of radius auto_radius(params)."""
    ell = params.ell
    if ell == 0:
        z0 = np.zeros((1, 0), dtype=np.complex128)
        return np.array(
            [[complex(W(z0)[0]) * complex(w(z0)[0]) for w in ws] for W in Ws],
            dtype=np.complex128,
        )
    radius = auto_radius(params)
    validate_torus(params, radius)
    M = spec.points_per_circle
    out = np.zeros((len(Ws), len(ws)), dtype=np.complex128)
    for t in _grid_chunks((0.0,) * ell, (radius,) * ell, M):
        phi = phase_phi(t, params)
        Wv = [np.asarray(W(t), dtype=np.complex128) for W in Ws]
        wv = [np.asarray(w(t), dtype=np.complex128) for w in ws]
        for i, Wvi in enumerate(Wv):
            base = phi * Wvi
            for j, wvj in enumerate(wv):
                out[i, j] += np.broadcast_to(base * wvj, t.shape[:-1]).sum()
    return TWO_PI_I**ell * out / M**ell


# ---------------------------------------------------------------------------
# nested residues


# Residue circles: the p-shells of the pole catalog (|s| < _SMAX) and of the
# pair divisors (|s| <= _SMAX), and the circle radius as a fraction of the
# distance to the nearest other singularity.
_SMAX = 24
_SHRINK = 0.05


@functools.lru_cache(maxsize=32)
def _pole_catalog(params):
    """(fixed, pair): the origin and p-shells |s| < _SMAX of the point families, and the p-shells
    |s| <= _SMAX of the pair multipliers, of the phase function with its 1/t, both Shapovalov forms
    and every subset weight function at `params`.  Read-only: the cache hands them to every caller."""
    p, ls = params.p, combin.index_vectors(params.n, params.ell)
    subset = [weightfn.subset_form(kind, l, params) for l in ls for kind in ("theta", "linear")]
    origin, axis, pair = pole_families([_phase_tilde(params), omega_elliptic(params), omega_trig(params), *subset], p)
    fixed = [0.0] * origin + [p**s * v for v in axis for s in range(1 - _SMAX, _SMAX)]
    pair = [p**s * v for v in pair for s in range(-_SMAX, _SMAX + 1)]
    out = (np.array(fixed, dtype=np.complex128), np.array(pair, dtype=np.complex128))
    for a in out:
        a.flags.writeable = False
    return out


def _residue_radii(center, params):
    """Per-coordinate circle radii for the nested residue at `center`.

    Base radius is _SHRINK times the distance to the nearest other
    singularity (fixed catalog poles, eta-shifted partners, origin); poles
    within 1e-9 |c_k| of c_k are the point's own, and more than 6 of them
    is a degeneracy.  When a pair divisor t_k = p^s eta^e t_j passes through
    the center, the inner circle (larger k; extracted earlier per the nested
    convention) is forced well below the divisor's displacement under the
    outer circle, so the extraction keeps picking the constant divisor only.
    """
    ell = len(center)
    c = np.asarray(center, dtype=np.complex128)
    fixed, pair = _pole_catalog(params)
    partners = np.multiply.outer(pair, c)
    radii = []
    for k in range(ell):
        ck = c[k]
        cands = np.concatenate((fixed, partners[:, np.arange(ell) != k].ravel()))
        d = np.abs(ck - cands)
        own = d < 1e-9 * abs(ck)
        dmin = float(d[~own].min(initial=math.inf))
        if np.count_nonzero(own) > 6 or not math.isfinite(dmin):
            raise DegeneracyError("multiple singularity intersection at residue point")
        rk = _SHRINK * dmin
        for j in range(k):
            if _divisor_through_center(center[k], center[j], params.p, params.eta, _SMAX):
                rk = min(rk, 0.2 * abs(center[k] / center[j]) * radii[j])
        radii.append(rk)
    return tuple(radii)


def _divisor_through_center(ck, cj, p, eta, smax):
    """True when c_k / c_j = p^s eta^e for some |s| <= smax, e in {-1,0,1}.

    Detection is branch-safe: the shell s comes from moduli, the match from
    the actual quotient."""
    r = ck / cj
    ap = abs(p)
    for e in (-1, 0, 1):
        w = r / eta**e
        if abs(w) == 0:
            continue
        s = round(math.log(abs(w)) / math.log(ap))
        if abs(s) <= smax and abs(w / p**s - 1.0) < 1e-8:
            return True
    return False


def multi_residue(f, center, params=None, plan=None):
    """Nested residue Res_{t1=c1}(... Res_{tl=cl} f ...) by iterated
    small-circle trapezoidal contours (simple poles along each extraction)."""
    center = np.asarray(center, dtype=np.complex128)
    ell = len(center)
    if ell == 0:
        return complex(f(np.zeros((1, 0), dtype=np.complex128))[0])
    if plan is None:
        if params is None:
            raise ValueError("need params or an explicit plan")
        plan = ResiduePlan(tuple(center), _residue_radii(center, params))
    total = 0.0 + 0j
    for t in _grid_chunks(center, plan.radii, plan.points):
        vals = np.asarray(f(t), dtype=np.complex128)
        for k in range(ell):
            vals = vals * (t[..., k] - center[k])
        total += np.broadcast_to(vals, t.shape[:-1]).sum()
    return complex(total / plan.points**ell)


def _residue_at(f, pt, params):
    """Nested residue of f at pt on ResiduePlan circles sized by
    _residue_radii."""
    return multi_residue(f, pt, plan=ResiduePlan(tuple(pt), _residue_radii(pt, params)))


def _special_residue_sum(f, params, side):
    """Sum of the nested residues of f at every special point x<m (side "x")
    or y>m (side "y", with the (-1)^ell sign)."""
    total = 0.0 + 0j
    for mvec in combin.index_vectors(params.n, params.ell):
        total += _residue_at(f, weightfn.special_point(mvec, params, side), params)
    if side == "y":
        total *= (-1.0) ** params.ell
    return total


# ---------------------------------------------------------------------------
# lattice sums and Jackson sums


def _shell_sum(shell_terms, cutoff, tol):
    """Sum a lattice series shell by shell; shell_terms(s) yields the terms of
    shell s.

    Stops once two consecutive shells are below tol * |total|, from shell 3
    on; reaching shell `cutoff` first raises ConvergenceError.  The tail
    past the last shell is estimated as geometric with the ratio of the last
    two shells, and a tail above tol * |total| raises ConvergenceError too.
    Returns (total, {"shells", "last_shell", "tail_estimate", "ratio"}).
    """
    total = 0.0 + 0j
    sizes = []
    for shell in range(cutoff + 1):
        acc = 0.0 + 0j
        for term in shell_terms(shell):
            acc += term
        total += acc
        sizes.append(abs(acc))
        bound = tol * max(abs(total), 1e-300)
        if shell >= 3 and sizes[-1] < bound and sizes[-2] < bound:
            break
    else:
        raise ConvergenceError(
            f"lattice sum not settled after {cutoff + 1} shells: last shell {sizes[-1]:.3g}, total {abs(total):.3g}"
        )
    last = sizes[-1]
    prev = sizes[-2] if len(sizes) > 1 else last
    ratio = last / prev if prev > 0 else 0.0
    tail = last * ratio / (1 - ratio) if 0 < ratio < 1 else last
    if tail > bound:
        raise ConvergenceError(f"lattice sum tail estimate {tail:.3g} after {len(sizes)} shells exceeds {bound:.3g}")
    return total, {"shells": len(sizes), "last_shell": last, "tail_estimate": tail, "ratio": ratio}


def _phase_tilde(params):
    """Phi(t) / prod_a t_a, declared."""
    (phase,) = phase_declaration(params, params.ell).terms
    return Integrand(params.p, [phase + [Factor("monomial", den=1, a=a) for a in range(params.ell)]])


# Relative shell size at which the Jackson sums stop (see _shell_sum).
_JACKSON_TOL = 1e-12


def jackson_sum(Wf, wf, params, side="x", cutoff=60):
    """Jackson (multilattice residue) representation of I(W, w).

    side="x": (2 pi i)^ell ell! sum over m, s >= 0 of Res at x<(m, s);
    side="y": (-2 pi i)^ell ell! sum at y>(m, -s).  Outside the side's
    convergence regime it raises ConvergenceError.  Shells are |s|_1, summed
    by _shell_sum at _JACKSON_TOL, which raises ConvergenceError if the sum
    has not settled by shell `cutoff`.  The tail estimate is scaled to the
    returned value.
    """
    ell, n = params.ell, params.n
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    ratio = abs(params.p * params.kappa / params.xi_prod)
    lim = min(1.0, abs(params.eta) ** (1 - ell))
    if side == "x" and ratio >= lim:
        raise ConvergenceError(f"x-sum regime violated: {ratio:.3g} >= {lim:.3g}")
    if side == "y":
        ratio = abs(params.kappa * params.xi_prod)
        lim = max(1.0, abs(params.eta) ** (ell - 1))
        if ratio <= lim:
            raise ConvergenceError(f"y-sum regime violated: {ratio:.3g} <= {lim:.3g}")
    phit = _phase_tilde(params)

    def integrand(t):
        return phit(t) * np.asarray(wf(t), dtype=np.complex128) * np.asarray(
            Wf(t), dtype=np.complex128
        )

    sign = 1.0 if side == "x" else (-1.0) ** ell

    def shell_terms(shell):
        for mvec in combin.index_vectors(n, ell):
            for svec in combin.index_vectors(ell, shell):
                sh = svec if side == "x" else tuple(-v for v in svec)
                pt = weightfn.special_point(mvec, params, side, sh)
                yield _residue_at(integrand, pt, params)

    total, report = _shell_sum(shell_terms, cutoff, _JACKSON_TOL)
    report["tail_estimate"] *= abs(TWO_PI_I**ell * factorial(ell))
    return sign * TWO_PI_I**ell * factorial(ell) * total, report


# ---------------------------------------------------------------------------
# pairing matrix and determinant right-hand sides


def pairing_matrix(params, restrict="all", spec=QuadratureSpec()):
    """Gram matrix [I(W_l, w_m)] over the canonical index order.

    restrict="first_zero"/"last_zero" keeps the rows and columns with
    l_1 = 0 / l_n = 0 (the minors of the special-kappa determinants).
    """
    n, ell = params.n, params.ell
    idx = combin.index_vectors(n, ell)
    if restrict == "first_zero":
        idx = [v for v in idx if v[0] == 0]
    elif restrict == "last_zero":
        idx = [v for v in idx if v[-1] == 0]
    elif restrict != "all":
        raise ValueError("restrict must be all|first_zero|last_zero")
    Ws = [(lambda t, l=l: weightfn.W_ell(l, t, params, "subset")) for l in idx]
    ws = [(lambda t, l=l: weightfn.w_trig(l, t, params, "subset")) for l in idx]
    return idx, hyper_I_many(Ws, ws, params, spec)


def det_rhs(params, kind="mu_gen"):
    """Closed form of det [I(W_l, w_m)]: kind mu_gen, or the first/last-zero
    minors mu_plus (kappa = eta^(1-ell) prod xi) / mu_minus (primed value)."""
    p, eta, ka = params.p, params.eta, params.kappa
    xi, z = params.xi, params.z
    n, ell = params.n, params.ell
    qp = lambda u: qpoch(u, p)
    th = lambda u: theta(u, p)
    xiprod = params.xi_prod

    if kind == "mu_gen":
        dim = comb(n + ell - 1, n - 1)
        out = (TWO_PI_I**ell * factorial(ell)) ** dim
        out *= eta ** (-n * comb(n + ell - 1, n + 1))
        for m in range(n):
            out *= xi[m] ** ((n - 1 - m) * comb(n + ell - 1, n))
        for s in range(1 - ell, ell):
            for m in range(n - 1):
                arg = eta**s / ka
                for l in range(n):
                    arg = arg / xi[l] if l <= m else arg * xi[l]
                out *= th(arg) ** combin.counts("d", n, m + 1, ell, s)
        for s in range(ell):
            fac = qp(1 / eta) ** n * qp(eta ** (s + 1 - ell) / ka * xiprod)
            fac *= qp(p * eta ** (s + 1 - ell) * ka * xiprod)
            fac /= qp(eta ** (-s - 1)) ** n * qp(p) ** (2 * n - 1)
            for m in range(n):
                fac /= qp(eta**-s * xi[m] ** 2)
            for l in range(n):
                for m in range(l + 1, n):
                    fac *= qp(eta**s / (xi[l] * xi[m]) * z[l] / z[m])
                    fac /= qp(eta**-s * xi[l] * xi[m] * z[l] / z[m])
            out *= fac ** comb(n + ell - s - 2, n - 1)
        return out

    if kind in ("mu_plus", "mu_minus"):
        dim = comb(n + ell - 2, n - 2)
        out = (TWO_PI_I**ell * factorial(ell)) ** dim
        out *= eta ** ((1 - n) * comb(n + ell - 2, n))
        if kind == "mu_plus":
            for m in range(n):
                out *= xi[m] ** ((n - 1 - m) * comb(n + ell - 2, n - 1))
            for s in range(1 - ell, ell):
                for m in range(1, n - 1):
                    arg = eta ** (s + ell - 1)
                    for l in range(m + 1):
                        arg /= xi[l] ** 2
                    out *= th(arg) ** combin.counts("d", n - 1, m, ell, s)
        else:
            for m in range(n - 1):
                out *= xi[m] ** ((n - 2 - m) * comb(n + ell - 2, n - 1))
            for s in range(1 - ell, ell):
                for m in range(n - 2):
                    arg = p * eta ** (s + 1 - ell)
                    for l in range(m + 1, n):
                        arg *= xi[l] ** 2
                    out *= th(arg) ** combin.counts("d", n - 1, m + 1, ell, s)
        special = xi[0] if kind == "mu_plus" else xi[-1]
        for s in range(ell):
            fac = qp(1 / eta) ** (n - 1) * qp(p * eta ** (s + 2 - 2 * ell) * xiprod**2)
            fac *= qp(eta**s / special**2)
            fac /= qp(eta ** (-s - 1)) ** (n - 1) * qp(p) ** (2 * n - 3)
            for m in range(n):
                if (kind == "mu_plus" and m == 0) or (kind == "mu_minus" and m == n - 1):
                    continue
                fac /= qp(eta**-s * xi[m] ** 2)
            for l in range(n):
                for m in range(l + 1, n):
                    fac *= qp(eta**s / (xi[l] * xi[m]) * z[l] / z[m])
                    fac /= qp(eta**-s * xi[l] * xi[m] * z[l] / z[m])
            out *= fac ** comb(n + ell - s - 3, n - 2)
        return out

    raise ValueError(f"unknown kind {kind!r}")


def qbeta_rhs(a, b, c, x, p, ell):
    qp = lambda u: qpoch(u, p)
    out = TWO_PI_I**ell * factorial(ell)
    for s in range(ell):
        out *= qp(x) * qp(x**s * b * c) * qp(p * x**s * a / c)
        out /= qp(x ** (s + 1)) * qp(x**s * a * b)
    return out


def _x_pair_factors(x, ell):
    """(t_j/t_k)_inf / (x t_j/t_k)_inf, j != k: two plain products are cheaper than one paired ratio on big grids."""
    pairs = itertools.permutations(range(ell), 2)
    return [f for j, k in pairs for f in (Factor("qpoch", 1, a=j, b=k), Factor("qpoch", den=x, a=j, b=k))]


def qbeta_integrand(a, b, c, x, p, ell):
    """prod_k theta(c t_k) / (t_k (a t_k)_inf (b / t_k)_inf) times the pairs."""
    term = _x_pair_factors(x, ell)
    for k in range(ell):
        term += [Factor("theta", c, a=k), Factor("monomial", den=1, a=k)]
        term += [Factor("qpoch", den=a, a=k), Factor("qpoch", den=b, b=k)]
    return Integrand(p, [term])


def askey_roy_rhs(a, b, c, alpha, beta, p):
    qp = lambda u: qpoch(u, p)
    th = lambda u: theta(u, p)
    return (
        TWO_PI_I
        * qp(a * b * alpha * beta)
        * th(a * c)
        * th(b * c)
        / (qp(p) * qp(a * alpha) * qp(a * beta) * qp(b * alpha) * qp(b * beta))
    )


def askey_roy_integrand(a, b, c, alpha, beta, p):
    """The ell = 1 ARL integrand times t."""
    (term,) = arl_integrand(a, b, c, alpha, beta, 1, p, 1).terms
    return Integrand(p, [term + [Factor("monomial", 1, a=0)]])


def arl_rhs(a, b, c, alpha, beta, x, p, ell):
    qp = lambda u: qpoch(u, p)
    th = lambda u: theta(u, p)
    out = TWO_PI_I**ell * factorial(ell)
    for s in range(ell):
        out *= qp(x) * qp(x ** (ell + s - 1) * a * b * alpha * beta)
        out *= th(x**s * a * c) * th(x**s * b * c)
        out /= (
            qp(x ** (s + 1))
            * qp(x**s * a * alpha)
            * qp(x**s * a * beta)
            * qp(x**s * b * alpha)
            * qp(x**s * b * beta)
            * qp(p)
        )
    return out


def arl_integrand(a, b, c, alpha, beta, x, p, ell):
    """prod_k theta(p t_k/c) theta(x^(ell-1) abc t_k) / (t_k (a t_k, b t_k,
    alpha/t_k, beta/t_k)_inf) times the pairs."""
    term, s = _x_pair_factors(x, ell), x ** (ell - 1) * a * b * c
    for k in range(ell):
        term += [Factor("theta", p / c, a=k), Factor("theta", s, a=k), Factor("monomial", den=1, a=k)]
        term += [Factor("qpoch", den=v, a=k) for v in (a, b)] + [Factor("qpoch", den=v, b=k) for v in (alpha, beta)]
    return Integrand(p, [term])


def detM_rhs(params):
    """det M = prod_{s<ell} prod_{l<m} (eta^s z_l - xi_l xi_m z_m)^C(n+ell-s-2, n-1)."""
    n, ell = params.n, params.ell
    out = 1.0 + 0j
    for s in range(ell):
        for l in range(n):
            for m in range(l + 1, n):
                base = params.eta**s * params.z[l] - params.xi[l] * params.xi[m] * params.z[m]
                out *= base ** comb(n + ell - s - 2, n - 1)
    return out


def detMq_rhs(params):
    """Elliptic basis determinant with the constant Xi of the theta basis."""
    n, ell = params.n, params.ell
    p, eta, ka = params.p, params.eta, params.kappa
    xi, z = params.xi, params.z
    th = lambda u: theta(u, p)
    omega = cmath.exp(2j * math.pi / n)
    Xi = qpoch(p, p) ** (1 - n * n)
    for m in range(1, n):
        Xi *= (th(omega**m) / (omega**m - 1)) ** (n - m)
    Xi = Xi ** comb(n + ell - 1, n)
    out = Xi
    for s in range(1 - ell, ell):
        for m in range(n - 1):
            arg = eta**s / ka
            for l in range(n):
                arg = arg / xi[l] if l <= m else arg * xi[l]
            out *= th(arg) ** combin.counts("d", n, m + 1, ell, s)
    for m in range(n):
        out *= (z[m] / xi[m]) ** ((m + 1 - n) * comb(n + ell - 1, n))
    for s in range(ell):
        for l in range(n):
            for m in range(l + 1, n):
                out *= th(eta**s / (xi[l] * xi[m]) * z[l] / z[m]) ** comb(n + ell - s - 2, n - 1)
    return out


# ---------------------------------------------------------------------------
# Askey sums and the q-Selberg Jackson sum


def _qpoch_ratio_plattice(A, B, p):
    """Limit of (u p^A)_inf / (u p^B)_inf as u -> 1, for integers A <= B.

    Vanishes when A <= 0 < B; when both products vanish (B <= 0) the common
    (1-u) factors cancel with sign +1, as the residue picture dictates."""
    out = 1.0
    for j in range(A, B):
        out *= 1 - p**j
    return out


def _p_lattice_exponent(r, p):
    """Integer s with r = p^s, or None if r is off the lattice."""
    ap = abs(p)
    if abs(r) == 0 or ap == 0:
        return None
    s = round(math.log(abs(r)) / math.log(ap))
    return s if abs(r / p**s - 1.0) < 1e-9 else None


# Relative shell size at which the Askey and q-Selberg lattice sums stop, and
# the last shell of the general Askey and the q-Selberg sums.
_LATTICE_TOL = 1e-13
_ASCJ_GENERAL_CUTOFF = 40
_QSELBERG_CUTOFF = 80


def _column_product(*blocks):
    """Row-wise product of the columns of each (T, c) block in turn, from 1:
    the multiplication order of a per-term loop over the same factors."""
    out = np.ones(len(blocks[0]), dtype=np.complex128)
    for block in blocks:
        for col in block.T:
            out *= col
    return out


def _pair_ratios(us):
    """u_k / u_j for the pairs j < k of each row of a (T, ell) array, one
    column per pair in the order of the double loop over j, then k."""
    j, k = np.triu_indices(us.shape[1], 1)
    return us[:, k] / us[:, j]


def _askey_singles(us, a, b, alpha, beta, p):
    """u (pu/a)_inf (pu/b)_inf / ((alpha u)_inf (beta u)_inf) at every entry
    of a (T, ell) array of lattice points, one kernel call per factor."""
    qp = lambda u: qpoch(u, p)
    return us * qp(p * us / a) * qp(p * us / b) / (qp(alpha * us) * qp(beta * us))


def _x_pairs(us, x, p):
    """(1 - r) (pr/x)_inf / (xr)_inf at r = u_k / u_j for the pairs j < k,
    one kernel call per factor; (T, 0) when ell = 1."""
    r = _pair_ratios(us)
    if not r.size:
        return r
    return (1 - r) * qpoch(p * r / x, p) / qpoch(x * r, p)


def ascj_sum(a, b, alpha, beta, p, m, ell, cutoff=40):
    """Askey's multidimensional sum: signed two-sided lattice sum vs product.

    Same-family lattice pairs make 0/0 pair factors at x = p^m; those are
    evaluated in the cancelled (x -> p^m limit) form, and only the other
    pairs reach the kernel.  Each shell is evaluated as one array of
    lattice points.  Returns (lhs_sum, rhs, report)."""
    if m < 1:
        raise ValueError("m >= 1 (m = 0 degenerates the pair weight)")
    qp = lambda u: qpoch(u, p)
    x = p**m

    def v(s):
        return p**s * b if s >= 0 else p ** (-s - 1) * a

    def pair_factors(us):
        r = _pair_ratios(us)
        deltas = [_p_lattice_exponent(rv, p) for rv in r.ravel().tolist()]
        lattice = np.array([d is not None for d in deltas], dtype=bool).reshape(r.shape)
        out = np.empty_like(r)
        out[lattice] = [_qpoch_ratio_plattice(1 - m + d, 1 + m + d, p) for d in deltas if d is not None]
        if not lattice.all():
            off = r[~lattice]
            out[~lattice] = qp(p * off / x) / qp(p * x * off)
        return out

    def shell_terms(shell):
        rows = list(_signed_shell(ell, shell))
        us = np.array([[v(r) for r in rs] for rs in rows], dtype=np.complex128)
        term = np.array([(-1.0) ** sum(r < 0 for r in rs) for rs in rows])
        term = term * _column_product(_askey_singles(us, a, b, alpha, beta, p), pair_factors(us))
        for k in range(ell):
            term *= us[:, k] ** (2 * m * (ell - 1 - k))
        yield from term.tolist()

    total, report = _shell_sum(shell_terms, cutoff, _LATTICE_TOL)
    rhs = p ** (m * m * comb(ell, 3) - comb(m, 2) * comb(ell, 2))
    for s in range(ell):
        rhs *= qp(p ** (m + 1)) * qp(p ** (m * (ell + s - 1)) * a * b * alpha * beta)
        rhs *= (-a * b) ** (m * s) * b * theta(a / b, p)
        rhs /= (
            qp(p ** (m * (s + 1) + 1))
            * qp(p ** (m * s) * a * alpha)
            * qp(p ** (m * s) * a * beta)
            * qp(p ** (m * s) * b * alpha)
            * qp(p ** (m * s) * b * beta)
        )
    return total, rhs, report


def _signed_shell(ell, total):
    """All r in Z^ell with sum |r_k| = total."""
    if ell == 1:
        if total == 0:
            yield (0,)
        else:
            yield (total,)
            yield (-total,)
        return
    for first_abs in range(total + 1):
        firsts = (0,) if first_abs == 0 else (first_abs, -first_abs)
        for f in firsts:
            for rest in _signed_shell(ell - 1, total - first_abs):
                yield (f,) + rest


def ascj_general_sum(a, b, alpha, beta, x, p, ell):
    """The j-decomposed generalization with free x; returns (lhs, rhs, report).

    Each shell is evaluated as one array of lattice points, all j at once."""
    qp = lambda u: qpoch(u, p)
    th = lambda u: theta(u, p)
    # theta(x^(j+s) a/b) / theta(x^(j-s) a/b) for s < ell - j: depends on j only
    prefactors = [
        [th(x ** (j + s) * a / b) / th(x ** (j - s) * a / b) for s in range(ell - j)] for j in range(ell + 1)
    ]

    def shell_terms(shell):
        rows, scales = [], []
        for j in range(ell + 1):
            for rs in combin.index_vectors(ell, shell):
                us = []
                cum = 0
                for i in range(j):
                    cum += rs[i]
                    us.append(p**cum * x**i * a)
                cum = 0
                for i in range(j, ell):
                    cum += rs[i]
                    us.append(p**cum * x ** (i - j) * b)
                # (ell-j-1)(ell-j) is even, so the halved exponent is integral
                expo = sum((ell - 1 - i) * (ell - i) * rs[i] for i in range(ell))
                expo -= (ell - j - 1) * (ell - j) * (1 + 2 * sum(rs[:j])) // 2
                scale = (-1.0) ** j * x**expo
                for f in prefactors[j]:
                    scale *= f
                rows.append(us)
                scales.append(scale)
        us = np.array(rows, dtype=np.complex128)
        weight = _column_product(_askey_singles(us, a, b, alpha, beta, p), _x_pairs(us, x, p))
        yield from (np.array(scales, dtype=np.complex128) * weight).tolist()

    total, report = _shell_sum(shell_terms, _ASCJ_GENERAL_CUTOFF, _LATTICE_TOL)
    rhs = 1.0 + 0j
    for s in range(ell):
        rhs *= qp(x) * qp(x ** (ell + s - 1) * a * b * alpha * beta) * b * th(x**s * a / b)
        rhs /= (
            qp(x ** (s + 1))
            * qp(x**s * a * alpha)
            * qp(x**s * a * beta)
            * qp(x**s * b * alpha)
            * qp(x**s * b * beta)
        )
    return total, rhs, report


def qselberg_jackson(alpha, u, x, p, ell):
    """Jackson-sum form of the q-Selberg integral; returns (lhs, rhs, report).

    Each shell is evaluated as one array of lattice points."""
    if abs(u) >= min(1.0, abs(x) ** (ell - 1)):
        raise ConvergenceError("need |u| < min(1, |x|^(ell-1))")
    qp = lambda v: qpoch(v, p)

    def shell_terms(shell):
        rows, scales = [], []
        for rs in combin.index_vectors(ell, shell):
            ts = []
            cum = 0
            for i in range(ell):
                cum += rs[i]
                ts.append(p**cum * x**i)
            expo_u = sum((ell - i + 1) * rs[i - 1] for i in range(1, ell + 1))
            expo_x = -sum((i - 1) * (ell - i + 1) * rs[i - 1] for i in range(1, ell + 1))
            rows.append(ts)
            scales.append(u**expo_u * x**expo_x)
        ts = np.array(rows, dtype=np.complex128)
        weight = _column_product(qp(p * ts) / qp(alpha * ts), _x_pairs(ts, x, p))
        yield from (np.array(scales, dtype=np.complex128) * weight).tolist()

    total, report = _shell_sum(shell_terms, _QSELBERG_CUTOFF, _LATTICE_TOL)
    rhs = 1.0 + 0j
    for s in range(ell):
        rhs *= qp(x) * qp(x**s * alpha * u) * qp(p)
        rhs /= qp(x ** (s + 1)) * qp(x**s * alpha) * qp(x**-s * u)
    return total, rhs, report


def qselberg_X_ratio(k, a, b, c, x, p, ell, spec=QuadratureSpec()):
    """X_k / X_(k-1) via torus integrals of t_1..t_k F(t) d^ell t, plus the
    closed recurrence ratio."""
    (base,) = qbeta_integrand(a, b, c, x, p, ell).terms
    mono = lambda j: Integrand(p, [base + [Factor("monomial", 1, a=i) for i in range(j)]])
    Xk = torus_integral(mono(k), ell, spec, measure="dt")
    Xkm = torus_integral(mono(k - 1), ell, spec, measure="dt")
    closed = (
        k
        * (1 - x ** (ell - k + 1))
        * (p - x ** (k - 1) * b * c)
        / ((ell - k + 1) * (1 - x**k) * (p * x ** (ell - k) * a - c))
    )
    return Xk / Xkm, closed


# ---------------------------------------------------------------------------
# Shapovalov pairings


def omega_elliptic(params):
    """prod_a t_a^-1 prod_{a,m} theta(t_a/(xi_m z_m)) / theta(xi_m t_a/z_m)
    prod_{a<b} eta^-1 theta(eta t_a/t_b) / theta(t_a/(eta t_b)), declared."""
    return _omega("theta", params, 1)


def omega_trig(params):
    """prod_a t_a^-2 prod_{a,m} (t_a - xi_m z_m) / (xi_m t_a - z_m)
    prod_{a<b} (eta t_a - t_b) / (t_a - eta t_b), declared."""
    return _omega("linear", params, params.xi_prod**params.ell)


def _omega(kind, params, const):
    eta, ell = params.eta, params.ell
    term = [Factor("monomial", den=1, a=a) for a in range(ell) for _ in range(1 + (kind == "linear"))]
    term += [Factor(kind, 1 / (xi * z), xi / z, a) for a in range(ell) for xi, z in zip(params.xi, params.z)]
    term += [Factor(kind, eta, 1 / eta, a, b) for a in range(ell) for b in range(a + 1, ell)]
    return Integrand(params.p, [term], const * eta ** -comb(ell, 2))


def shapovalov(flavor, f1, f2, params):
    """Shapovalov pairing: sum over m of Res(Omega f1 f2) at x<m."""
    om = omega_elliptic(params) if flavor == "elliptic" else omega_trig(params)

    def integrand(t):
        return (
            om(t)
            * np.asarray(f1(t), dtype=np.complex128)
            * np.asarray(f2(t), dtype=np.complex128)
        )

    return _special_residue_sum(integrand, params, "x")


def residue_balance_check(f, params):
    """x-side residue sum, y-side residue sum, and their signed difference."""
    xs = _special_residue_sum(f, params, "x")
    ys = _special_residue_sum(f, params, "y")
    return {"x_sum": xs, "y_sum_signed": ys, "difference": xs - ys}
