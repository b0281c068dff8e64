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
from .grid import ProductGrid, unit_roots
from .numkernel import POLE_GUARD, Factor, Integrand, phase_declaration, phase_phi, pole_families, qpoch, theta
from .numkernel import _nearest_p_power, _p_shells, _powers

TWO_PI_I = 2j * math.pi
_CHUNK = 1 << 17


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_circle: int = 128


@dataclass(frozen=True)
class ResiduePlan:
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
    for _, t in _grid_slabs((0.0,) * ell, (1.0,) * ell, M):
        vals = np.broadcast_to(np.asarray(f(t), dtype=np.complex128), t.shape[:-1])
        if measure == "dt":
            # one new array: the first axis's product, then the others in place
            vals = vals * t[..., 0]
            for a in range(1, ell):
                vals *= t[..., a]
        total += vals.sum()
    return TWO_PI_I**ell * total / M**ell


def _grid_slabs(centers, radii, M):
    """The product grid t_a = c_a + r_a exp(2 pi i (j + (a + 1)/(ell + 2)) / M_a),
    j < M_a, as (slices, ProductGrid) chunks of at most _CHUNK nodes (bounded
    memory) in row-major node order; slices[a] is the range of global node
    indices j that the chunk holds on axis a.  M is one node count for every
    axis, or a tuple (M_0, ..., M_(ell-1)) of one per axis.

    Stacked centres and radii, (ell, R) arrays with column r one point, give
    the batch of those R grids: node rows (R, M_a), a leading batch axis in
    t.shape[:-1], and slices[0] the range of points the chunk holds, ahead
    of the ell node ranges.  The R prod(M_a) nodes are chunked as one array.

    A chunk is a slab along the first axis with the other axes whole; when
    one row of that axis alone exceeds _CHUNK, the leading axes are fixed one
    index at a time and the slabs are cut along the first axis whose
    remaining rows fit.

    The per-axis phase stagger keeps node ratios off the p/eta lattice and the
    diagonals t_a = t_b; an offset uniform grid integrates circles exactly.
    When every centre is 0 and every radius and node count equal, the chunks
    carry their circulant description, so a pair ratio is M values and a
    gather.  Integrands may return values of any shape that broadcasts to
    the grid, so callers sum np.broadcast_to(vals, t.shape[:-1])."""
    ell = len(radii)
    Ms = (M,) * ell if np.ndim(M) == 0 else tuple(M)
    shifts = [(a + 1.0) / (ell + 2.0) for a in range(ell)]
    batch = np.shape(centers[0])
    if batch:  # stacked: a column of centres and radii per axis against its node row
        centers, radii = np.asarray(centers)[..., None], np.asarray(radii)[..., None]
    nodes = [c + r * unit_roots(m, d) for c, r, m, d in zip(centers, radii, Ms, shifts)]
    dims = batch + Ms
    torus = not batch and all(c == 0 for c in centers) and len(set(radii)) == 1 and len(set(Ms)) == 1
    whole = len(dims) - 1
    while math.prod(dims[len(dims) - whole :]) > _CHUNK:
        whole -= 1
    cut = len(dims) - 1 - whole
    step, rest = _CHUNK // math.prod(dims[cut + 1 :]), [slice(0, n) for n in dims[cut + 1 :]]
    for fixed in itertools.product(*map(range, dims[:cut])):
        head = [slice(j, j + 1) for j in fixed]
        for start in range(0, dims[cut], step):
            slices = head + [slice(start, min(start + step, dims[cut]))] + rest
            grid = slices[len(batch) :]
            circulant = (Ms[0], [np.arange(Ms[0])[s] for s in grid], shifts) if torus else None
            yield slices, ProductGrid([x[(*slices[: len(batch)], s)] for x, s in zip(nodes, grid)], circulant)


def auto_radius(params):
    """Common circle radius separating the inner family p^s xi_m z_m from the
    outer family p^-s xi_m^-1 z_m; equals 1 in the standard |z| = 1 regime."""
    rin = max(abs(params.xi[m] * params.z[m]) for m in range(params.n))
    rout = min(abs(params.z[m] / params.xi[m]) for m in range(params.n))
    if rin >= rout:
        raise PoleProximityError("pole families not separable by a product torus")
    return math.sqrt(rin * rout)


def validate_torus(params, radius):
    """Refuse a radius within POLE_GUARD of a pole family's moduli, and a pair family with
    a member on modulus 1 other than 1 itself, which the staggered grid never meets."""
    _, axis, pair = _pole_families(params)
    ap = abs(params.p)
    if any(_nearest_p_power(radius, abs(v), ap)[1] < POLE_GUARD * radius for v in axis):
        raise PoleProximityError("torus radius hits a pole family")
    for v in pair:
        s, d = _nearest_p_power(1.0, abs(v), ap)
        if d < POLE_GUARD and v * params.p**s != 1.0:
            raise PoleProximityError("pair-pole family on the diagonal torus")


def hyper_I_many(Ws, ws, params, spec=QuadratureSpec()):
    """Matrix of the hypergeometric pairings I(W_i, w_j) = int Phi w_j W_i
    (dt/t)^ell on the torus of radius auto_radius(params): each field and
    the phase function are evaluated once per node."""
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
    for _, t in _grid_slabs((0.0,) * ell, (radius,) * ell, M):
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


# Residue circle radius as a fraction of the distance to the nearest other singularity.
_SHRINK = 0.05
# Relative error estimate at which a residue circle's node count is accepted
# (see multi_residue).
_RESIDUE_TOL = 1e-8


@functools.lru_cache(maxsize=32)
def _pole_families(params):
    """pole_families of the phase function with its 1/t, both Shapovalov forms
    and every subset weight function at `params`: (origin, axis, pair), each
    family v standing for its whole p-lattice v p^Z."""
    ls = combin.index_vectors(params.n, params.ell)
    subset = [weightfn.subset_form(kind, l, params) for l in ls for kind in ("theta", "linear")]
    fields = [_phase_tilde(params), omega_elliptic(params), omega_trig(params), *subset]
    origin, axis, pair = pole_families(fields, params.p)
    return origin, tuple(map(complex, axis)), tuple(map(complex, pair))


def _residue_radii(center, params):
    """(radii, rho): per-coordinate circle radii for the nested residue at
    `center`, and per coordinate rho_k, the ratio of circle k's radius to
    the nearest singularity it must exclude (the trapezoidal rule on that
    circle converges like rho_k^M_k).

    Base radius is _SHRINK times the distance to the nearest other
    singularity: the origin, the member of every point family v p^Z nearest
    c_k, and the partner m c_j of every pair family with m nearest c_k / c_j.
    A member within 1e-9 |c_k| of c_k is the point's own (more than 6 are a
    degeneracy), and the family's nearest other member lies inward, as
    |1 - p^-s| = |p|^-s |1 - p^s|.  When a pair divisor t_k = m t_j passes
    through the center (|c_k - m c_j| < 1e-8 |m c_j|), the inner circle
    (larger k; extracted earlier per the nested convention) is forced to at
    most 0.2 times the divisor's displacement |c_k / c_j| r_j under the outer
    circle, so the extraction keeps picking the constant divisor only.  A
    plain axis has rho_k = _SHRINK; the inner axis k of a divisor has
    rho_k = r_k / (|c_k / c_j| r_j) <= 0.2, the largest over its divisors.
    The outer axis j keeps its own rho_j: the divisor it sees inside its
    circle, within 0.2 r_j of c_j, is left to the acceptance test of
    multi_residue, which halves every axis.
    """
    origin, axis, pair = _pole_families(params)
    p, c = complex(params.p), [complex(v) for v in center]
    radii, rho = [], []
    for k, ck in enumerate(c):
        dmin, own, through = abs(ck) if origin else math.inf, 0, set()
        # (x, scale, families, j), j = k for the point families: |c_k - m c_j| = |c_j| |c_k / c_j - m|
        sets = [(ck, 1.0, axis, k)] + [(ck / cj, abs(cj), pair, j) for j, cj in enumerate(c) if j != k]
        for x, scale, families, j in sets:
            for v in families:
                s, d = _nearest_p_power(x, v, p)
                if j < k and d < 1e-8 * abs(v * p**s):
                    through.add(j)
                if d < 1e-9 * abs(x):
                    own += 1
                    s, d = _nearest_p_power(x, v, p, s + 1)
                dmin = min(dmin, scale * d)
        if own > 6 or dmin == math.inf:
            raise DegeneracyError("multiple singularity intersection at residue point")
        divisors = [(abs(ck / c[j]), radii[j]) for j in sorted(through)]
        rk = min([_SHRINK * dmin] + [0.2 * m * rj for m, rj in divisors])
        rho.append(max([_SHRINK] + [rk / (m * rj) for m, rj in divisors]))
        radii.append(rk)
    return tuple(radii), tuple(rho)


def _circle_sums(f, center, radii, M):
    """Sums of the summand f(t) prod_k (t_k - c_k) over the offset circles
    of a stacked centre (ell, R) with radii (ell, R), M = (M_0, ...,
    M_(ell-1)) nodes per axis, on one batched grid: over all prod(M_k)
    nodes, over the prod(M_k / 2) nodes with even index on every axis (the
    offset rule of M_k / 2 nodes per axis, selected by global node index so
    that the slabs of _grid_slabs do not shift it), and of its modulus;
    each over the grid axes only, one sum per entry of f's value axes and
    point, with the batch axis last."""
    ell, R = center.shape
    grid_axes = tuple(range(-ell, 0))
    sums = None
    for slices, t in _grid_slabs(center, radii, M):
        at = (slices[0],) + (None,) * ell
        vals = np.asarray(f(t), dtype=np.complex128)
        for k in range(ell):
            vals = vals * (t[..., k] - center[k][at])
        half = vals[(..., *(slice(s.start % 2, None, 2) for s in slices[-ell:]))]
        parts = (vals.sum(axis=grid_axes), half.sum(axis=grid_axes), np.abs(vals).sum(axis=grid_axes))
        if sums is None:
            if math.prod(t.shape[:-1]) == R * math.prod(M):
                return parts  # one chunk holds the whole grid
            sums = [np.zeros(v.shape[:-1] + (R,), dtype=v.dtype) for v in parts]
        for acc, v in zip(sums, parts):
            acc[..., slices[0]] += v
    return tuple(sums)


def multi_residue(f, center, params=None, plan=None):
    """Nested residue Res_{t1=c1}(... Res_{tl=cl} f ...) by iterated
    small-circle trapezoidal contours (simple poles along each extraction).

    An explicit plan is evaluated on its radii with its node count on every
    axis.  Without one, the radii and the per-axis rho come from
    _residue_radii at `params`, and the node counts M = (M_0, ...,
    M_(ell-1)) from the rule's own error estimate: axis k starts at the
    smallest power of two with rho_k^(M_k/2) <= _RESIDUE_TOL (16 on a plain
    axis, 32 on the inner axis of a pair divisor), and the mean Q_M of the
    summand is accepted once |Q_M - Q_(M/2)| <= _RESIDUE_TOL * mean|summand|,
    Q_(M/2) being the mean over the nodes of even index on every axis.
    Under geometric convergence that difference is the error of Q_(M/2),
    and the error of Q_M is about its square.  Otherwise every axis doubles,
    up to ResiduePlan.points (the cap); a point that fails with every axis
    at the cap raises ConvergenceError, so its last try is the cap^ell grid
    whatever its start.  Value axes of f give an array of residues on the
    same circles, and M is accepted once every entry passes its test.

    A stacked centre, shape (ell, R) with center[k] coordinate k of every
    point, gives the R residues in one call, with the batch axis last after
    any value axes; an unstacked centre (ell,) is a stack of one, and comes
    back as a scalar or an array of the value axes.  Each point keeps its own
    radii, rho, starting M and acceptance test.  The radii take one walk per
    stack: a point that is the first one p-shifted, c_0 p^sigma, gets the
    first point's radii scaled by |p|^sigma and its rho (_stack_radii), any
    other point walks alone.  The points that share a node tuple M are
    evaluated on one batched grid (one call of f per chunk), and a point
    that fails its test goes on without the points that passed, at the
    doubled M.  The kernels take one truncation per block over the whole
    batch.  Past the cap the error names the point that did not settle and
    its node count per axis.
    """
    center = np.asarray(center, dtype=np.complex128)
    ell = len(center)
    if ell == 0:
        return _as_value(np.asarray(f(np.zeros((1, 0), dtype=np.complex128)), dtype=np.complex128)[..., 0])
    if plan is None and params is None:
        raise ValueError("need params or an explicit plan")
    stacked = center.ndim == 2
    if not stacked:
        center = center[:, None]
    if plan is not None:
        out = _circle_sums(f, center, np.reshape(plan.radii, center.shape), (plan.points,) * ell)[0] / plan.points**ell
    else:
        out = _sized_residues(f, center, params)
    return out if stacked else _as_value(out[..., 0])


def _stack_radii(center, params):
    """(radii, rhos): the _residue_radii of every point of a stacked centre
    (ell, R), the radii as an (ell, R) array and one rho tuple per point.

    Only the first point walks.  A point c_r = c_0 p^sigma, sigma an integer
    per coordinate (checked to 1e-12 relative), gets the radii r_0 |p|^sigma
    and rho_0: every family is a p-lattice, and the origin, own-member and
    divisor tests are scale-invariant, so that is the walk's answer at c_r
    up to rounding.  Any other point walks alone."""
    p, R = complex(params.p), center.shape[1]
    c0 = center[:, :1]
    r0, rho0 = _residue_radii(c0[:, 0].tolist(), params)
    if R == 1:
        return np.array(r0)[:, None], [rho0]
    sigma = _p_shells(center / c0, p)
    ps, aps = (1.0, np.ones(center.shape)) if sigma is None else (_powers(p, sigma), _powers(abs(p), sigma))
    shifted = np.all(np.abs(center - c0 * ps) <= 1e-12 * np.abs(center), axis=0)
    radii = np.array(r0)[:, None] * aps
    rhos = [rho0] * R
    for r in np.flatnonzero(~shifted):
        walked, rhos[r] = _residue_radii(center[:, r].tolist(), params)
        radii[:, r] = walked
    return radii, rhos


def _sized_residues(f, center, params):
    """The residues of multi_residue at a stacked centre (ell, R), each
    point on its own radii and node tuple (M_0, ..., M_(ell-1)); the radii
    take one walk per stack (_stack_radii).  Groups run in increasing tuple
    order: a doubled tuple (each axis clamped at the cap) is larger than its
    own, so a point that doubles joins a group still to come."""
    ell, R = center.shape
    radii, rhos = _stack_radii(center, params)
    pending, out = {}, None
    for i, rho in enumerate(rhos):
        pending.setdefault(tuple(map(_start_nodes, rho)), []).append(i)
    while pending:
        M = min(pending)
        idx = pending.pop(M)
        whole = len(idx) == R
        sums = _circle_sums(f, center if whole else center[:, idx], radii if whole else radii[:, idx], M)
        nodes = math.prod(M)
        value, half, mean = sums[0] / nodes, sums[1] / (nodes // 2**ell), sums[2] / nodes
        excess = abs(value - half) - _RESIDUE_TOL * mean
        settled = (excess <= 0).reshape(-1, len(idx)).all(axis=0)
        if whole and settled.all():
            return value  # every point settled in this one group
        if out is None:
            out = np.empty(value.shape[:-1] + (R,), dtype=np.complex128)
        out[..., np.array(idx)[settled]] = value[..., settled]
        for j in np.flatnonzero(~settled):
            if min(M) < ResiduePlan.points:
                pending.setdefault(tuple(min(2 * m, ResiduePlan.points) for m in M), []).append(idx[j])
                continue
            k = np.argmax(excess[..., j])
            est, avg = np.ravel(excess[..., j] + _RESIDUE_TOL * mean[..., j])[k], np.ravel(mean[..., j])[k]
            raise ConvergenceError(
                f"residue at {tuple(map(complex, center[:, idx[j]]))} not settled at {M} nodes per axis: "
                f"estimate {est:.3g}, mean |summand| {avg:.3g}"
            )
    return out


def _start_nodes(rho):
    """The smallest power of two M with rho^(M/2) <= _RESIDUE_TOL, at most the cap."""
    M = 2
    while rho ** (M // 2) > _RESIDUE_TOL and M < ResiduePlan.points:
        M *= 2
    return M


def _as_value(value):
    return complex(value) if np.ndim(value) == 0 else value


def _shell_residues(f, params, side, shell):
    """Nested residues of f at the special points of one Jackson shell: x<(m, s)>
    (side "x") or y>(m, -s) (side "y") for every m and every s >= 0 with
    |s|_1 = shell, one stacked multi_residue call per m.  At ell = 0 shell 0
    is the empty point and later shells are empty."""
    ell = params.ell
    if ell == 0:
        if shell == 0:
            yield multi_residue(f, (), params=params)
        return
    shifts = [s if side == "x" else tuple(-v for v in s) for s in combin.index_vectors(ell, shell)]
    for mvec in combin.index_vectors(params.n, ell):
        points = np.array([weightfn.special_point(mvec, params, side, sh) for sh in shifts])
        yield from np.moveaxis(multi_residue(f, points.T, params=params), -1, 0)


def special_residue_sum(f, params, side):
    """Sum of the nested residues of f at every special point x<m (side "x")
    or y>m (side "y", with the (-1)^ell sign): shell 0 of the Jackson walk."""
    total = 0.0 + 0j
    for r in _shell_residues(f, params, side, 0):
        total += r
    return total * (-1.0) ** params.ell if side == "y" else total


# ---------------------------------------------------------------------------
# lattice sums and Jackson sums


def _shell_sum(shell_terms, cutoff, tol):
    """Sum a lattice series shell by shell; shell_terms(s) yields the terms of
    shell s.  Terms with value axes are one series per entry, and every rule
    below holds per entry.

    Stops once two consecutive shells are below tol * |total|, from shell 3
    on; reaching shell `cutoff` first raises ConvergenceError.  The tail
    past the last shell is estimated as geometric with the ratio of the last
    two shells, and a tail above tol * |total| raises ConvergenceError too.
    Returns (total, {"shells", "last_shell", "tail_estimate", "ratio"}):
    `shells` is an int, the others have the value shape.
    """
    total = 0.0 + 0j
    sizes = []
    for shell in range(cutoff + 1):
        acc = 0 * total  # a zero of the value shape, so an empty shell has it too
        for term in shell_terms(shell):
            acc += term
        total += acc
        sizes.append(abs(acc))
        bound = tol * (abs(total) + 1e-300)  # 1e-300 keeps a zero total's bound positive
        below = shell >= 3 and (sizes[-1] < bound) & (sizes[-2] < bound)
        if np.all(below):
            break
    else:
        rel = np.max(sizes[-1] / bound) * tol
        raise ConvergenceError(f"lattice sum not settled after {cutoff + 1} shells: last shell {rel:.3g} of |total|")
    last = sizes[-1]
    prev = sizes[-2] if len(sizes) > 1 else last
    ratio = np.divide(last, prev, out=np.zeros_like(last), where=prev > 0)
    tail = np.divide(last * ratio, 1 - ratio, out=np.array(last, dtype=float), where=(0 < ratio) & (ratio < 1))
    if (tail > bound).any():
        rel = np.max(tail / bound) * tol
        raise ConvergenceError(f"lattice sum tail {rel:.3g} of |total| after {len(sizes)} shells above {tol:.3g}")
    return total, {"shells": len(sizes), "last_shell": last, "tail_estimate": tail[()], "ratio": ratio[()]}


def _product_field(a, b, c):
    """The field a(t) b(t) c(t), each factor a complex array, multiplied left to right."""
    as_array = lambda g, t: np.asarray(g(t), dtype=np.complex128)
    return lambda t: as_array(a, t) * as_array(b, t) * as_array(c, t)


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
    returned value.  Fields with value axes give a row or matrix of
    pairings on the same circles, with per-entry report fields.
    """
    ell = params.ell
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
    integrand = _product_field(_phase_tilde(params), wf, Wf)
    sign = 1.0 if side == "x" else (-1.0) ** ell
    total, report = _shell_sum(lambda shell: _shell_residues(integrand, params, side, shell), cutoff, _JACKSON_TOL)
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
                out *= th(arg) ** combin.d_count(n, m + 1, ell, s)
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
                    out *= th(arg) ** combin.d_count(n - 1, m, ell, s)
        else:
            for m in range(n - 1):
                out *= xi[m] ** ((n - 2 - m) * comb(n + ell - 2, n - 1))
            for s in range(1 - ell, ell):
                for m in range(n - 2):
                    arg = p * eta ** (s + 1 - ell)
                    for l in range(m + 1, n):
                        arg *= xi[l] ** 2
                    out *= th(arg) ** combin.d_count(n - 1, m + 1, ell, s)
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
    """(t_j/t_k)_inf / (x t_j/t_k)_inf, j != k, as two one-sided factors.
    The compiled Integrand pairs the one-sided ends of a term on one
    coordinate set, so these two share one ratio row, (t_j/t_k | x t_j/t_k),
    in the block of the pair {j, k}."""
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
            out *= th(arg) ** combin.d_count(n, m + 1, ell, s)
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


# Relative shell size at which the Askey and q-Selberg lattice sums stop, and
# the last shell of the general Askey and the q-Selberg sums.
_LATTICE_TOL = 1e-13
_ASCJ_GENERAL_CUTOFF = 40
_QSELBERG_CUTOFF = 80


def _lattice_pairs(x, p, ell):
    """(1 - r) (pr/x)_inf / (xr)_inf at r = u_k / u_j for the pairs j < k, as factors."""
    pairs = itertools.combinations(range(ell), 2)
    return [f for j, k in pairs for f in (Factor("linear", 1, a=k, b=j), Factor("qpoch", p / x, x, a=k, b=j))]


def askey_weight(a, b, alpha, beta, p, ell):
    """prod_k u_k (p u_k/a)_inf (p u_k/b)_inf / ((alpha u_k)_inf (beta u_k)_inf)
    on (T, ell) arrays of lattice points u, declared: the ascj_sum singles."""
    term = []
    for k in range(ell):
        term += [Factor("monomial", 1, a=k), Factor("qpoch", p / a, alpha, a=k), Factor("qpoch", p / b, beta, a=k)]
    return Integrand(p, [term])


def askey_general_weight(a, b, alpha, beta, x, p, ell):
    """The askey_weight singles times the pairs of _lattice_pairs, declared."""
    (singles,) = askey_weight(a, b, alpha, beta, p, ell).terms
    return Integrand(p, [singles + _lattice_pairs(x, p, ell)])


def qselberg_weight(alpha, x, p, ell):
    """prod_k (p t_k)_inf / (alpha t_k)_inf times the pairs of _lattice_pairs, declared."""
    return Integrand(p, [[Factor("qpoch", p, alpha, a=k) for k in range(ell)] + _lattice_pairs(x, p, ell)])


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
    singles = askey_weight(a, b, alpha, beta, p, ell)

    def v(s):
        return p**s * b if s >= 0 else p ** (-s - 1) * a

    exponents = {}  # delta with r = p^delta (None off the lattice) per ratio r, over all shells

    def exponent(r):
        # r = p^delta where the member of the lattice r p^Z nearest 1 is 1
        if r not in exponents:
            s, d = _nearest_p_power(1.0, r, p)
            exponents[r] = -s if d < 1e-9 else None
        return exponents[r]

    def pair_factors(us):
        j, k = np.triu_indices(ell, 1)
        r = us[:, k] / us[:, j]
        deltas = [exponent(rv) for rv in r.ravel().tolist()]
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
        term = term * singles(us) * pair_factors(us).prod(axis=1)
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
    weight = askey_general_weight(a, b, alpha, beta, x, p, ell)
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
        yield from (np.array(scales, dtype=np.complex128) * weight(np.array(rows, dtype=np.complex128))).tolist()

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
    weight = qselberg_weight(alpha, x, p, ell)

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
        yield from (np.array(scales, dtype=np.complex128) * weight(np.array(rows, dtype=np.complex128))).tolist()

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
    """Shapovalov pairing: sum over m of Res(Omega f1 f2) at x<m, per entry of value axes."""
    om = omega_elliptic(params) if flavor == "elliptic" else omega_trig(params)
    return special_residue_sum(_product_field(om, f1, f2), params, "x")
