"""Complex special-function kernel.

Truncated q-Pochhammer products, the Jacobi theta function
theta(u) = (u;p)_inf (p/u;p)_inf (p;p)_inf, the short phase function of the
local system, and p-analogues of gamma/sine/power.  Everything is double
precision; truncation length is chosen adaptively from the closed-form tail
bound |u| |p|^N / (1-|p|) <= tail_tol.
"""

import cmath
import functools
import itertools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DegeneracyError, DomainError, PoleProximityError, ResonanceError
from .grid import ProductGrid, as_batch, as_points
from .kernels import qpoch_array, qpoch_ratio_array, theta_array


@dataclass(frozen=True)
class TruncationPolicy:
    max_terms: int = 200
    tail_tol: float = 1e-14

    def nterms(self, p, umax=1.0):
        """Number of product terms so the relative tail is below tail_tol.

        Raises ConvergenceError when that needs more than max_terms terms."""
        ap = abs(p)
        if ap >= 1.0:
            raise DomainError(f"|p| = {ap} >= 1")
        if ap == 0.0:
            return 1
        bound = self.tail_tol * (1.0 - ap) / max(float(umax), 1.0)
        n = int(math.ceil(math.log(bound) / _log_abs_p(ap))) + 1
        if n > self.max_terms:
            raise ConvergenceError(
                f"|p| = {ap:.6g}, max|u| = {float(umax):.3g} needs {n} product terms "
                f"for tail {self.tail_tol:g}; the cap is {self.max_terms}"
            )
        return max(1, n)


DEFAULT_POLICY = TruncationPolicy()
# Relative distance from a pole at which a node is refused: any single point
# of a declared integrand here, and a torus radius in integrate.
POLE_GUARD = 1e-8
# Distinct p kept by the per-p caches, (p;p)_inf of `pp_inf` and log|p| of
# `nterms` (so that each call takes one logarithm); one pass of a benchmark
# workload uses 4 to 15.
_PP_INF_CACHE = 256
_log_abs_p = functools.lru_cache(maxsize=_PP_INF_CACHE)(math.log)


def _nearest_p_power(x, v, p, lo=None):
    """(s, d): the member v p^s of the lattice v p^Z (of its part s >= lo if
    lo is given) nearest to x, and d = |x - v p^s|; x, v != 0 and 0 < |p| < 1.

    The walk starts at s* = round(log|x / v| / log|p|) and goes outward and
    inward.  Past s* the moduli |v p^s| move away from |x| on either side, so
    their distance from |x|, a lower bound of every further distance, grows:
    a side stops once it reaches the best distance so far.  The inward side
    also stops at the first member too small to change |x| in floating point.
    s* +- 1 alone can miss the nearest: at p = -0.3 the member p^2 v is
    0.91 |v| from v, while p v and v / p are 1.3 |v| and 4.33 |v| away."""
    ax, ap = abs(x), abs(p)
    s = round(math.log(ax / abs(v)) / _log_abs_p(ap))
    if lo is not None and s < lo:
        s = lo
    w = v * p**s
    best_s, best = s, abs(x - w)
    for dk, q in ((-1, 1 / p), (1, p)):  # outward, moduli above |x| and growing; then inward
        k, u = s, w
        while dk > 0 or lo is None or k > lo:
            k, u = k + dk, u * q
            m = abs(u)
            if abs(m - ax) >= best:
                break
            d = abs(x - u)
            if d < best:
                best_s, best = k, d
            if ax + m == ax:
                break
    return best_s, best


def _p_shells(x, p):
    """(j, ks): the p-shell k = round(log|x| / log|p|) of every element of
    x, k = 0 where |x| is 0 or not finite, as the index j = k - ks.start
    into ks = range(min k, max k + 1); None when every k is 0."""
    lx = np.abs(x)
    np.log(lx, out=lx, where=lx > 0)  # |x| = 0 stays 0, so k = 0 there
    lx *= 1 / _log_abs_p(abs(p))
    np.rint(lx, out=lx)
    lo, hi = lx.min(), lx.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lx[~np.isfinite(lx)] = 0
        lo, hi = lx.min(), lx.max()
    if lo == hi == 0:
        return None
    lx -= lo
    return lx.astype(np.intp), range(int(lo), int(hi) + 1)


def _powers(z, shells, sign=1):
    """z^(sign k) at every element of the p-shells (j, ks) of `_p_shells`,
    from the table of Python integer powers z^(sign n), n in ks (so p^-k is
    a correctly signed power of p, not a power of a rounded 1 / p)."""
    j, ks = shells
    return np.take(np.array([z ** (sign * n) for n in ks]), j)


def _umax(u):
    if isinstance(u, (int, float, complex)):
        return abs(u)
    a = np.abs(np.asarray(u))
    return float(a.max()) if a.size else 1.0


def qpoch(u, p):
    """(u; p)_infinity, truncated per DEFAULT_POLICY.  Accepts scalars or arrays."""
    if abs(p) >= 1.0:
        raise DomainError(f"|p| = {abs(p)} >= 1")
    n = DEFAULT_POLICY.nterms(p, _umax(u))
    out = qpoch_array(np.asarray(u, dtype=np.complex128), p, n)
    if np.isscalar(u) or np.ndim(u) == 0:
        return complex(out)
    return out


def pp_inf(p):
    """(p; p)_infinity, cached per complex p: every product truncates with
    the one DEFAULT_POLICY, so p alone fixes the value."""
    return _pp_inf(complex(p))


@functools.lru_cache(maxsize=_PP_INF_CACHE)
def _pp_inf(p):
    return complex(qpoch(p, p))


def theta(u, p):
    """Jacobi theta function theta(u) = (u)_inf (p/u)_inf (p)_inf."""
    ap = abs(p)
    if ap >= 1.0:
        raise DomainError(f"|p| = {ap} >= 1")
    if isinstance(u, (int, float, complex)):
        umin = umax = abs(u)
    else:
        au = np.abs(np.asarray(u))
        umin, umax = (float(au.min()), float(au.max())) if au.size else (1.0, 1.0)
    if umin == 0:
        raise DomainError("theta(0) is an essential singularity")
    # the factors of p/u reach |p| / min|u|
    n = DEFAULT_POLICY.nterms(p, max(umax, ap / umin))
    out = theta_array(u, p, n, pp_inf(p))
    if np.isscalar(u) or np.ndim(u) == 0:
        return complex(out)
    return out


def theta_prime_one(p):
    """d theta / du at u = 1, equal to -((p;p)_inf)^3."""
    return -pp_inf(p) ** 3


def qpoch_ratio(a, b, p):
    """(a;p)_inf / (b;p)_inf with termwise pairing; stays finite for huge
    arguments of comparable size (the single products may overflow)."""
    if abs(p) >= 1.0:
        raise DomainError(f"|p| = {abs(p)} >= 1")
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    n = DEFAULT_POLICY.nterms(p, max(_umax(aa), _umax(bb)))
    out = qpoch_ratio_array(aa, bb, p, n)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return complex(out)
    return out


def theta_ratio(a, b, p):
    """theta(a) / theta(b), overflow-safe through paired Pochhammer ratios."""
    return qpoch_ratio(a, b, p) * qpoch_ratio(
        p / np.asarray(a, dtype=np.complex128), p / np.asarray(b, dtype=np.complex128), p
    )


# ---------------------------------------------------------------------------
# declared integrands

DECL_CACHE = 256  # declarations kept by each cache of a declaring function
# kind(num x) / kind(den x), x = t_a / t_b (t_a if b is None, 1 / t_b if a is None),
# a None side dropped; kind "qpoch", "theta", "linear" (1 - u) or "monomial" (u).
Factor = namedtuple("Factor", "kind num den a b", defaults=(None, None, None, None))


def _arg(c, f, ts):
    if f.b is None:
        return c * ts[..., f.a]
    return c / ts[..., f.b] if f.a is None else c * ts[..., f.a] / ts[..., f.b]


def _side(f, c, ts):
    """kind(c x) on the points ts, kind "linear" or "monomial"."""
    if f.kind == "monomial":
        return _arg(c, f, ts)
    # 1 - c x as a coordinate difference keeps full relative accuracy at its zero
    if f.b is None:
        return c * (1 / c - ts[..., f.a])
    return (ts[..., f.b] - (c if f.a is None else c * ts[..., f.a])) / ts[..., f.b]


def _value(f, ts):
    """A linear or monomial factor on the points ts, a new array."""
    if f.den is None:
        return _side(f, f.num, ts)
    v = np.reciprocal(_side(f, f.den, ts))
    return v if f.num is None else np.multiply(v, _side(f, f.num, ts), out=v)


def _coords(f):
    """(key, s): the factor's coordinate set, (a,) or (a, b) with a < b, and
    the power s = +-1 with which the set's coordinate, t_a or t_a / t_b,
    gives the factor's x."""
    if f.b is None:
        return (f.a,), 1
    if f.a is None:
        return (f.b,), -1
    return ((f.a, f.b), 1) if f.a < f.b else ((f.b, f.a), -1)


def _term_value(parts, const, shape):
    """const times the product of a term's parts (fresh arrays, one per
    coordinate set, each broadcasting to `shape`) as one array of that shape.
    A part multiplies in place into a larger one whose shape covers its own,
    so on a product grid an axis row meets the pair grid holding its axis,
    and only what is left meets the full grid, once per pair grid."""
    roots = []
    for v in sorted(parts, key=lambda v: v.size, reverse=True):
        host = next((r for r in roots if all(b in (1, a) for a, b in zip(r.shape, v.shape))), None)
        if host is None:
            roots.append(v)
        else:
            host *= v
    if not roots:
        return np.full(shape, const, dtype=np.complex128)
    if const != 1:
        roots[-1] *= const
    if len(roots) == 1 and roots[0].shape == shape:
        return roots[0]
    out = np.multiply(roots[0], roots[1] if len(roots) > 1 else 1.0, out=np.empty(shape, dtype=np.complex128))
    for v in roots[2:]:
        out *= v
    return out


class Integrand:
    """const * sum over terms of the product of the term's factors, on one
    point (ell,), a batch (..., ell) or a grid.ProductGrid.  Exact inverses
    in a term cancel when it is declared.  A single point with a denominator
    within POLE_GUARD of a zero is refused.

    The q-Pochhammer and theta factors are compiled once, here, into one
    block of paired-ratio rows (num u | den u), each row the factor
    (num u; p)_inf / (den u; p)_inf, per coordinate set: an axis a, with
    u = c t_a^(+-1), or a pair a < b, with u = c (t_a / t_b)^(+-1).  A
    two-sided qpoch factor is one row, a two-sided theta two (its
    (p/u; p)_inf ends the second).  The one-sided ends of one term and set
    pair numerator with denominator into rows in declaration order, a
    leftover end against (0; p)_inf = 1, and the (p; p)_inf of a one-sided
    theta goes into the term's constant.  A call makes one `qpoch_ratio`
    call per block, so one `nterms` per block, from max|u| over its rows;
    then the rows of each term multiply within their block, with the term's
    linear and monomial factors on that set, and the term is formed by
    `_term_value`.  A block whose rows all come from two-sided theta
    factors is reduced by quasi-periodicity, theta(a p^k y) / theta(b p^k y)
    = (b / a)^k theta(a y) / theta(b y): its rows are evaluated at
    y = x p^-k, k = round(log|x| / log|p|), so |p|^(1/2) <= |y| <= |p|^(-1/2)
    on every p-shell and the block's `nterms` does not grow with the shell,
    and each term's product of its rows there is multiplied by C^k, with
    C = prod (den / num)^s over the term's theta factors in the block (s the
    orientation of each).  A block with a q-Pochhammer or a one-sided theta
    row is evaluated at x.  On a staggered torus grid a pair block is
    evaluated on the M values of its ratio, and each term's product of its
    rows is gathered onto the pair grid once; linear and monomial factors
    are always evaluated on the points themselves."""

    def __init__(self, p, terms, const=1.0):
        self.p, self.const, self.terms = p, const, []
        for term in terms:
            kept = []
            for f in term:
                inv = f._replace(num=f.den, den=f.num)
                if inv in kept:
                    kept.remove(inv)
                else:
                    kept.append(f)
            self.terms.append(kept)
        self._compile()

    def _compile(self):
        p, blocks, self._plan = self.p, {}, []
        plain = set()  # the blocks with a row not from a two-sided theta factor
        for term in self.terms:
            const, rows, ends, other, shift = self.const, {}, {}, {}, {}
            for f in term:
                key, s = _coords(f)
                if f.kind not in ("qpoch", "theta"):
                    other.setdefault(key, []).append(f)
                    continue
                split = (lambda c: [(c, s), (p / c, -s)]) if f.kind == "theta" else (lambda c: [(c, s)])
                if f.num is not None and f.den is not None:
                    rows.setdefault(key, []).extend(zip(split(f.num), split(f.den)))
                    if f.kind == "theta":
                        shift[key] = shift.get(key, 1) * (f.den / f.num) ** s
                    else:
                        plain.add(key)
                    continue
                plain.add(key)
                side = f.den is not None
                ends.setdefault(key, ([], []))[side].extend(split(f.den if side else f.num))
                if f.kind == "theta":
                    const = const / pp_inf(p) if side else const * pp_inf(p)
            for key, (nums, dens) in ends.items():
                rows.setdefault(key, []).extend(itertools.zip_longest(nums, dens, fillvalue=(0.0, 1)))
            spans = {}
            for key in {**rows, **other}:
                block = blocks.setdefault(key, [])
                start = len(block)
                block.extend(rows.get(key, ()))
                spans[key] = (start, len(block), other.get(key, ()), shift.get(key, 1))
            self._plan.append((const, spans))
        # per block: the 2R coefficients c of the ends (numerators, then
        # denominators), each u = c x, the indices of the ends whose u is
        # c / x instead, with their coefficients, and whether it is reduced
        self._blocks = {}
        for key, block in blocks.items():
            if block:
                c, s = zip(*[end for side in (0, 1) for end in (row[side] for row in block)])
                flip = np.flatnonzero(np.array(s) < 0)
                c = np.array(c, dtype=np.complex128)
                self._blocks[key] = (c, flip, c[flip], key not in plain)

    def _rows(self, key, ts):
        """(rows, idx, k): the ratio rows of one block on the points ts, from
        one kernel call, the indices that gather a row onto the grid (None
        when the rows are on it), and the p-shells k of the rows' points
        (`_p_shells`; None when the rows are at x itself).  A pair block on a
        staggered torus is evaluated on the M values of its ratio
        (`ProductGrid.pair`).  A reduced block is evaluated at y = x p^-k,
        p^-k taken from a table of integer powers; when every k is 0 (|x|
        near 1, every torus node) x is left as it is, so those rows keep
        their bits."""
        c, flip, c_flip, reduced = self._blocks[key]
        if len(key) == 1:
            x, idx = ts[..., key[0]], None
        elif isinstance(ts, ProductGrid):
            x, idx = ts.pair(*key)
        else:
            x, idx = ts[..., key[0]] / ts[..., key[1]], None
        k = _p_shells(x, self.p) if reduced else None
        if k is not None:
            y = _powers(complex(self.p), k, -1)
            x = np.multiply(x, y, out=y)
        u = np.multiply.outer(c, x)
        if flip.size:
            u[flip] = np.divide.outer(c_flip, x)
        del x  # a pair grid's x need not stay alive beside the 2R ends and R rows of the call
        R = len(c) // 2
        return qpoch_ratio(u[:R], u[R:], self.p), idx, k

    def __call__(self, t):
        ts, single = as_batch(t)
        if single:
            self._guard(ts)
        rows = {key: self._rows(key, ts) for key in self._blocks}
        acc = None
        for const, spans in self._plan:
            parts = []
            for key, (s, e, other, shift) in spans.items():
                v = None
                if s < e:
                    r, idx, k = rows[key]
                    v = r[s] if e - s == 1 else r[s:e].prod(axis=0)
                    if k is not None and shift != 1:
                        v *= _powers(shift, k)  # a reduced term has two rows per theta, so v is its own
                    if idx is not None:
                        v = np.take(v, idx)  # one gather per term and block, after the product
                for f in other:
                    w = _value(f, ts)
                    v = w if v is None else np.multiply(v, w, out=v)
                parts.append(v)
            term = _term_value(parts, const, ts.shape[:-1])
            acc = term if acc is None else np.add(acc, term, out=acc)
        return complex(acc[0]) if single else acc

    def _guard(self, ts):
        # 1 - u vanishes at u = 1, (u; p)_inf on the lattice p^-k (k >= 0), theta(u) also where (p/u; p)_inf does
        for f in (f for term in self.terms for f in term if f.den is not None and f.kind != "monomial"):
            u = complex(_arg(f.den, f, ts)[0])
            if f.kind == "linear":
                near = abs(1 - u) < POLE_GUARD
            else:
                us = [u, self.p / u] if f.kind == "theta" and u else [u]
                near = any(_nearest_p_power(1.0, v, self.p, 0)[1] < POLE_GUARD for v in us if v)
            if near:
                raise PoleProximityError(f"point {ts[0]} within {POLE_GUARD} of a pole of the integrand")


def pole_families(integrands, p):
    """(origin, axis, pair): whether a 1/t factor puts a pole at t = 0; the
    points t_a, and the multipliers m of t_a = m t_b (both orientations), at
    which a denominator vanishes, one per p-lattice.  A pair ratio with both
    sides on one lattice (eta in p^Z) stacks pair divisors: DegeneracyError."""
    same = lambda v, w: _nearest_p_power(1.0, v / w, p)[1] < 1e-9
    add = lambda fams, *vs: fams.extend(v for v in vs if not any(same(v, w) for w in fams))
    origin, axis, pair = False, [], []
    for f in (f for F in integrands for term in F.terms for f in term if f.den is not None):
        if f.kind == "monomial":
            origin = True
        elif f.a is None or f.b is None:
            add(axis, 1 / f.den if f.b is None else f.den)
        elif f.num is not None and same(f.num, f.den):
            raise DegeneracyError(f"{f} has coinciding numerator and denominator divisors")
        else:
            add(pair, 1 / f.den, f.den)
    return origin, axis, pair


@functools.lru_cache(maxsize=DECL_CACHE)
def phase_declaration(params, ell):
    term = [Factor("qpoch", 1 / (xi * z), xi / z, a) for xi, z in zip(params.xi, params.z) for a in range(ell)]
    term += [Factor("qpoch", params.eta, 1 / params.eta, a, b) for a in range(ell) for b in range(a + 1, ell)]
    return Integrand(params.p, [term])


def phase_phi(t, params):
    """Short phase function Phi(t, z).

    Phi = prod_{m,a} (xi_m^-1 t_a/z_m)_inf / (xi_m t_a/z_m)_inf
        * prod_{a<b} (eta t_a/t_b)_inf / (eta^-1 t_a/t_b)_inf, declared.
    """
    return phase_declaration(params, as_points(t).shape[-1])(t)


def p_gamma_sin(x, p, kind, extra=None):
    """p-analogues: Gamma_p(x), sin_p(pi x), or the power (1-u)_p^{2x}.

    kind="gamma":  (1-p)^(1-x) (p)_inf / (p^x)_inf
    kind="sin":    pi theta(p^x) / ((1-p) (p)_inf^3)
    kind="power":  (p^-x u)_inf / (p^x u)_inf with u = extra
    """
    if abs(p) >= 1.0 or p == 0:
        raise DomainError("p-analogues need 0 < |p| < 1")
    lp = cmath.log(p)
    if kind == "gamma":
        px = cmath.exp(x * lp)
        den = qpoch(px, p)
        if abs(den) < 1e-280:
            raise PoleProximityError("Gamma_p pole: (p^x)_inf vanishes")
        return cmath.exp((1 - x) * cmath.log(1 - p)) * pp_inf(p) / den
    if kind == "sin":
        return math.pi * theta(cmath.exp(x * lp), p) / ((1 - p) * pp_inf(p) ** 3)
    if kind == "power":
        if extra is None:
            raise ValueError("kind='power' needs extra=u")
        u = extra
        den = qpoch(cmath.exp(x * lp) * u, p)
        if abs(den) < 1e-280:
            raise PoleProximityError("(1-u)_p^{2x} pole")
        return qpoch(cmath.exp(-x * lp) * u, p) / den
    raise ValueError(f"unknown kind {kind!r}")


def p_power_bracket(u, x, p):
    """Theta-quotient power [-u]_p^{2x} = theta(p^-x u) / theta(p^x u)."""
    lp = cmath.log(p)
    return theta(cmath.exp(-x * lp) * u, p) / theta(cmath.exp(x * lp) * u, p)


# ---------------------------------------------------------------------------
# parameters of the local system


def check_sizes(n, ell):
    """Raise ValueError unless n >= 1 and ell >= 0 are integers."""
    if not (isinstance(n, numbers.Integral) and isinstance(ell, numbers.Integral) and n >= 1 and ell >= 0):
        raise ValueError(f"need integers n >= 1 and ell >= 0, got n={n!r}, ell={ell!r}")


@dataclass(frozen=True)
class ParameterSet:
    """Parameters (p, eta, kappa, xi_1..xi_n, z_1..z_n) of the local system
    on the fiber with ell integration variables.

    Dictionary: q^2 = eta, xi_m = eta^{Lambda_m} with principal logarithms.
    """

    p: complex
    eta: complex
    kappa: complex
    xi: tuple
    z: tuple
    n: int
    ell: int

    def __post_init__(self):
        check_sizes(self.n, self.ell)
        if len(self.xi) != self.n or len(self.z) != self.n:
            raise ValueError("xi and z must have length n")
        if abs(self.p) >= 1.0:
            raise DomainError("need |p| < 1")
        for v in (self.p, self.eta, self.kappa, *self.xi, *self.z):
            if v == 0:
                raise DomainError("all parameters must be nonzero")

    @property
    def q(self):
        return cmath.exp(0.5 * cmath.log(self.eta))

    @property
    def Lambda(self):
        le = cmath.log(self.eta)
        return tuple(cmath.log(x) / le for x in self.xi)

    def q_pow(self, expo):
        """q^expo for complex expo, consistent with the principal branch."""
        return cmath.exp(0.5 * expo * cmath.log(self.eta))

    @property
    def xi_prod(self):
        out = 1.0 + 0j
        for x in self.xi:
            out *= x
        return out

    def kappa_special(self, sign):
        """The two special scaling parameters: +1 -> eta^(1-ell) prod(xi),
        -1 -> p^-1 eta^(ell-1) prod(xi)^-1."""
        if sign == +1:
            return self.eta ** (1 - self.ell) * self.xi_prod
        if sign == -1:
            return self.eta ** (self.ell - 1) / (self.p * self.xi_prod)
        raise ValueError("sign must be +1 or -1")

    def permuted(self, tau):
        """Permute the module data (xi_m, z_m) -> (xi_tau_m, z_tau_m)."""
        return replace(
            self,
            xi=tuple(self.xi[i] for i in tau),
            z=tuple(self.z[i] for i in tau),
        )

    def with_xi_permuted(self, tau):
        return replace(self, xi=tuple(self.xi[i] for i in tau))

    def with_z(self, z):
        return replace(self, z=tuple(complex(v) for v in z))

    def with_kappa(self, kappa):
        return replace(self, kappa=complex(kappa))

    def with_ell(self, ell):
        return replace(self, ell=int(ell))

    def shift_z(self, m):
        z = list(self.z)
        z[m] = self.p * z[m]
        return replace(self, z=tuple(z))

    # -- genericity margins -------------------------------------------------

    def margins(self):
        """Smallest multiplicative distances of the three resonance families
        (npZ), (Lass), (assum) from the forbidden set p^s eta^r, s in Z: the
        distance of v is |v / p^s - 1|, where v p^-s is the member of v p^Z nearest 1."""

        def dist(v):
            s, _ = _nearest_p_power(1.0, complex(v), complex(self.p))
            return abs(v / self.p**-s - 1.0)

        rs = range(1 - self.ell, self.ell) if self.ell > 0 else range(0, 1)
        family = lambda vals: min((dist(v * self.eta**-r) for v in vals for r in rs), default=math.inf)
        assum = [
            self.xi[l] ** sl * self.xi[m] ** sm * (self.z[l] / self.z[m])
            for l in range(self.n)
            for m in range(self.n)
            if l != m
            for sl in (1, -1)
            for sm in (1, -1)
        ]
        return {
            "npZ": min(dist(self.eta**r) for r in range(1, max(self.ell, 1) + 1)),
            "Lass": family([x * x for x in self.xi]),
            "assum": family(assum),
        }


def assert_admissible(params, delta=0.05):
    m = params.margins()
    bad = [k for k, v in m.items() if v < delta]
    if bad:
        raise ResonanceError(f"margins below {delta}: " + ", ".join(f"{k}={m[k]:.3g}" for k in bad))
    return m
