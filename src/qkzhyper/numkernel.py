"""Complex special-function kernel.

Truncated q-Pochhammer products, the Jacobi theta function
theta(u) = (u;p)_inf (p/u;p)_inf (p;p)_inf, the short phase function of the
local system, and p-analogues of gamma/sine/power.  Everything is double
precision; truncation length is chosen adaptively from the closed-form tail
bound |u| |p|^N / (1-|p|) <= tail_tol.
"""

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DegeneracyError, DomainError, PoleProximityError, ResonanceError
from .grid import as_points
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


def _side(f, c, ts, p):
    """kind(c x) on the points ts."""
    if f.kind == "linear":
        # 1 - c x as a coordinate difference keeps full relative accuracy at its zero
        if f.b is None:
            return c * (1 / c - ts[..., f.a])
        return (ts[..., f.b] - (c if f.a is None else c * ts[..., f.a])) / ts[..., f.b]
    u = _arg(c, f, ts)
    return u if f.kind == "monomial" else qpoch(u, p) if f.kind == "qpoch" else theta(u, p)


def _value(f, ts, p):
    """The factor on the points ts, a new array."""
    if f.num is not None and f.den is not None and f.kind in ("qpoch", "theta"):
        # one termwise-paired kernel call, overflow-safe on far shells
        return (qpoch_ratio if f.kind == "qpoch" else theta_ratio)(_arg(f.num, f, ts), _arg(f.den, f, ts), p)
    if f.den is None:
        return _side(f, f.num, ts, p)
    v = np.reciprocal(_side(f, f.den, ts, p))
    return v if f.num is None else np.multiply(v, _side(f, f.num, ts, p), out=v)


class Integrand:
    """const * sum over terms of the product of the term's factors, on one
    point (ell,), a batch (..., ell) or a grid.ProductGrid, where the factors
    of each axis row (or pair of axes) multiply before they meet the grid.
    Exact inverses in a term cancel when it is declared.  A single point with
    a denominator within POLE_GUARD of a zero is refused."""

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

    def __call__(self, t):
        t = as_points(t)
        single = t.ndim == 1
        ts = t[None, :] if single else t
        if single:
            self._guard(ts)
        acc = None
        for term in self.terms:
            out = np.full(ts.shape[:-1], self.const, dtype=np.complex128)
            rows = {}  # one running product per set of coordinates
            for f in term:
                key, v = frozenset((f.a, f.b)), _value(f, ts, self.p)
                rows[key] = v if key not in rows else np.multiply(rows[key], v, out=v)
            for v in rows.values():
                out *= v
            acc = out if acc is None else np.add(acc, out, out=acc)
        return complex(acc[0]) if single else acc

    def _guard(self, ts):
        for f in (f for term in self.terms for f in term if f.den is not None and f.kind != "monomial"):
            u = complex(_arg(f.den, f, ts)[0])
            # (u;p)_inf vanishes at u = p^-k; theta also where (p/u;p)_inf does
            us = [u, self.p / u] if f.kind == "theta" and u else [u]
            n = 1 if f.kind == "linear" else DEFAULT_POLICY.nterms(self.p, max(map(abs, us)))
            if min(abs(1 - self.p**k * v) for k in range(n) for v in us) < POLE_GUARD:
                raise PoleProximityError(f"point {ts[0]} within {POLE_GUARD} of a pole of the integrand")


def pole_families(integrands, p):
    """(origin, axis, pair): whether a 1/t factor puts a pole at t = 0; the
    points t_a, and the multipliers m of t_a = m t_b (both orientations), at
    which a denominator vanishes, one per p-lattice.  A pair ratio with both
    sides on one lattice (eta in p^Z) stacks pair divisors: DegeneracyError."""
    same = lambda v, w: _dist_to_p_powers(v / w, p) < 1e-9
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
        (npZ), (Lass), (assum) from the forbidden set p^s eta^r, |s| <= _MARGIN_SMAX."""
        return {
            "npZ": self._margin_npZ(),
            "Lass": self._margin_family([x * x for x in self.xi]),
            "assum": self._margin_assum(),
        }

    def _margin_npZ(self):
        best = math.inf
        for r in range(1, max(self.ell, 1) + 1):
            v = self.eta**r
            best = min(best, _dist_to_p_powers(v, self.p))
        return best

    def _margin_family(self, values):
        best = math.inf
        rs = range(1 - self.ell, self.ell) if self.ell > 0 else range(0, 1)
        for v in values:
            for r in rs:
                best = min(best, _dist_to_p_powers(v * self.eta**-r, self.p))
        return best

    def _margin_assum(self):
        vals = []
        for l in range(self.n):
            for m in range(self.n):
                if l == m:
                    continue
                zr = self.z[l] / self.z[m]
                for sl in (1, -1):
                    for sm in (1, -1):
                        vals.append(self.xi[l] ** sl * self.xi[m] ** sm * zr)
        return self._margin_family(vals) if vals else math.inf


# p-shells |s| <= _MARGIN_SMAX searched by the genericity margins
_MARGIN_SMAX = 40


def _dist_to_p_powers(v, p):
    """min over s in [-_MARGIN_SMAX, _MARGIN_SMAX] of |v / p^s - 1|."""
    ap, av = abs(p), abs(v)
    best = math.inf
    # only |p|^s of comparable modulus can be close
    if av <= 0:
        return best
    s0 = round(math.log(av) / math.log(ap)) if ap not in (0.0,) else 0
    for s in range(max(-_MARGIN_SMAX, s0 - 2), min(_MARGIN_SMAX, s0 + 2) + 1):
        best = min(best, abs(v / p**s - 1.0))
    return best


def assert_admissible(params, delta=0.05):
    m = params.margins()
    bad = [k for k, v in m.items() if v < delta]
    if bad:
        raise ResonanceError(f"margins below {delta}: " + ", ".join(f"{k}={m[k]:.3g}" for k in bad))
    return m
