"""Admissible parameter sampling.

Draws are rejected until the genericity margins hold and every pole family
keeps a safe modulus band around the quadrature torus, so the trapezoidal
rule converges at the advertised geometric rate.
"""

import math

import numpy as np

from .errors import DomainError, SamplingError
from .numkernel import ParameterSet, _nearest_p_power, check_sizes

BAND = 0.75  # pole moduli must stay outside [BAND, 1/BAND] around the torus
MARGIN = 0.05  # genericity margins of a draw
KAPPA_MARGIN = 0.02  # distance of kappa from its special-value lattices
ATTEMPTS = 1000  # draws tried before sampling gives up


def _band_ok(value, p):
    """No |p^s value|, s >= 0, inside the modulus band around 1.  The band is
    the interval of half-width (1/BAND - BAND) / 2 around its midpoint, so a
    member lies in it exactly when the member nearest the midpoint does."""
    s, _ = _nearest_p_power((BAND + 1.0 / BAND) / 2, abs(value), abs(p), 0)
    return not BAND < abs(value) * abs(p) ** s < 1.0 / BAND


def quadrature_band_ok(params):
    p, r = params.p, abs(params.eta)
    values = [v for xi, z in zip(params.xi, params.z) for v in (xi * z, z / xi / p)]
    return all(_band_ok(v, p) for v in values + [1.0 / r, r * abs(p)])


def kappa_margins_ok(params):
    """Distance of kappa from the two special-value lattices and of the
    Wbasis resonance products from p^s eta^r, at least KAPPA_MARGIN.  The
    special values are eta^-r prod(xi) p^s and eta^r prod(xi)^-1 p^-(s+1),
    s >= 0; on each only the member nearest kappa can be that close."""
    p, eta, kappa, ell, delta = params.p, params.eta, params.kappa, params.ell, KAPPA_MARGIN
    for r in range(max(ell, 1)):
        base_p = eta**-r * params.xi_prod
        base_m = eta**r / params.xi_prod
        s, _ = _nearest_p_power(kappa, base_p, p, 0)
        t, _ = _nearest_p_power(1.0, kappa * p / base_m, p, 0)
        if abs(kappa / (p**s * base_p) - 1) < delta or abs(kappa * p ** (t + 1) / base_m - 1) < delta:
            return False
    for m in range(params.n - 1):
        prod = kappa
        for i in range(params.n):
            prod = prod * params.xi[i] if i <= m else prod / params.xi[i]
        if any(_nearest_p_power(1.0, prod * eta**-r, p)[1] < delta for r in range(1 - ell, ell)):
            return False
    return True


def sample_params(seed, n, ell, regime="convergent"):
    """Deterministic admissible draw.

    regimes:
      convergent       |z| = 1, |p| in [0.08, 0.22], |eta| in [1.6, 2.6],
                       |xi| in [0.3, 0.48], kappa order one
      solution         as convergent with kappa small enough for the x-side
                       Jackson representation
      jackson_overlap  tiny |p| so both Jackson representations converge
                       together with the straight torus
      asymptotic       small kappa for the zone checks
      small_xi         |xi| < |p| (annulus argument for the derivative tests)

    An unknown regime, or n and ell that no ParameterSet takes, raise
    ValueError before any draw.
    """
    check_sizes(n, ell)
    regimes = ("convergent", "solution", "asymptotic", "jackson_overlap", "small_xi")
    if regime not in regimes:
        raise ValueError(f"unknown regime {regime!r}; choose from {regimes}")
    rng = np.random.default_rng(seed)
    for _ in range(ATTEMPTS):
        if regime in ("convergent", "solution", "asymptotic"):
            pmod = rng.uniform(0.08, 0.22)
            emod = rng.uniform(1.6, 2.6)
            xmod = [rng.uniform(0.3, 0.48) for _ in range(n)]
        elif regime == "jackson_overlap":
            emod = rng.uniform(1.35, 1.5)
            xmod = [rng.uniform(0.42, 0.5) for _ in range(n)]
            pmax = emod ** (2 - 2 * ell) * float(np.prod(xmod)) ** 2
            pmod = 0.05 * pmax
        else:  # small_xi
            pmod = rng.uniform(0.25, 0.35)
            emod = rng.uniform(1.9, 2.6)
            xmod = [rng.uniform(0.3, 0.45) * pmod for _ in range(n)]
        p = pmod * np.exp(1j * rng.uniform(0, 2 * np.pi))
        eta = emod * np.exp(1j * rng.uniform(-0.35, 0.35))
        xi = tuple(xm * np.exp(1j * rng.uniform(0, 2 * np.pi)) for xm in xmod)
        phases = np.sort(rng.uniform(0, 2 * np.pi, n))
        if n > 1:
            gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
            if gaps.min() < 2 * np.pi / (4 * n):
                continue
        z = tuple(np.exp(1j * ph) for ph in phases)
        xiprod = float(np.prod(np.abs(xi)))
        if regime == "jackson_overlap":
            lo = max(1.0, emod ** (ell - 1)) / xiprod
            hi = min(1.0, emod ** (1 - ell)) * xiprod / pmod
            kmod = math.sqrt(lo * hi)
        elif regime in ("solution",):
            kmod = 0.5 * xiprod / pmod * rng.uniform(0.4, 0.8)
            kmod = min(kmod, 2.0)
        elif regime == "asymptotic":
            kmod = rng.uniform(0.12, 0.25)
        else:
            kmod = rng.uniform(0.6, 1.2)
        kappa = kmod * np.exp(1j * rng.uniform(0, 2 * np.pi))
        try:
            prm = ParameterSet(p=p, eta=eta, kappa=kappa, xi=xi, z=z, n=n, ell=ell)
        except DomainError:
            continue
        marg = prm.margins()
        if min(marg.values()) < MARGIN:
            continue
        if not kappa_margins_ok(prm):
            continue
        if regime != "small_xi" and not quadrature_band_ok(prm):
            continue
        if regime == "solution" and abs(p * kappa / prm.xi_prod) >= 0.8:
            continue
        return prm
    raise SamplingError(f"no admissible draw after {ATTEMPTS} attempts (seed={seed})")
