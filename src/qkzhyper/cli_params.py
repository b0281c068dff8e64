"""Admissible parameter sampling.

Draws are rejected until the genericity margins hold and every pole family
keeps a safe modulus band around the quadrature torus, so the trapezoidal
rule converges at the advertised geometric rate.
"""

import math

import numpy as np

from .errors import DomainError, SamplingError
from .numkernel import ParameterSet, _dist_to_p_powers

BAND = 0.75  # pole moduli must stay outside [BAND, 1/BAND] around the torus
BAND_SMAX = 60  # p-shells of a pole family checked against the band
MARGIN = 0.05  # genericity margins of a draw
KAPPA_MARGIN = 0.02  # distance of kappa from its special-value lattices
KAPPA_SMAX = 40  # p-shells of those lattices
ATTEMPTS = 1000  # draws tried before sampling gives up


def _band_ok(value, p):
    """All |p^s value|, s < BAND_SMAX, outside the modulus band around 1."""
    v = abs(value)
    ap = abs(p)
    for _ in range(BAND_SMAX):
        if BAND < v < 1.0 / BAND:
            return False
        v *= ap
        if v < BAND * ap:
            break
    return True


def quadrature_band_ok(params):
    p = params.p
    for m in range(params.n):
        if not _band_ok(params.xi[m] * params.z[m], p):
            return False
        if not _band_ok(params.z[m] / params.xi[m] / p, p):
            return False
    r = abs(params.eta)
    return _band_ok(1.0 / r, p) and _band_ok(r * abs(p), p)


def kappa_margins_ok(params):
    """Distance of kappa from the two special-value lattices and of the
    Wbasis resonance products from p^s eta^r, at least KAPPA_MARGIN."""
    p, eta = params.p, params.eta
    ell = params.ell
    delta = KAPPA_MARGIN
    for r in range(max(ell, 1)):
        base_p = eta**-r * params.xi_prod
        base_m = eta**r / params.xi_prod
        for s in range(KAPPA_SMAX):
            if abs(params.kappa / (p**s * base_p) - 1) < delta:
                return False
            if abs(params.kappa * p ** (s + 1) / base_m - 1) < delta:
                return False
    for m in range(params.n - 1):
        prod = params.kappa
        for i in range(params.n):
            prod = prod * params.xi[i] if i <= m else prod / params.xi[i]
        for r in range(1 - ell, ell):
            if _dist_to_p_powers(prod * eta**-r, p) < delta:
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
    """
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
        elif regime == "small_xi":
            pmod = rng.uniform(0.25, 0.35)
            emod = rng.uniform(1.9, 2.6)
            xmod = [rng.uniform(0.3, 0.45) * pmod for _ in range(n)]
        else:
            raise ValueError(f"unknown regime {regime!r}")
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
