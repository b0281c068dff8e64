import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzhyper import combin, integrate, kernels, numkernel, weightfn
from qkzhyper.cli_params import sample_params
from qkzhyper.errors import ConvergenceError, DomainError, PoleProximityError, ResonanceError
from qkzhyper.grid import ProductGrid, as_batch
from qkzhyper.kernels import BACKEND, qpoch_array
from qkzhyper.numkernel import (
    DEFAULT_POLICY,
    POLE_GUARD,
    Factor,
    Integrand,
    ParameterSet,
    TruncationPolicy,
    assert_admissible,
    phase_phi,
    p_gamma_sin,
    p_power_bracket,
    phase_declaration,
    pp_inf,
    qpoch,
    qpoch_ratio,
    theta,
    theta_prime_one,
    theta_ratio,
)
from qkzhyper.weightfn import W_ell, subset_form, w_trig

P = ParameterSet(
    p=0.13 + 0.05j,
    eta=1.9 + 0.3j,
    kappa=0.7 + 0.2j,
    xi=(0.38 + 0.05j, 0.31 - 0.08j),
    z=(np.exp(0.4j), np.exp(2.1j)),
    n=2,
    ell=2,
)


def test_qpoch_trivial_cases():
    assert qpoch(0.0, 0.3 + 0.1j) == 1.0
    assert abs(qpoch(0.7 + 0.2j, 0.0) - (1 - (0.7 + 0.2j))) < 1e-15


def test_qpoch_functional_equation():
    u, p = 0.5, 0.1
    assert abs(qpoch(u, p) - (1 - u) * qpoch(p * u, p)) < 1e-13
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = rng.uniform(0, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = rng.uniform(0.01, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs = qpoch(u, p)
        rhs = (1 - u) * qpoch(p * u, p)
        assert abs(lhs - rhs) <= 10 * DEFAULT_POLICY.tail_tol * max(abs(lhs), 1.0)


def test_qpoch_rejects_bad_p():
    with pytest.raises(DomainError):
        qpoch(0.5, 1.2)


def test_theta_zero_and_degenerate():
    p = 0.2 + 0.05j
    assert theta(1.0, p) == 0.0
    assert abs(theta(0.7 + 0.1j, 0.0) - (1 - (0.7 + 0.1j))) < 1e-15
    with pytest.raises(DomainError):
        theta(0.0, p)


def test_theta_quasi_periodicity_and_inversion():
    u, p = 0.7 + 0.1j, 0.2
    assert abs(theta(p * u, p) + theta(u, p) / u) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.uniform(0.3, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = rng.uniform(0.02, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        t = theta(u, p)
        assert abs(theta(p * u, p) + t / u) <= 10 * DEFAULT_POLICY.tail_tol * abs(t / u)
        assert abs(theta(1 / u, p) + t / u) <= 10 * DEFAULT_POLICY.tail_tol * abs(t / u)


def test_theta_zero_lattice():
    p = 0.21 + 0.04j
    scale = abs(theta(-1.0, p))
    for k in range(-2, 3):
        assert abs(theta(p**k + 0j, p)) <= 100 * DEFAULT_POLICY.tail_tol * scale


def test_theta_prime_one():
    p = 0.0
    assert abs(theta_prime_one(0.1 * 0) - (-1.0)) < 1e-15
    p = 0.1
    fd = (theta(1 + 1e-6, p) - theta(1 - 1e-6, p)) / 2e-6
    assert abs(theta_prime_one(p) - fd) / abs(fd) < 1e-6
    assert abs(theta_prime_one(p) + qpoch(p, p) ** 3) < 1e-15


def test_ratio_kernels_match_plain():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.3, 2.0, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    b = rng.uniform(0.3, 2.0, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    p = 0.2 + 0.07j
    r = qpoch_ratio(a, b, p)
    ref = qpoch(a, p) / qpoch(b, p)
    assert np.max(np.abs(r - ref) / np.abs(ref)) < 1e-12
    tr = theta_ratio(a, b, p)
    tref = theta(a, p) / theta(b, p)
    assert np.max(np.abs(tr - tref) / np.abs(tref)) < 1e-12


def test_ratio_kernel_survives_huge_arguments():
    """Both kernel paths: one point takes the factor matrix, and an array
    whose work is above _SMALL_WORK takes the term loop.  The single
    products overflow; the paired ratios stay finite and accurate."""
    p = 0.01
    nterms = DEFAULT_POLICY.nterms(p, 2e80)
    rng = np.random.default_rng(5)
    for n in (1, kernels._SMALL_WORK // nterms + 1):
        a = 1e80 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        b = 2e80 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        r, tr = qpoch_ratio(a, b, p), theta_ratio(a, b, p)
        assert np.isfinite(r).all() and np.isfinite(tr).all()
        with mpmath.workdps(40):
            mp_p = mpmath.mpc(p)
            qp = lambda x: mpmath.qp(mpmath.mpc(x), mp_p)
            for i in rng.choice(n, size=min(n, 4), replace=False):
                ref = qp(a[i]) / qp(b[i])
                assert _rel(r[i], ref) < ORACLE_TOL
                assert _rel(tr[i], ref * qp(p / a[i]) / qp(p / b[i])) < ORACLE_TOL
    assert n * nterms > kernels._SMALL_WORK


def test_policy_determinism_and_cap():
    pol = TruncationPolicy(max_terms=200, tail_tol=1e-14)
    assert pol.nterms(0.3, 1.0) == pol.nterms(0.3, 1.0)
    with pytest.raises(ConvergenceError):
        pol.nterms(0.999, 1.0)
    u, p = 0.8 + 0.1j, 0.25 + 0.1j
    assert qpoch(u, p) == qpoch(u, p)


def test_phase_phi_empty_and_single():
    assert phase_phi(np.zeros(0), P.with_ell(0)) == 1.0
    P1 = ParameterSet(p=P.p, eta=P.eta, kappa=P.kappa, xi=(P.xi[0],), z=(P.z[0],), n=1, ell=1)
    t1 = 0.9 * np.exp(0.3j)
    val = phase_phi(np.array([t1]), P1)
    ref = qpoch(t1 / (P1.xi[0] * P1.z[0]), P1.p) / qpoch(P1.xi[0] * t1 / P1.z[0], P1.p)
    assert abs(val - ref) < 1e-13 * abs(ref)


def test_phase_phi_swap_symmetry():
    t = np.array([0.9 * np.exp(0.7j), 1.1 * np.exp(2.2j)])
    lhs = phase_phi(t[::-1].copy(), P)
    eta, p = P.eta, P.p
    rhs = (
        phase_phi(t, P)
        * (t[0] - eta * t[1])
        / (eta * t[0] - t[1])
        * eta
        * theta(t[0] / t[1] / eta, p)
        / theta(eta * t[0] / t[1], p)
    )
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


P1 = ParameterSet(p=0.2, eta=2.0, kappa=1.0, xi=(0.4,), z=(1.0,), n=1, ell=1)


@pytest.mark.parametrize(
    "f, poles",
    [
        # 1/(xi t / z; p)_inf of the phase function: xi t / z = 1, 1/p
        (lambda t: phase_phi(t, P1), (1.0 / 0.4, 1.0 / (0.4 * 0.2))),
        # 1/theta(t / (xi z)) of the subset W: t / (xi z) = p, p^-2
        (lambda t: W_ell((1,), t, P1, "subset"), (0.4 * 0.2, 0.4 / 0.2**2)),
        # 1/(1 - xi z / t) of the subset w: t = xi z
        (lambda t: w_trig((1,), t, P1, "subset"), (0.4,)),
    ],
    ids=["qpoch", "theta", "linear"],
)
def test_declared_integrand_pole_guard(f, poles):
    """A single point within POLE_GUARD of a denominator zero is refused, for
    each factor kind that has zeros."""
    for pole in poles:
        for rel in (0.0, 0.5 * POLE_GUARD, -0.9j * POLE_GUARD):
            with pytest.raises(PoleProximityError):
                f(np.array([pole * (1 + rel)]))
        assert np.isfinite(f(np.array([pole * (1 + 10 * POLE_GUARD)])))


def test_p_gamma_sin():
    assert abs(p_gamma_sin(1.0, 0.15, "gamma") - 1.0) < 1e-13
    x, p = 0.3, 0.15
    prod = p_gamma_sin(x, p, "sin") * p_gamma_sin(x, p, "gamma") * p_gamma_sin(1 - x, p, "gamma")
    assert abs(prod - np.pi) < 1e-12
    u, x, p = 0.4, 0.25, 0.1
    lhs = p_gamma_sin(x, p, "power", extra=u)
    rhs = p_power_bracket(u, x, p) * p_gamma_sin(x, p, "power", extra=p / u)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_nearest_p_power_matches_enumeration():
    # a centre on the member v of a lattice with p = -0.3: of the other members
    # p v and v / p are 1.3 |v| and 4.33 |v| away, but p^2 v only 0.91 |v|
    v = 0.7 * np.exp(0.4j)
    assert numkernel._nearest_p_power(v, v, -0.3) == (0, 0.0)
    s, d = numkernel._nearest_p_power(v, v, -0.3, 1)
    assert s == 2 and abs(d - 0.91 * abs(v)) < 1e-15
    # random points, lattices and nomes, two-sided and one-sided, complex and
    # real (moduli); at |p| <= 0.6 and |v / x| <= 1e4 every member past
    # s = 80 is within 2e-14 |x| of the origin, so |s| <= 80 decides each case
    # to the 1e-12 allowed
    rng = np.random.default_rng(22)
    logmod = lambda lo, hi: np.exp(rng.uniform(np.log(lo), np.log(hi)))
    for case in range(3000):
        p = logmod(0.02, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        x = logmod(0.01, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = logmod(0.01, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if case % 3 == 2:  # a lattice of moduli, as the band and torus checks use
            x, v, p = float(abs(x)), float(abs(v)), float(abs(p))
        else:
            x, v, p = complex(x), complex(v), complex(p)
        lo = None if case % 2 else int(rng.integers(-6, 7))
        s, d = numkernel._nearest_p_power(x, v, p, lo)
        ranked = sorted((abs(x - v * p**k), k) for k in range(-80 if lo is None else lo, 81))
        (want_d, want_s), (next_d, _) = ranked[:2]
        assert abs(d - want_d) <= 1e-12 * want_d, (x, v, p, lo)
        assert s == want_s or next_d - want_d <= 1e-12 * want_d, (x, v, p, lo)


def test_parameterset_dictionary_and_margins():
    assert abs(P.q**2 - P.eta) < 1e-14
    for m in range(P.n):
        assert abs(np.exp(P.Lambda[m] * np.log(P.eta)) - P.xi[m]) < 1e-13
    assert_admissible(P, delta=0.02)
    # xi_1^2 = eta exactly, hit by the r = 1 shell of the xi-genericity family
    bad = ParameterSet(
        p=0.2, eta=2.0, kappa=1.0, xi=(np.sqrt(2.0), 0.4), z=(1.0, -1.0), n=2, ell=2
    )
    with pytest.raises(ResonanceError):
        assert_admissible(bad)


def test_parameterset_validation():
    with pytest.raises(DomainError):
        ParameterSet(p=1.5, eta=2.0, kappa=1.0, xi=(0.4,), z=(1.0,), n=1, ell=1)
    with pytest.raises(DomainError):
        ParameterSet(p=0.2, eta=2.0, kappa=0.0, xi=(0.4,), z=(1.0,), n=1, ell=1)


def test_backend_flag_exposed():
    assert BACKEND == "numpy"
    out = qpoch_array(np.array([0.3 + 0j]), 0.2, 10)
    ref = np.prod([1 - 0.2**k * 0.3 for k in range(10)])
    assert abs(out[0] - ref) < 1e-14


# ---------------------------------------------------------------------------
# mpmath oracle: arbitrary precision, shares no code with the kernels

ORACLE_TOL = 1e-13


def _shell_points(rng, p, n):
    """n points on the p-shells |u| = |p|^(s + f), s in -3..2, with the
    fraction f in [0.15, 0.85] keeping |p^k u| a shell fraction away from the
    zeros p^k u = 1 of (u;p)_inf and (p/u;p)_inf."""
    ap = abs(p)
    s = rng.integers(-3, 3, n)
    f = rng.uniform(0.15, 0.85, n)
    return ap ** (s + f) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def _rel(x, ref):
    ref = complex(ref)
    return abs(complex(x) - ref) / abs(ref)


@pytest.mark.parametrize("size", [1, 64, "large"])
@settings(max_examples=6, deadline=None)
@given(
    ap=st.floats(0.02, 0.8),
    arg=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_mpmath_oracle(size, ap, arg, seed):
    p = ap * np.exp(1j * arg)
    # "large" puts even the smallest truncation above the factor-matrix bound
    n = kernels._SMALL_WORK // DEFAULT_POLICY.nterms(p) + 1 if size == "large" else size
    rng = np.random.default_rng(seed)
    u, a, b = (_shell_points(rng, p, n) for _ in range(3))
    q, t, r = qpoch(u, p), theta(u, p), qpoch_ratio(a, b, p)
    with mpmath.workdps(40):
        mp_p = mpmath.mpc(p)
        qp = lambda x: mpmath.qp(mpmath.mpc(x), mp_p)
        pp = qp(p)
        for i in rng.choice(n, size=min(n, 4), replace=False):
            qu = qp(u[i])
            assert _rel(q[i], qu) < ORACLE_TOL
            assert _rel(t[i], qu * qp(p / u[i]) * pp) < ORACLE_TOL
            assert _rel(r[i], qp(a[i]) / qp(b[i])) < ORACLE_TOL


@pytest.mark.parametrize("p", [0.2 * np.exp(0.7j), 0.55 * np.exp(-2.1j)], ids=["abs_p_0.2", "abs_p_0.55"])
def test_kernels_near_zeros_match_mpmath_oracle(p):
    """qpoch, theta and qpoch_ratio at u = p^-k (1 + delta), on the scalar
    path and inside a batch on the term loop.  Forming 1 - p^k u rounds
    p^k (k products) and p^k u (one more), so against |1 - p^k u| = |delta|
    the relative error is about (k + 2) eps / |delta|."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    filler = _shell_points(rng, p, kernels._SMALL_WORK // DEFAULT_POLICY.nterms(p, 10.0) + 1)
    for k in range(4):
        for delta in (1e-3, 1e-4, 1e-5, 1e-6, 10 * POLE_GUARD):
            u = p**-k * (1 + delta * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            b = _shell_points(rng, p, 1)[0]
            bound = (k + 2) * eps / delta + ORACLE_TOL
            batch = np.concatenate(([u], filler))
            with mpmath.workdps(40):
                mp_p = mpmath.mpc(p)
                qp = lambda x: mpmath.qp(mpmath.mpc(x), mp_p)
                qu = qp(u)
                want = {
                    "qpoch": (lambda v: qpoch(v, p), qu),
                    "theta": (lambda v: theta(v, p), qu * qp(p / u) * qp(p)),
                    "ratio-num": (lambda v: qpoch_ratio(v, b, p), qu / qp(b)),
                    "ratio-den": (lambda v: qpoch_ratio(b, v, p), qp(b) / qu),
                }
            for name, (fn, ref) in want.items():
                for got in (fn(u), fn(batch)[0]):
                    assert _rel(got, ref) < bound, (name, k, delta)


def _per_term_ratio(a, b, p, nterms):
    """Reference ratio loop: one division per term, the running product
    multiplied by (1 - p^k a) / (1 - p^k b) for each k < nterms."""
    out = np.ones(a.size, dtype=np.complex128)
    wa, wb = a.astype(np.complex128), b.astype(np.complex128)
    for _ in range(nterms):
        out *= (1.0 - wa) / (1.0 - wb)
        wa *= p
        wb *= p
    return out


def test_blocked_ratio_matches_per_term_division():
    """The term loop divides its two running products once per block of
    terms; against per-term division it moves only rounding.  The cases run
    the block length from nterms (max|u| = 1) down to one term (1e150)."""
    rng = np.random.default_rng(13)
    n = kernels._BLOCK + 7
    blocks = set()
    for ap, umax in ((0.01, 1e150), (0.01, 1e80), (0.2, 1e40), (0.2, 1e10), (0.8, 1e3), (0.5, 1.0)):
        p = ap * np.exp(0.7j)
        nterms = DEFAULT_POLICY.nterms(p, umax)
        assert n * nterms > kernels._SMALL_WORK
        a, b = (umax * rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)) for _ in range(2))
        a[0] = umax * np.exp(2.0j)
        k = kernels._terms_per_division((a, b), nterms)
        blocks.add(k if k < nterms else "nterms")
        got = kernels.qpoch_ratio_array(a, b, p, nterms)
        want = _per_term_ratio(a, b, p, nterms)
        assert np.isfinite(got).all(), (ap, umax)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, (ap, umax)
        if umax == 1e150:
            with mpmath.workdps(40):
                mp_p = mpmath.mpc(p)
                qp = lambda x: mpmath.qp(mpmath.mpc(x), mp_p)
                for i in (0, *rng.choice(n, size=3, replace=False)):
                    assert _rel(got[i], qp(a[i]) / qp(b[i])) < ORACLE_TOL
    assert {1, "nterms"} <= blocks


def test_nterms_takes_the_two_log_formula():
    pol = TruncationPolicy()
    for ap in (1e-3, 0.05, 0.2, 0.5, 0.75, 0.9):
        for arg in (0.0, 1.3, -2.9):
            for umax in (0.0, 0.5, 1.0, 7.3, 1e3, 1e8):
                bound = pol.tail_tol * (1.0 - ap) / max(umax, 1.0)
                want = max(1, int(math.ceil(math.log(bound) / math.log(ap))) + 1)
                if want > pol.max_terms:
                    with pytest.raises(ConvergenceError):
                        pol.nterms(ap * np.exp(1j * arg), umax)
                else:
                    assert pol.nterms(ap * np.exp(1j * arg), umax) == want


def test_array_and_scalar_paths_agree():
    """A multi-block array call against one scalar call per point."""
    p = 0.35 * np.exp(0.9j)
    n = 5000
    assert n > kernels._BLOCK and n * DEFAULT_POLICY.nterms(p) > kernels._SMALL_WORK
    rng = np.random.default_rng(7)
    u, a, b = (_shell_points(rng, p, n) for _ in range(3))
    for f, args in ((qpoch, (u,)), (theta, (u,)), (qpoch_ratio, (a, b))):
        arr = f(*args, p)
        one = np.array([f(*(x[i] for x in args), p) for i in range(n)])
        assert np.max(np.abs(arr - one) / np.abs(one)) < 1e-13, f.__name__


def test_truncation_cap_raises_at_large_p():
    # a 1e-14 tail at |p| = 0.9 needs 329 terms; cut at 200, qpoch is off by 5e-9
    p, u = 0.9 * np.exp(0.2j), 0.5 + 0.1j
    for call in (lambda: qpoch(u, p), lambda: theta(u, p), lambda: qpoch_ratio(u, 2 * u, p)):
        with pytest.raises(ConvergenceError):
            call()
    n = TruncationPolicy(max_terms=400).nterms(p, abs(u))
    with mpmath.workdps(40):
        ref = mpmath.qp(mpmath.mpc(u), mpmath.mpc(p))
    assert _rel(kernels.qpoch_array(u, p, n), ref) < ORACLE_TOL


@pytest.mark.parametrize("ap, raises", [(0.83, False), (0.85, True)])
def test_truncation_cap_brackets_the_crossing(ap, raises):
    # at max|u| = 1 the 1e-14 tail needs 200 terms at |p| = 0.842: 184 at 0.83, 212 at 0.85
    p = ap * np.exp(0.7j)
    u, a, b = 0.95 * np.exp(0.3j), 0.9 * np.exp(1.1j), 0.97 * np.exp(-2.0j)
    calls = {"qpoch": lambda: qpoch(u, p), "theta": lambda: theta(u, p), "qpoch_ratio": lambda: qpoch_ratio(a, b, p)}
    if raises:
        for call in calls.values():
            with pytest.raises(ConvergenceError):
                call()
        return
    with mpmath.workdps(40):
        mp_p = mpmath.mpc(p)
        qp = lambda x: mpmath.qp(mpmath.mpc(x), mp_p)
        want = {"qpoch": qp(u), "theta": qp(u) * qp(p / u) * qp(p), "qpoch_ratio": qp(a) / qp(b)}
    for name, call in calls.items():
        assert _rel(call(), want[name]) < ORACLE_TOL, name


def test_p_gamma_sin_matches_mpmath_oracle():
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = rng.uniform(0.05, 0.6) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        x = rng.uniform(0.15, 0.85) + 1j * rng.uniform(-0.3, 0.3)
        u = rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        with mpmath.workdps(40):
            mp_p, mp_x = mpmath.mpc(p), mpmath.mpc(x)
            qp = lambda v: mpmath.qp(v, mp_p)
            px = mpmath.exp(mp_x * mpmath.log(mp_p))
            pp = qp(mp_p)
            gamma = mpmath.exp((1 - mp_x) * mpmath.log(1 - mp_p)) * pp / qp(px)
            sin = mpmath.pi * qp(px) * qp(mp_p / px) * pp / ((1 - mp_p) * pp**3)
            power = qp(mpmath.mpc(u) / px) / qp(px * mpmath.mpc(u))
        assert _rel(p_gamma_sin(x, p, "gamma"), gamma) < ORACLE_TOL
        assert _rel(p_gamma_sin(x, p, "sin"), sin) < ORACLE_TOL
        assert _rel(p_gamma_sin(x, p, "power", extra=u), power) < ORACLE_TOL


# ---------------------------------------------------------------------------
# caches: (p;p)_inf per p, the p-power column per (p, nterms)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.21 + 0.04j, np.complex128(0.4 * np.exp(2.5j))])
def test_pp_inf_cache_is_qpoch(p):
    assert pp_inf(p) == complex(qpoch(p, p))
    # the second call is served from the cache
    assert pp_inf(p) == complex(qpoch(p, p))


def test_theta_is_theta_array_at_policy_nterms():
    p = 0.35 * np.exp(0.9j)
    rng = np.random.default_rng(5)
    u = _shell_points(rng, p, 40)
    # in the last two |p| / min|u| sets nterms, not max|u|
    small = 0.02 * np.exp(0.4j)
    for arg in (u[0], complex(u[1]), u, u.reshape(5, 8), small, u[np.abs(u) < 1] * 0.05):
        au = np.abs(np.asarray(arg))
        n = DEFAULT_POLICY.nterms(p, max(float(au.max()), abs(p) / float(au.min())))
        want = kernels.theta_array(arg, p, n, qpoch(p, p))
        got = theta(arg, p)
        assert np.shape(got) == np.shape(arg)
        assert np.array_equal(np.asarray(got), np.asarray(want))


def test_p_power_column_is_read_only():
    p, n = 0.3 * np.exp(0.2j), 17
    col = kernels._p_powers(complex(p), n)
    assert col.shape == (n, 1) and not col.flags.writeable
    with pytest.raises(ValueError):
        col[0, 0] = 2.0
    assert kernels._p_powers(complex(p), n) is col
    assert np.allclose(col[:, 0], p ** np.arange(n), rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# declared integrands against the per-factor loop


def _ref_arg(c, f, ts):
    """c x on the points ts, x = t_a, 1 / t_b or t_a / t_b."""
    if f.b is None:
        return c * ts[..., f.a]
    return c / ts[..., f.b] if f.a is None else c * ts[..., f.a] / ts[..., f.b]


def _ref_side(f, c, ts, p):
    """kind(c x) on the points ts, one factor side alone."""
    if f.kind == "linear":
        if f.b is None:
            return c * (1 / c - ts[..., f.a])
        return (ts[..., f.b] - (c if f.a is None else c * ts[..., f.a])) / ts[..., f.b]
    u = _ref_arg(c, f, ts)
    return u if f.kind == "monomial" else qpoch(u, p) if f.kind == "qpoch" else theta(u, p)


def _ref_value(f, ts, p):
    """One factor: a two-sided qpoch or theta factor as one paired ratio call
    with its own nterms, any other as its sides."""
    if f.num is not None and f.den is not None and f.kind in ("qpoch", "theta"):
        ratio = qpoch_ratio if f.kind == "qpoch" else theta_ratio
        return ratio(_ref_arg(f.num, f, ts), _ref_arg(f.den, f, ts), p)
    if f.den is None:
        return _ref_side(f, f.num, ts, p)
    v = 1 / _ref_side(f, f.den, ts, p)
    return v if f.num is None else v * _ref_side(f, f.num, ts, p)


def _per_factor(F, t):
    """Reference evaluator of a declared integrand: every factor on its own,
    the factors of one coordinate set multiplied, then the term."""
    ts, single = as_batch(t)
    acc = 0
    for term in F.terms:
        out = np.full(ts.shape[:-1], F.const, dtype=np.complex128)
        rows = {}
        for f in term:
            key = frozenset((f.a, f.b))
            rows[key] = rows.get(key, 1) * _ref_value(f, ts, F.p)
        for v in rows.values():
            out = out * v
        acc = acc + out
    return complex(acc[0]) if single else acc


def _assert_matches_per_factor(F, t, tol=1e-13):
    got, want = F(t), _per_factor(F, t)
    assert np.shape(got) == np.shape(want)
    assert np.isfinite(want).all()
    rel = np.max(np.abs(np.asarray(got) - want) / np.abs(want))
    assert rel < tol, rel


def _torus_points(ell, rng):
    """A ProductGrid of 6 staggered nodes per axis near the unit torus, a
    dense batch of 7 points with moduli in [0.8, 1.25], and 3 single points."""
    grid = ProductGrid(
        [0.95 * np.exp(2j * np.pi * (np.arange(6) + (a + 1) / (ell + 2)) / 6) for a in range(ell)]
    )
    batch = rng.uniform(0.8, 1.25, (7, ell)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (7, ell)))
    return [grid, batch, *batch[:3]]


def _declarations(P):
    """Every declared integrand at P.ell: the phase, the 1/t phase, the subset
    W and w, both Shapovalov forms, q-beta, ARL and (ell = 1) Askey-Roy."""
    ell = P.ell
    rng = np.random.default_rng(ell)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, x, alpha, beta, p = (draw(m) for m in (0.35, 0.4, 1.2, 0.42, 0.3, 0.45, 0.2))
    out = [phase_declaration(P, ell), integrate._phase_tilde(P), integrate.omega_elliptic(P)]
    out += [integrate.omega_trig(P), integrate.qbeta_integrand(a, b, c, x, p, ell)]
    out += [integrate.arl_integrand(a, b, c, alpha, beta, x, p, ell)]
    out += [subset_form(kind, l, P) for l in combin.index_vectors(P.n, ell) for kind in ("theta", "linear")]
    if ell == 1:
        out.append(integrate.askey_roy_integrand(a, b, c, alpha, beta, p))
    return out


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_compiled_declarations_match_per_factor_loop(ell):
    """Each declaration, compiled into one paired-ratio block per coordinate
    set, matches the per-factor loop on a product grid, a dense batch and
    single points."""
    P = sample_params(ell, 2, ell)
    points = _torus_points(ell, np.random.default_rng(10 + ell))
    for F in _declarations(P):
        for t in points:
            _assert_matches_per_factor(F, t)


@pytest.mark.parametrize("ell", [2, 3])
def test_compiled_declarations_on_torus_slabs_match_per_factor_loop(ell, monkeypatch):
    """On staggered torus slabs (pair blocks on the M values of their ratio,
    gathered per term) each declaration matches the per-factor loop on the
    dense pair grids, also when the leading axes are fixed one at a time."""
    P = sample_params(ell, 2, ell)
    monkeypatch.setattr(integrate, "_CHUNK", 20)
    slabs = list(integrate._grid_slabs((0.0,) * ell, (0.95,) * ell, 6))
    for F in _declarations(P):
        for _, t in slabs[:2] + slabs[-1:]:
            _assert_matches_per_factor(F, t)


def _ratio_call_sizes(monkeypatch, f, t):
    """Output sizes of the paired-ratio kernel calls f(t) makes, in call order."""
    sizes, kernel = [], numkernel.qpoch_ratio_array

    def counted(*args):
        out = kernel(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(numkernel, "qpoch_ratio_array", counted)
    f(t)
    monkeypatch.undo()
    return sizes


def test_torus_pair_blocks_take_M_points(monkeypatch):
    """On a 128^2 torus grid each block of the phase and of the subset W_ell
    is one kernel call of rows x M points: the axis blocks on their axis
    rows, the pair block on the M values of t_0 / t_1, not the M^2 nodes.
    A two-sided qpoch factor is one row, a theta factor two."""
    M = 128
    (_, t), *rest = integrate._grid_slabs((0.0, 0.0), (1.0, 1.0), M)
    assert not rest and t.shape == (M, M, 2)
    for n in (2, 3):
        Pn = sample_params(n, n, 2)
        Fs = [phase_declaration(Pn, 2)] + [subset_form("theta", l, Pn) for l in combin.index_vectors(n, 2)]
        for F in Fs:
            rows = {}
            for f in (f for term in F.terms for f in term):
                key = frozenset(k for k in (f.a, f.b) if k is not None)
                rows[key] = rows.get(key, 0) + (2 if f.kind == "theta" else 1)
            got = _ratio_call_sizes(monkeypatch, F, t)
            assert sorted(got) == sorted(r * M for r in rows.values()), (got, rows)
        # the phase's pair row: eta t_0 / t_1 over eta^-1 t_0 / t_1
        assert sorted(_ratio_call_sizes(monkeypatch, Fs[0], t)) == [M, n * M, n * M]


def test_compiled_one_sided_factors_match_per_factor_loop():
    """One-sided qpoch and theta ends of one term and coordinate set share
    ratio rows, a leftover end is set against 0, and a one-sided theta's
    (p;p)_inf goes into the term's constant; two terms, linear and monomial
    factors and both pair orientations included."""
    p = 0.15 * np.exp(0.4j)
    terms = [
        [
            Factor("theta", 0.8, a=0),
            Factor("qpoch", den=0.4, a=0),
            Factor("qpoch", den=0.3, b=0),
            Factor("theta", den=1.5, a=1),
            Factor("qpoch", 0.5, b=1),
            Factor("monomial", den=1, a=1),
            Factor("qpoch", 0.2, a=0, b=1),
            Factor("theta", den=2.5, a=1, b=0),
            Factor("linear", 0.4, a=0),
        ],
        [
            Factor("qpoch", 0.6, a=1),
            Factor("theta", 0.7, 2.0, a=0),
            Factor("qpoch", den=0.45, a=0, b=1),
            Factor("linear", den=2.0, b=1),
        ],
    ]
    F = Integrand(p, terms, const=0.7 - 0.2j)
    for t in _torus_points(2, np.random.default_rng(5)):
        _assert_matches_per_factor(F, t)


def test_compiled_integrand_far_shells():
    """Far-shell points, |t_0 / t_1| = 1e80: two-sided factors match the
    per-factor loop, and the same factors written as one-sided ends paired
    by the compiler give the same values, where single products overflow."""
    p = 0.01 * np.exp(0.7j)
    c = 1.1 * np.exp(0.3j)
    two = [
        Factor("qpoch", 2.0, 1.5j, a=0),
        Factor("theta", 0.7, c, a=0, b=1),
        Factor("qpoch", 0.3, 0.8, b=1),
        Factor("theta", 1.7, 0.6, a=1, b=0),
        Factor("qpoch", 0.9, 0.4j, a=0, b=1),
    ]
    one = [g for f in two for g in (f._replace(den=None), f._replace(num=None))]
    rng = np.random.default_rng(8)
    for scale in (1e20, 1e40):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 2)))
        t = phase * np.array([scale, 1 / scale])
        grid = ProductGrid([scale * phase[:, 0], phase[:, 1] / scale])
        for pts in (t, t[0], grid):
            _assert_matches_per_factor(Integrand(p, [two]), pts)
            got, want = Integrand(p, [one])(pts), Integrand(p, [two])(pts)
            assert np.max(np.abs(np.asarray(got) - want) / np.abs(want)) < 1e-13
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(qpoch(2.0 * 1e40, p))


# ---------------------------------------------------------------------------
# two-sided theta blocks reduced by quasi-periodicity


def _shell_grid(P, m, side, shell):
    """A batched product grid of circles around the p-shifts c of special
    point m in one Jackson shell, 8 nodes per axis, of radius |c_0| / 4 on
    axis 0 and |c_a| / 10 on the others: points near the special points,
    where W and omega_elliptic have their poles and zeros, but a tenth of
    their modulus from the axis poles and the pair divisors through them."""
    shifts = [s if side == "x" else tuple(-v for v in s) for s in combin.index_vectors(P.ell, shell)]
    center = np.transpose([weightfn.special_point(m, P, side, s) for s in shifts])
    radii = np.abs(center) / np.array([4] + [10] * (P.ell - 1))[:, None]
    ((_, t),) = integrate._grid_slabs(center, radii, (8,) * P.ell)
    return t


@pytest.mark.parametrize("side", ["x", "y"])
def test_reduced_theta_blocks_match_per_factor_loop_on_far_shells(side):
    """Every (2, 2) and (3, 2) subset W and omega_elliptic near the
    p-shifted special points of shells 0-22 (|t| down to |p|^22 on the x
    side, up to |p|^-22 on the y side): each term, its axis and pair blocks
    evaluated at x p^-k and multiplied by C^k, matches the per-factor loop
    to 1e-13, and each declaration to 1e-13 of the sum of its terms'
    moduli (the terms of W cancel by up to 1e3 there)."""
    for seed, n in ((10, 2), (11, 3)):
        P = sample_params(seed, n, 2, regime="jackson_overlap")
        Fs = [subset_form("theta", l, P) for l in combin.index_vectors(n, 2)] + [integrate.omega_elliptic(P)]
        assert all(reduced for F in Fs for (*_, reduced) in F._blocks.values())
        ks = set()
        for shell in (0, 1, 5, 11, 22):
            for m in combin.index_vectors(n, 2):
                t = _shell_grid(P, m, side, shell)
                ks.update((numkernel._p_shells(t[..., 0], P.p) or (0, [0]))[1])
                for F in Fs:
                    terms = [Integrand(F.p, [term], F.const) for term in F.terms]
                    for G in terms:
                        _assert_matches_per_factor(G, t)
                    scale = sum(np.abs(_per_factor(G, t)) for G in terms)
                    assert np.max(np.abs(F(t) - _per_factor(F, t)) / scale) < 1e-13
        assert max(map(abs, ks)) >= 22


def test_reduced_theta_blocks_with_shells_varying_over_a_grid():
    """Circles around |t_0| = |p|^(1/2) and |t_0 / t_1| = |p|^(-1/2), where
    k = round(log|x| / log|p|) takes two values on one grid; the axis and
    pair blocks still match the per-factor loop on the grid, a batch and
    single points."""
    P = sample_params(10, 2, 2, regime="jackson_overlap")
    h = abs(P.p) ** 0.5
    row = lambda c: c * (1 + 0.2 * np.exp(2j * np.pi * (np.arange(12) + 0.3) / 12))
    grid = ProductGrid([row(h * np.exp(0.7j)), row(np.exp(2.2j))])
    for x in (grid[..., 0], grid.pair(0, 1)[0], grid[..., 0] / grid[..., 1]):
        assert len(numkernel._p_shells(x, P.p)[1]) == 2
    dense = np.asarray(grid).reshape(-1, 2)
    for F in [subset_form("theta", l, P) for l in combin.index_vectors(2, 2)] + [integrate.omega_elliptic(P)]:
        for t in (grid, dense, dense[0], dense[-1]):
            _assert_matches_per_factor(F, t)


def test_blocks_with_qpoch_or_one_sided_rows_are_not_reduced(monkeypatch):
    """The phase, q-beta and ARL blocks carry q-Pochhammer or one-sided
    theta rows, so they are evaluated at x itself and take no p-shell; a
    two-sided theta beside a qpoch or a one-sided theta row in one block
    leaves that block unreduced, while a block of two-sided thetas alone,
    next to a qpoch pair block, is reduced."""
    P = sample_params(10, 2, 2, regime="jackson_overlap")
    rng = np.random.default_rng(2)
    draw = lambda m: m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a, b, c, x, alpha, beta, p = (draw(m) for m in (0.35, 0.4, 1.2, 0.42, 0.3, 0.45, 0.2))
    theta = Factor("theta", 0.7, 1.3, a=0)
    mixed = [Integrand(p, [[theta, Factor(kind, 0.5, a=0)]]) for kind in ("qpoch", "theta")]
    shells = []
    monkeypatch.setattr(numkernel, "_p_shells", lambda x, p: shells.append(x) or None)
    t = _shell_grid(P, (2, 0), "x", 6)
    for F in [phase_declaration(P, 2), integrate._phase_tilde(P)] + mixed:
        F(t)
        assert not any(reduced for (*_, reduced) in F._blocks.values())
    far = np.asarray(t)[0, :3, :3] * 1e3
    for F in (integrate.qbeta_integrand(a, b, c, x, p, 2), integrate.arl_integrand(a, b, c, alpha, beta, x, p, 2)):
        F(far)
        assert not any(reduced for (*_, reduced) in F._blocks.values())
    assert not shells
    F = Integrand(p, [[theta, Factor("qpoch", 0.5, 0.2, a=0, b=1)]])
    assert F._blocks[(0,)][3] and not F._blocks[(0, 1)][3]
    F(t)
    assert len(shells) == 1 and shells[0] is t[..., 0]


def test_reduced_theta_blocks_truncate_at_the_unit_shell(monkeypatch):
    """At the shell-22 stacks of the x and y sides the theta blocks call the
    kernel with the policy nterms for |u| <= max|c| |p|^(-1/2), c the
    block's coefficients, where the unreduced arguments would need more."""
    P = sample_params(10, 2, 2, regime="jackson_overlap")
    calls, kernel = [], numkernel.qpoch_ratio_array
    monkeypatch.setattr(numkernel, "qpoch_ratio_array", lambda a, b, p, n: calls.append(n) or kernel(a, b, p, n))
    for side in ("x", "y"):
        t = _shell_grid(P, (1, 1), side, 22)
        for F in [subset_form("theta", l, P) for l in combin.index_vectors(2, 2)] + [integrate.omega_elliptic(P)]:
            for key, (c, *_) in F._blocks.items():
                calls.clear()
                F._rows(key, t)
                bound = DEFAULT_POLICY.nterms(P.p, np.abs(c).max() * abs(P.p) ** -0.5)
                x = t[..., key[0]] if len(key) == 1 else t[..., key[0]] / t[..., key[1]]
                ax = np.abs(x)
                unreduced = DEFAULT_POLICY.nterms(P.p, np.abs(c).max() * max(ax.max(), 1 / ax.min()))
                assert len(calls) == 1 and calls[0] <= bound < unreduced, (side, key, calls, bound, unreduced)
