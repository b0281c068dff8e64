import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzhyper import kernels
from qkzhyper.errors import ConvergenceError, DomainError, PoleProximityError, ResonanceError
from qkzhyper.kernels import BACKEND, qpoch_array
from qkzhyper.numkernel import (
    DEFAULT_POLICY,
    POLE_GUARD,
    ParameterSet,
    TruncationPolicy,
    assert_admissible,
    phase_phi,
    p_gamma_sin,
    p_power_bracket,
    pp_inf,
    qpoch,
    qpoch_ratio,
    theta,
    theta_prime_one,
    theta_ratio,
)
from qkzhyper.weightfn import W_ell, w_trig

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
