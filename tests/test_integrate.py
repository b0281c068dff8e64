import numpy as np
import pytest

from qkzhyper import combin, integrate as ig, suites, weightfn as wf
from qkzhyper.cli_params import sample_params
from qkzhyper.errors import ConvergenceError, DegeneracyError
from qkzhyper.numkernel import ParameterSet, phase_phi, qpoch, theta

RNG = np.random.default_rng(12)


def draw(mod, rng=RNG):
    return mod * np.exp(1j * rng.uniform(0, 2 * np.pi))


def test_torus_basics():
    one = lambda t: np.ones(t.shape[:-1], dtype=complex)
    assert abs(ig.torus_integral(one, 2) - (2j * np.pi) ** 2) < 1e-12
    f = lambda t: t[..., 0]
    assert abs(ig.torus_integral(f, 1)) < 1e-13
    g = lambda t: 1.0 / (1 - 0.5 * t[..., 0])
    assert abs(ig.torus_integral(g, 1) - 2j * np.pi) < 1e-12 * 2 * np.pi


def test_torus_geometric_convergence():
    # doubling the grid reduces the self-difference by far more than 10x
    a, b, c, p = 0.35 + 0.1j, 0.42 - 0.06j, 1.3 + 0.5j, 0.18 + 0.04j
    f = lambda t: theta(c * t[..., 0], p) / (qpoch(a * t[..., 0], p) * qpoch(b / t[..., 0], p))
    v16 = ig.torus_integral(f, 1, ig.QuadratureSpec(16))
    v32 = ig.torus_integral(f, 1, ig.QuadratureSpec(32))
    v64 = ig.torus_integral(f, 1, ig.QuadratureSpec(64))
    assert abs(v64 - v32) < abs(v32 - v16) / 10


def test_n1l1_closed_form():
    a, b, c, p = 0.35 + 0.1j, 0.42 - 0.06j, 1.3 + 0.5j, 0.18 + 0.04j
    f = lambda t: theta(c * t[..., 0], p) / (qpoch(a * t[..., 0], p) * qpoch(b / t[..., 0], p))
    lhs = ig.torus_integral(f, 1, ig.QuadratureSpec(256))
    rhs = 2j * np.pi * qpoch(p * a / c, p) * qpoch(b * c, p) / qpoch(a * b, p)
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_qbeta_l1_collapse():
    # the s-product collapses at ell = 1
    a, b, c, p = draw(0.3), draw(0.35), draw(1.1), 0.2
    x = draw(0.4)
    rhs = ig.qbeta_rhs(a, b, c, x, p, 1)
    direct = 2j * np.pi * qpoch(b * c, p) * qpoch(p * a / c, p) / qpoch(a * b, p)
    assert abs(rhs - direct) / abs(direct) < 1e-13


@pytest.mark.parametrize("ell,M", [(1, 256), (2, 128)])
def test_qbeta_integral(ell, M):
    a, b, c, x, p = draw(0.35), draw(0.4), draw(1.2), draw(0.42), draw(0.2)
    lhs = ig.torus_integral(
        ig.qbeta_integrand(a, b, c, x, p, ell), ell, ig.QuadratureSpec(M), measure="dt"
    )
    assert abs(lhs - ig.qbeta_rhs(a, b, c, x, p, ell)) / abs(lhs) < 1e-10


def test_askey_roy_and_arl():
    a, b, c, al, be, p = draw(0.35), draw(0.4), draw(1.2), draw(0.3), draw(0.28), draw(0.2)
    lhs = ig.torus_integral(ig.askey_roy_integrand(a, b, c, al, be, p), 1, ig.QuadratureSpec(256))
    assert abs(lhs - ig.askey_roy_rhs(a, b, c, al, be, p)) / abs(lhs) < 1e-10
    x = draw(0.42)
    lhs = ig.torus_integral(
        ig.arl_integrand(a, b, c, al, be, x, p, 2), 2, ig.QuadratureSpec(128), measure="dt"
    )
    assert abs(lhs - ig.arl_rhs(a, b, c, al, be, x, p, 2)) / abs(lhs) < 1e-8


def test_multi_residue_basics():
    f = lambda t: 1.0 / ((t[..., 0] - 1.0) * (t[..., 1] - 2.0))
    plan = ig.ResiduePlan((1.0, 2.0), (0.1, 0.1))
    assert abs(ig.multi_residue(f, (1.0, 2.0), plan=plan) - 1.0) < 1e-12
    g = lambda t: np.exp(t[..., 0])
    assert abs(ig.multi_residue(g, (1.0,), plan=ig.ResiduePlan((1.0,), (0.1,)))) < 1e-12


def test_multi_residue_vs_geometric_series():
    # residue of 1/(1 - 0.5 t) / t at t = 2 equals -1 (geometric-series pole)
    f = lambda t: 1.0 / ((1 - 0.5 * t[..., 0]) * t[..., 0])
    r = ig.multi_residue(f, (2.0,), plan=ig.ResiduePlan((2.0,), (0.05,)))
    assert abs(r - (-1.0)) < 1e-12


def test_multi_residue_chunked_l3():
    # 64^3 nodes exceed one grid chunk, so the residue walks several chunks
    c = (1.0, 2.0 + 0.5j, -1.5j)
    f = lambda t: 1.0 / ((t[..., 0] - c[0]) * (t[..., 1] - c[1]) * (t[..., 2] - c[2]))
    assert 64**3 > ig._CHUNK
    r = ig.multi_residue(f, c, plan=ig.ResiduePlan(c, (0.1, 0.1, 0.1), 64))
    assert abs(r - 1.0) < 1e-12


def test_shell_sum_geometric():
    # shell s holds the single term r^s: the total is 1/(1 - r) and the
    # geometric tail estimate is the exact remainder r^N / (1 - r)
    r = 0.6
    total, rep = ig._shell_sum(lambda s: [r**s], cutoff=200, tol=1e-12)
    N = rep["shells"]
    assert N < 201
    assert abs(total - 1 / (1 - r)) < 1e-11
    assert rep["last_shell"] == r ** (N - 1)
    assert abs(rep["ratio"] - r) < 1e-12
    assert abs(rep["tail_estimate"] - r**N / (1 - r)) < 1e-10 * r**N


def test_shell_sum_raises_at_cutoff():
    # r^s needs about 55 shells to fall below 1e-12; five cannot settle it
    with pytest.raises(ConvergenceError):
        ig._shell_sum(lambda s: [0.6**s], cutoff=5, tol=1e-12)


def test_shell_sum_raises_on_tail_past_stopping_rule():
    # 0.99^s stops near shell 2300, where the geometric tail 99 r^N is still
    # about 99 times tol * |total|
    with pytest.raises(ConvergenceError):
        ig._shell_sum(lambda s: [0.99**s], cutoff=5000, tol=1e-12)


def test_jackson_sum_raises_at_cutoff():
    # acceptance criterion C06's (2, 1) draw settles after more than two shells
    P = sample_params(9, 2, 1, regime="jackson_overlap")
    Wf = lambda t: wf.W_ell((0, 1), t, P, "subset")
    wfn = lambda t: wf.w_trig((1, 0), t, P, "subset")
    with pytest.raises(ConvergenceError):
        ig.jackson_sum(Wf, wfn, P, side="x", cutoff=2)


def test_jackson_vs_torus():
    for n, ell in ((2, 1), (2, 2)):
        P = sample_params(5 * n + ell, n, ell, regime="jackson_overlap")
        IV = combin.index_vectors(n, ell)
        Wf = lambda t: wf.W_ell(IV[0], t, P, "subset")
        wfn = lambda t: wf.w_trig(IV[-1], t, P, "subset")
        I0 = ig.hyper_I(Wf, wfn, P, ig.QuadratureSpec(128))
        Ix, repx = ig.jackson_sum(Wf, wfn, P, side="x")
        Iy, repy = ig.jackson_sum(Wf, wfn, P, side="y")
        assert abs(Ix - I0) / abs(I0) < 1e-7
        assert abs(Iy - I0) / abs(I0) < 1e-7
        assert repx["tail_estimate"] < 1e-9 * abs(I0)


def test_jackson_regime_guard():
    P = sample_params(3, 2, 1)  # generic kappa: y-side condition fails
    Wf = lambda t: wf.W_ell((1, 0), t, P, "subset")
    wfn = lambda t: wf.w_trig((1, 0), t, P, "subset")
    with pytest.raises(ConvergenceError):
        ig.jackson_sum(Wf, wfn, P, side="y")


def test_jackson_unknown_side():
    P = sample_params(3, 2, 1)
    calls = []
    Wf = lambda t: calls.append(t) or wf.W_ell((1, 0), t, P, "subset")
    wfn = lambda t: wf.w_trig((1, 0), t, P, "subset")
    for side in ("Y", "X", "z"):
        with pytest.raises(ValueError):
            ig.jackson_sum(Wf, wfn, P, side=side)
    assert not calls


@pytest.mark.parametrize("ell", [0, 2])
def test_torus_bad_measure_raises_before_integrand(ell):
    calls = []
    f = lambda t: calls.append(t) or np.ones(np.shape(t)[:-1], dtype=complex)
    with pytest.raises(ValueError):
        ig.torus_integral(f, ell, ig.QuadratureSpec(8), measure="dz")
    assert not calls
    assert ig.torus_integral(f, ell, ig.QuadratureSpec(8), measure="dt") != 0


def _residue_radii_loop(center, params, shrink=0.05, smax=24):
    """Scalar reference of integrate._residue_radii, one candidate at a time."""
    p, eta = params.p, params.eta
    fixed = [0.0]
    for m in range(params.n):
        for s in range(1 - smax, smax):
            fixed.append(p**s * params.xi[m] * params.z[m])
            fixed.append(p**s * params.z[m] / params.xi[m])
    radii = []
    for k, ck in enumerate(center):
        cands = list(fixed)
        for b, cb in enumerate(center):
            if b != k:
                for s in range(-smax, smax + 1):
                    cands += [p**s * eta * cb, p**s / eta * cb, p**s * cb]
        near = [abs(ck - c) for c in cands if abs(ck - c) < 1e-9 * abs(ck)]
        dmin = min(abs(ck - c) for c in cands if abs(ck - c) >= 1e-9 * abs(ck))
        assert len(near) <= 6
        rk = shrink * dmin
        for j in range(k):
            if ig._divisor_through_center(ck, center[j], p, eta, smax):
                rk = min(rk, 0.2 * abs(ck / center[j]) * radii[j])
        radii.append(rk)
    return radii


def test_residue_radii_closed_forms():
    p, xi, z = 0.3 * np.exp(0.4j), 0.5 * np.exp(1.1j), np.exp(0.3j)
    P1 = ParameterSet(p=p, eta=1.8 + 0.2j, kappa=0.7, xi=(xi,), z=(z,), n=1, ell=1)
    # plain point x = xi z: its own pole is skipped and the nearest other
    # catalog pole is p xi z (closer than the origin and z / xi)
    (r,) = ig._residue_radii((xi * z,), P1)
    assert abs(r - 0.05 * abs(xi * z) * abs(1 - p)) < 1e-15
    # divisor through the centre: (c_0, c_1) = (xi z / eta, xi z) has
    # c_1 = eta c_0, so the inner radius is clamped to 0.2 |c_1 / c_0| r_0
    P2 = P1.with_ell(2)
    c = wf.special_point((2,), P2, "x")
    r0, r1 = ig._residue_radii(c, P2)
    assert abs(r0 - _residue_radii_loop(c, P2)[0]) < 1e-15 * r0
    assert abs(r1 - 0.2 * abs(c[1] / c[0]) * r0) < 1e-15 * r1
    assert r1 < 0.05 * min(abs(c[1] - v) for v in (0.0, p * xi * z, z / xi))


def test_residue_radii_match_scalar_reference():
    for n, ell, regime in ((2, 2, "jackson_overlap"), (3, 2, "convergent"), (2, 3, "convergent")):
        P = sample_params(11 * n + ell, n, ell, regime=regime)
        for side in ("x", "y"):
            for mvec in combin.index_vectors(n, ell):
                for shift in ((0,) * ell, (1,) + (0,) * (ell - 1), (0,) * (ell - 1) + (2,)):
                    sh = shift if side == "x" else tuple(-v for v in shift)
                    c = wf.special_point(mvec, P, side, sh)
                    got = ig._residue_radii(c, P)
                    want = _residue_radii_loop(c, P)
                    assert np.allclose(got, want, rtol=1e-14, atol=0), (mvec, side, shift)


def test_pole_catalog_is_two_sided():
    # omega_elliptic's theta quotients have poles at p^s z_m / xi_m and zeros
    # at p^s xi_m z_m for s of both signs
    P = sample_params(3, 3, 1)
    fixed, _ = ig._pole_catalog(P)
    for m in range(P.n):
        for v in (P.p * P.z[m] / P.xi[m], P.xi[m] * P.z[m] / P.p):
            assert np.min(np.abs(fixed - v)) < 1e-15 * abs(v)


def test_shapovalov_checks_near_uncatalogued_pole():
    # at this draw the x-point (1, 0, 0) sits 0.0245 from the pole p z_1 / xi_1
    # of omega_elliptic; a catalog without it sized that residue circle 0.0172
    recs = suites.finalize(suites.shapovalov_checks(sample_params(3, 3, 1)))
    assert all(r["status"] == "pass" for r in recs), [(r["id"], r["rel_err"]) for r in recs]


def test_residue_radii_degenerate_point():
    P = ParameterSet(p=0.3, eta=1.0, kappa=0.7, xi=(0.5,), z=(1.0,), n=1, ell=3)
    # three coordinates stacked on the pole xi z with eta = 1: the catalog
    # pole and three pair divisors per partner meet there, seven in all
    with pytest.raises(DegeneracyError):
        ig._residue_radii((0.5, 0.5, 0.5), P)


def test_jackson_l1_leading_residue():
    # (n, ell) = (1, 1): the single shell-0 residue of the x-side Jackson
    # integrand, at xi z, reproduces the leading term of the closed-form series
    P = sample_params(9, 1, 1, regime="jackson_overlap")
    Wf = lambda t: wf.W_ell((1,), t, P, "subset")
    wfn = lambda t: wf.w_trig((1,), t, P, "subset")
    I0 = ig.hyper_I(Wf, wfn, P, ig.QuadratureSpec(192))
    f = lambda t: phase_phi(t, P) / t[..., 0] * wfn(t) * Wf(t)
    val = 2j * np.pi * ig.multi_residue(f, wf.special_point((1,), P, "x"), params=P)
    # the shell-0 term dominates with the overlap decay rate
    assert abs(val - I0) / abs(I0) < abs(P.p * P.kappa / P.xi_prod) * 1.5


def test_pairing_matrix_and_determinants():
    for n, ell, M in ((1, 1, 256), (2, 1, 192), (2, 2, 128)):
        P = sample_params(10 * n + ell, n, ell)
        idx, G = ig.pairing_matrix(P, spec=ig.QuadratureSpec(M))
        assert len(idx) == G.shape[0]
        det = np.linalg.det(G)
        rhs = ig.det_rhs(P, "mu_gen")
        assert abs(det - rhs) / abs(rhs) < 1e-8
    P0 = sample_params(77, 2, 1)
    Pp = P0.with_kappa(P0.kappa_special(+1))
    _, G = ig.pairing_matrix(Pp, restrict="first_zero", spec=ig.QuadratureSpec(192))
    assert abs(np.linalg.det(G) - ig.det_rhs(Pp, "mu_plus")) / abs(ig.det_rhs(Pp, "mu_plus")) < 1e-8


def test_ascj_sums():
    a, b, al, be = draw(0.3), draw(0.35), draw(0.28), draw(0.31)
    s, r, rep = ig.ascj_sum(a, b, al, be, 0.25, 1, 1)
    assert abs(s - r) / abs(r) < 1e-10
    assert rep["tail_estimate"] < 1e-9 * abs(r)
    s, r, rep = ig.ascj_sum(a, b, al, be, 0.25, 1, 2)
    assert abs(s - r) / abs(r) < 1e-8
    assert rep["tail_estimate"] < 1e-9 * abs(r)
    s, r, rep = ig.ascj_general_sum(a, b, al, be, draw(0.45), 0.25, 2)
    assert abs(s - r) / abs(r) < 1e-8
    assert rep["tail_estimate"] < 1e-9 * abs(r)
    with pytest.raises(ValueError):
        ig.ascj_sum(a, b, al, be, 0.25, 0, 1)


def test_qselberg_jackson():
    s, r, rep = ig.qselberg_jackson(draw(0.4), draw(0.2), 0.55, 0.3, 1)
    assert abs(s - r) / abs(r) < 1e-10
    assert rep["tail_estimate"] < 1e-9 * abs(r)
    s, r, rep = ig.qselberg_jackson(draw(0.4), draw(0.2), 0.55, 0.3, 2)
    assert abs(s - r) / abs(r) < 1e-8
    assert rep["tail_estimate"] < 1e-9 * abs(r)
    with pytest.raises(ConvergenceError):
        ig.qselberg_jackson(0.4, 0.9, 0.55, 0.3, 2)


def _ascj_sum_loop(a, b, alpha, beta, p, m, ell, cutoff=40):
    """Scalar reference of integrate.ascj_sum's lattice sum, one term at a
    time with scalar qpoch calls."""
    qp = lambda u: qpoch(u, p)
    x = p**m
    v = lambda s: p**s * b if s >= 0 else p ** (-s - 1) * a

    def A(us):
        out = 1.0 + 0j
        for k in range(ell):
            uk = us[k]
            out *= uk * qp(p * uk / a) * qp(p * uk / b) / (qp(alpha * uk) * qp(beta * uk))
        for jv in range(ell):
            for k in range(jv + 1, ell):
                r = us[k] / us[jv]
                delta = ig._p_lattice_exponent(r, p)
                if delta is None:
                    out *= qp(p * r / x) / qp(p * x * r)
                else:
                    out *= ig._qpoch_ratio_plattice(1 - m + delta, 1 + m + delta, p)
        return out

    def shell_terms(shell):
        for rs in ig._signed_shell(ell, shell):
            us = [v(r) for r in rs]
            term = (-1.0) ** sum(r < 0 for r in rs) * A(us)
            for k in range(ell):
                term *= us[k] ** (2 * m * (ell - 1 - k))
            yield term

    return ig._shell_sum(shell_terms, cutoff, ig._LATTICE_TOL)[0]


def _x_pair_loop(us, x, p):
    out = 1.0 + 0j
    for jv in range(len(us)):
        for k in range(jv + 1, len(us)):
            r = us[k] / us[jv]
            out *= (1 - r) * qpoch(p * r / x, p) / qpoch(x * r, p)
    return out


def _ascj_general_sum_loop(a, b, alpha, beta, x, p, ell):
    """Scalar reference of integrate.ascj_general_sum's lattice sum."""
    qp = lambda u: qpoch(u, p)
    th = lambda u: theta(u, p)

    def Atil(us):
        out = 1.0 + 0j
        for uk in us:
            out *= uk * qp(p * uk / a) * qp(p * uk / b) / (qp(alpha * uk) * qp(beta * uk))
        return out * _x_pair_loop(us, x, p)

    def shell_terms(shell):
        for j in range(ell + 1):
            for rs in ig._shell_vectors(ell, shell):
                us = [p ** sum(rs[: i + 1]) * x**i * a for i in range(j)]
                us += [p ** sum(rs[j : i + 1]) * x ** (i - j) * b for i in range(j, ell)]
                expo = sum((ell - 1 - i) * (ell - i) * rs[i] for i in range(ell))
                expo -= (ell - j - 1) * (ell - j) * (1 + 2 * sum(rs[:j])) // 2
                term = (-1.0) ** j * x**expo
                for s in range(ell - j):
                    term *= th(x ** (j + s) * a / b) / th(x ** (j - s) * a / b)
                yield term * Atil(us)

    return ig._shell_sum(shell_terms, ig._ASCJ_GENERAL_CUTOFF, ig._LATTICE_TOL)[0]


def _qselberg_jackson_loop(alpha, u, x, p, ell):
    """Scalar reference of integrate.qselberg_jackson's lattice sum."""

    def S(ts):
        out = 1.0 + 0j
        for tk in ts:
            out *= qpoch(p * tk, p) / qpoch(alpha * tk, p)
        return out * _x_pair_loop(ts, x, p)

    def shell_terms(shell):
        for rs in ig._shell_vectors(ell, shell):
            ts = [p ** sum(rs[: i + 1]) * x**i for i in range(ell)]
            expo_u = sum((ell - i + 1) * rs[i - 1] for i in range(1, ell + 1))
            expo_x = -sum((i - 1) * (ell - i + 1) * rs[i - 1] for i in range(1, ell + 1))
            yield u**expo_u * x**expo_x * S(ts)

    return ig._shell_sum(shell_terms, ig._QSELBERG_CUTOFF, ig._LATTICE_TOL)[0]


@pytest.mark.parametrize("ell", [1, 2])
def test_lattice_sums_match_scalar_reference(ell):
    rng = np.random.default_rng(40 + ell)
    a, b, al, be, x, alpha, u = (draw(mod, rng) for mod in (0.3, 0.35, 0.28, 0.31, 0.45, 0.4, 0.2))
    p = 0.25
    if ell == 2:
        # shell 1 holds same-family pairs (u_1 / u_0 = p^delta, the cancelled
        # lattice limit) and mixed a/b pairs (off the lattice, to the kernel)
        v = lambda s: p**s * b if s >= 0 else p ** (-s - 1) * a
        off = {ig._p_lattice_exponent(v(s1) / v(s0), p) is None for s0, s1 in ig._signed_shell(2, 1)}
        assert off == {True, False}
    for m in (1, 2):
        got = ig.ascj_sum(a, b, al, be, p, m, ell)[0]
        want = _ascj_sum_loop(a, b, al, be, p, m, ell)
        assert abs(got - want) < 1e-12 * abs(want), (m, got, want)
    got = ig.ascj_general_sum(a, b, al, be, x, p, ell)[0]
    want = _ascj_general_sum_loop(a, b, al, be, x, p, ell)
    assert abs(got - want) < 1e-12 * abs(want)
    got = ig.qselberg_jackson(alpha, u, 0.55, 0.3, ell)[0]
    want = _qselberg_jackson_loop(alpha, u, 0.55, 0.3, ell)
    assert abs(got - want) < 1e-12 * abs(want)


def test_lattice_sums_l3_product_formulas():
    rng = np.random.default_rng(5)
    a, b, al, be, x, alpha, u = (draw(mod, rng) for mod in (0.3, 0.35, 0.28, 0.31, 0.45, 0.4, 0.1))
    for s, r, rep in (
        ig.ascj_sum(a, b, al, be, 0.25, 1, 3),
        ig.ascj_general_sum(a, b, al, be, x, 0.25, 3),
        # |u| < |x|^2 = 0.3025 is the convergence regime at ell = 3
        ig.qselberg_jackson(alpha, u, 0.55, 0.3, 3),
    ):
        assert abs(s - r) < 1e-10 * abs(r)
        assert rep["tail_estimate"] < 1e-9 * abs(r)


def test_qselberg_X_recurrence():
    a, b, c, x, p = draw(0.35), draw(0.4), draw(1.2), draw(0.42), draw(0.2)
    for k in (1, 2):
        rat, closed = ig.qselberg_X_ratio(k, a, b, c, x, p, 2, ig.QuadratureSpec(128))
        assert abs(rat - closed) / abs(closed) < 1e-9


def test_shapovalov_diagonality():
    P = sample_params(123, 2, 1)
    Pinv = P.with_kappa(1 / P.kappa)
    IV = combin.index_vectors(2, 1)
    om = combin.perm_reversal(2)
    tau = (0, 1)
    S = np.zeros((2, 2), dtype=complex)
    for i, l in enumerate(IV):
        for j, mv in enumerate(IV):
            f1 = lambda t: wf.W_tau(l, t, P, tau, "subset")
            f2 = lambda t: wf.W_tau(mv, t, Pinv, om, "subset")
            S[i, j] = ig.shapovalov("elliptic", f1, f2, P)
    Ns = [wf.norm_constants(l, P, tau).N_l for l in IV]
    for i in range(2):
        assert abs(S[i, i] - Ns[i]) / abs(Ns[i]) < 1e-9
    assert max(abs(S[0, 1]), abs(S[1, 0])) < 1e-9 * min(abs(v) for v in Ns)


def test_residue_balance_rational():
    # ell = 1 residue theorem: for a function with one x-type and one y-type
    # pole, regular at 0 and O(t^-2) at infinity, the residues cancel
    P = sample_params(31, 1, 1)
    x0 = wf.special_point((1,), P, "x")[0]
    y0 = wf.special_point((1,), P, "y")[0]

    def f(t):
        tt = t[..., 0]
        return 1.0 / ((tt - x0) * (tt - y0))

    rep = ig.residue_balance_check(f, P)
    assert abs(rep["difference"]) < 1e-11 * abs(rep["x_sum"])


def test_residue_balance_omega():
    P = sample_params(98, 2, 2)
    om_f = ig.omega_elliptic(P)
    f1 = lambda t: wf.W_ell((1, 1), t, P, "subset")
    f2 = lambda t: wf.W_ell((2, 0), t, P.with_kappa(1 / P.kappa), "subset")
    g = lambda t: om_f(t) * f1(t) * f2(t)
    rep = ig.residue_balance_check(g, P)
    assert abs(rep["difference"]) / abs(rep["x_sum"]) < 1e-8


def test_residue_vs_annulus_quadrature():
    # independent oracle for the nested residue: for ell = 1 the residue at
    # x<l is the contour difference across the annulus containing only it
    P = sample_params(61, 2, 1)
    l = (1, 0)
    x0 = wf.special_point(l, P, "x")[0]
    Wf = lambda t: wf.W_ell(l, t, P, "subset")
    wfn = lambda t: wf.w_trig(l, t, P, "subset")
    phit = ig._phase_tilde(P)
    f = lambda t: phit(t) * wfn(t) * Wf(t)
    x1 = wf.special_point((0, 1), P, "x")[0]
    got = ig.multi_residue(f, np.array([x0]), params=P) + ig.multi_residue(
        f, np.array([x1]), params=P
    )
    r_out, r_in = abs(x0) * 1.12, abs(x0) * 0.9
    # the annulus contains exactly the two base x-points of this draw; the
    # contour integral over |t| = r is that of r f(r u) du over |u| = 1
    ring = lambda r: ig.torus_integral(lambda u: r * f(r * np.asarray(u)), 1, ig.QuadratureSpec(384), measure="dt")
    Iout, Iin = ring(r_out), ring(r_in)
    want = (Iout - Iin) / (2j * np.pi)
    assert abs(got - want) / abs(want) < 1e-9


def test_closed_rhs_dispatcher():
    P = sample_params(71, 2, 1)
    assert ig.closed_rhs("mu_gen", P) == ig.det_rhs(P, "mu_gen")
    assert ig.closed_rhs("detM", P) == ig.detM_rhs(P)
    assert ig.closed_rhs("detMq", P) == ig.detMq_rhs(P)
    v = ig.closed_rhs("qbeta", a=0.3, b=0.35, c=1.1, x=0.4, p=0.2, ell=2)
    assert v == ig.qbeta_rhs(0.3, 0.35, 1.1, 0.4, 0.2, 2)
    v = ig.closed_rhs("askey_roy", a=0.3, b=0.35, c=1.1, alpha=0.3, beta=0.28, p=0.2)
    assert v == ig.askey_roy_rhs(0.3, 0.35, 1.1, 0.3, 0.28, 0.2)
    with pytest.raises(ValueError):
        ig.closed_rhs("nonsense")
