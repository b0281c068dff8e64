import numpy as np
import pytest

from qkzhyper import combin, integrate as ig, suites, weightfn as wf
from qkzhyper.cli_params import sample_params
from qkzhyper.errors import ConvergenceError, DegeneracyError
from qkzhyper.numkernel import ParameterSet, _nearest_p_power, phase_phi, qpoch, theta

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
    plan = ig.ResiduePlan((0.1, 0.1))
    assert abs(ig.multi_residue(f, (1.0, 2.0), plan=plan) - 1.0) < 1e-12
    g = lambda t: np.exp(t[..., 0])
    assert abs(ig.multi_residue(g, (1.0,), plan=ig.ResiduePlan((0.1,)))) < 1e-12


def test_multi_residue_vs_geometric_series():
    # residue of 1/(1 - 0.5 t) / t at t = 2 equals -1 (geometric-series pole)
    f = lambda t: 1.0 / ((1 - 0.5 * t[..., 0]) * t[..., 0])
    r = ig.multi_residue(f, (2.0,), plan=ig.ResiduePlan((0.05,)))
    assert abs(r - (-1.0)) < 1e-12


def test_multi_residue_chunked_l3():
    # 64^3 nodes exceed one grid chunk, so the residue walks several chunks
    c = (1.0, 2.0 + 0.5j, -1.5j)
    f = lambda t: 1.0 / ((t[..., 0] - c[0]) * (t[..., 1] - c[1]) * (t[..., 2] - c[2]))
    assert 64**3 > ig._CHUNK
    r = ig.multi_residue(f, c, plan=ig.ResiduePlan((0.1, 0.1, 0.1), 64))
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


def test_shell_sum_rules_hold_per_entry():
    # two geometric series on a value axis: the sum runs until both have
    # settled, each entry reports its own numerics, and a tail that only the
    # second entry leaves raises
    alone = [ig._shell_sum(lambda s, r=r: [r**s], cutoff=200, tol=1e-12) for r in (0.3, 0.6)]
    total, rep = ig._shell_sum(lambda s: [np.array([0.3**s, 0.6**s])], cutoff=200, tol=1e-12)
    assert rep["shells"] == max(r["shells"] for _, r in alone) > min(r["shells"] for _, r in alone)
    assert rep["ratio"].shape == rep["tail_estimate"].shape == (2,)
    assert abs(rep["ratio"][0] - 0.3) < 1e-12 and abs(rep["ratio"][1] - 0.6) < 1e-12
    for v, (want, _) in zip(total, alone):
        assert abs(v - want) < 1e-12 * abs(want)
    assert total[1] == alone[1][0] and rep["tail_estimate"][1] == alone[1][1]["tail_estimate"]
    with pytest.raises(ConvergenceError):
        ig._shell_sum(lambda s: [np.array([0.6**s, 0.99**s])], cutoff=5000, tol=1e-12)


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
        I0 = complex(ig.hyper_I_many([Wf], [wfn], P, ig.QuadratureSpec(128))[0, 0])
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


def _residue_radii_loop(center, params, shrink=0.05, smax=80):
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
        ds = [abs(ck - c) for c in cands]
        near = [d for d in ds if d < 1e-9 * abs(ck)]
        dmin = min(d for d in ds if d >= 1e-9 * abs(ck))
        assert len(near) <= 6
        rk = shrink * dmin
        for j in range(k):
            # a pair divisor t_k = p^s eta^e t_j through the centre
            r = ck / center[j]
            if any(abs(r / (p**s * eta**e) - 1) < 1e-8 for e in (-1, 0, 1) for s in range(-smax, smax + 1)):
                rk = min(rk, 0.2 * abs(r) * radii[j])
        radii.append(rk)
    return radii


def test_residue_radii_closed_forms():
    p, xi, z = 0.3 * np.exp(0.4j), 0.5 * np.exp(1.1j), np.exp(0.3j)
    P1 = ParameterSet(p=p, eta=1.8 + 0.2j, kappa=0.7, xi=(xi,), z=(z,), n=1, ell=1)
    # plain point x = xi z: its own pole is skipped and the nearest other
    # catalog pole is p xi z (closer than the origin and z / xi)
    (r,), rho = ig._residue_radii((xi * z,), P1)
    assert abs(r - 0.05 * abs(xi * z) * abs(1 - p)) < 1e-15
    assert rho == (0.05,)
    # divisor through the centre: (c_0, c_1) = (xi z / eta, xi z) has
    # c_1 = eta c_0, so the inner radius is clamped to 0.2 |c_1 / c_0| r_0
    P2 = P1.with_ell(2)
    c = wf.special_point((2,), P2, "x")
    (r0, r1), rho = ig._residue_radii(c, P2)
    assert abs(r0 - _residue_radii_loop(c, P2)[0]) < 1e-15 * r0
    assert abs(r1 - 0.2 * abs(c[1] / c[0]) * r0) < 1e-15 * r1
    # the divisor's ratio sets the inner axis's rate; the outer axis is plain
    assert rho[0] == 0.05 and abs(rho[1] - 0.2) < 1e-15
    assert r1 < 0.05 * min(abs(c[1] - v) for v in (0.0, p * xi * z, z / xi))


def test_residue_radii_match_scalar_reference():
    for n, ell, regime in ((2, 2, "jackson_overlap"), (3, 2, "convergent"), (2, 3, "convergent")):
        P = sample_params(11 * n + ell, n, ell, regime=regime)
        for side in ("x", "y"):
            for mvec in combin.index_vectors(n, ell):
                for shift in (s for shell in range(3) for s in combin.index_vectors(ell, shell)):
                    sh = shift if side == "x" else tuple(-v for v in shift)
                    c = wf.special_point(mvec, P, side, sh)
                    got, _ = ig._residue_radii(c, P)
                    want = _residue_radii_loop(c, P)
                    assert np.allclose(got, want, rtol=1e-14, atol=0), (mvec, side, shift)


def test_residue_radii_complete_on_far_shells():
    # the x-points of shells 24-28 of the qkz suite's solution draw (and of
    # its swap): the subset W_ell's theta poles p^s xi_m z_m lie on every
    # shell, so the nearest singularity of x<(m, s)> can be the other index's
    # point of the same shell, far outside any fixed window of shells
    P = sample_params(4 + 500, 2, 1, regime="solution")
    for Q in (P, P.permuted((1, 0))):
        for mvec in combin.index_vectors(2, 1):
            for s in range(24, 29):
                c = wf.special_point(mvec, Q, "x", (s,))
                got, _ = ig._residue_radii(c, Q)
                assert np.allclose(got, _residue_radii_loop(c, Q), rtol=1e-12, atol=0), (mvec, s)


def _stack_radii_walks(monkeypatch, center, P):
    """(radii, rhos, alone, walks): _stack_radii at the stacked centre, each
    point's own _residue_radii, and the centres that the stack walked."""
    alone = [ig._residue_radii(c, P) for c in center.T.tolist()]
    walks, residue_radii = [], ig._residue_radii
    monkeypatch.setattr(ig, "_residue_radii", lambda c, P: walks.append(c) or residue_radii(c, P))
    radii, rhos = ig._stack_radii(center, P)
    monkeypatch.undo()
    return radii, rhos, alone, walks


def _start_tuple(rho):
    return tuple(map(ig._start_nodes, rho))


@pytest.mark.parametrize("seed,n", [(10, 2), (11, 3)])
def test_stack_radii_scale_one_walk(monkeypatch, seed, n):
    # the p-shifts of one special point in one shell take one walk, at the
    # first point; every other point's radii are the first's times
    # |p|^sigma, within 1e-14 of its own walk, with its start tuple
    P = sample_params(seed, n, 2, regime="jackson_overlap")
    for side in ("x", "y"):
        for shell in range(6):
            shifts = [s if side == "x" else tuple(-v for v in s) for s in combin.index_vectors(2, shell)]
            for mvec in combin.index_vectors(n, 2):
                center = np.transpose([wf.special_point(mvec, P, side, s) for s in shifts])
                radii, rhos, alone, walks = _stack_radii_walks(monkeypatch, center, P)
                assert len(walks) == 1
                for r, rho, (want, want_rho) in zip(radii.T, rhos, alone):
                    assert np.allclose(r, want, rtol=1e-14, atol=0), (side, shell, mvec)
                    assert _start_tuple(rho) == _start_tuple(want_rho)


def test_stack_radii_walk_points_of_other_lattices(monkeypatch):
    # a stack that mixes the special points of two m: the points off the
    # first point's p-lattice each walk alone, bit-identical to the scalar
    # walk; a stack of the shell-0 points of every m walks every point
    P = sample_params(10, 2, 2, regime="jackson_overlap")
    first, other = ([wf.special_point(m, P, "x", s) for s in combin.index_vectors(2, 2)] for m in ((2, 0), (1, 1)))
    radii, rhos, alone, walks = _stack_radii_walks(monkeypatch, np.transpose(first + other), P)
    assert len(walks) == 1 + len(other)
    for r, rho, (want, want_rho) in list(zip(radii.T, rhos, alone))[: len(first)]:
        assert np.allclose(r, want, rtol=1e-14, atol=0) and _start_tuple(rho) == _start_tuple(want_rho)
    for r, rho, (want, want_rho) in list(zip(radii.T, rhos, alone))[len(first) :]:
        assert tuple(r) == want and rho == want_rho
    shell0 = np.transpose([wf.special_point(m, P, "x") for m in combin.index_vectors(2, 2)])
    radii, rhos, alone, walks = _stack_radii_walks(monkeypatch, shell0, P)
    assert len(walks) == shell0.shape[1]
    assert [(tuple(r), rho) for r, rho in zip(radii.T, rhos)] == alone


def test_qkz_suite_doubles_one_circle(monkeypatch):
    # with every singularity in the radii, the one circle of the seed-0 qkz
    # suite that needs 32 nodes is a shell-0 point under a large phase
    # function, not an undersized circle
    nodes = []
    circle_sums = ig._circle_sums
    record = lambda M, c: nodes.extend((M, tuple(pt)) for pt in c.T)  # per point of a stack
    monkeypatch.setattr(ig, "_circle_sums", lambda f, c, r, M: record(M, c) or circle_sums(f, c, r, M))
    recs = suites.run_suite("qkz", seed=4)["checks"]
    assert all(r["status"] == "pass" for r in recs)
    doubled = [c for M, c in nodes if M != (16,)]
    assert len(doubled) == 1 and {M for M, _ in nodes} == {(16,), (32,)}
    P = sample_params(4 + 500, 2, 1, regime="solution")
    shell0 = [wf.special_point(m, P, "x", (0,)) for m in combin.index_vectors(2, 1)]
    assert any(np.allclose(doubled[0], c, rtol=1e-15) for c in shell0)


def test_pole_catalog_is_two_sided():
    # omega_elliptic's theta quotients have poles at p^s z_m / xi_m and zeros
    # at p^s xi_m z_m for s of both signs: both lie on a cached family's lattice
    P = sample_params(3, 3, 1)
    _, axis, _ = ig._pole_families(P)
    for m in range(P.n):
        for v in (P.p * P.z[m] / P.xi[m], P.xi[m] * P.z[m] / P.p):
            assert min(_nearest_p_power(v, w, P.p)[1] for w in axis) < 1e-15 * abs(v)


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


def _on_pair_divisor(center, params, smax=80):
    """Whether a pair divisor t_k = p^s eta^e t_j (j < k) passes through the centre."""
    p, eta = params.p, params.eta
    return any(
        abs(center[k] / center[j] / (p**s * eta**e) - 1) < 1e-8
        for k in range(len(center))
        for j in range(k)
        for e in (-1, 0, 1)
        for s in range(-smax, smax + 1)
    )


def _jackson_integrand(P):
    IV = combin.index_vectors(P.n, P.ell)
    phit = ig._phase_tilde(P)
    return lambda t: phit(t) * wf.w_trig(IV[-1], t, P, "subset") * wf.W_ell(IV[0], t, P, "subset")


def _mean_abs_summand(f, c, radii, M):
    """Mean |summand| of the residue at c on M = (M_0, ..., M_(ell-1)) nodes per axis."""
    return ig._circle_sums(f, np.reshape(c, (-1, 1)), np.reshape(radii, (-1, 1)), M)[2][..., 0] / np.prod(M)


def test_residue_nodes_sized_by_estimate():
    # the (2, 2) Jackson points of suite_jackson's draw, shells 0-2: 16 x 32
    # nodes where a pair divisor passes through the centre (rho = (0.05, 0.2)),
    # 16^2 elsewhere (rho = 0.05 on both axes), each accepted at its first
    # count; every value agrees with the fixed 64-node rule on the same radii
    P = sample_params(6 + 2 + 2, 2, 2, regime="jackson_overlap")
    f = _jackson_integrand(P)
    counts = {}
    for side in ("x", "y"):
        for shell in range(3):
            for mvec in combin.index_vectors(2, 2):
                for svec in combin.index_vectors(2, shell):
                    c = wf.special_point(mvec, P, side, svec if side == "x" else tuple(-v for v in svec))
                    shapes = []
                    got = ig.multi_residue(lambda t: shapes.append(t.shape[:-1]) or f(t), c, params=P)
                    M = (16, 32) if _on_pair_divisor(c, P) else (16, 16)
                    assert shapes == [(1, *M)], (side, mvec, svec)
                    counts[M] = counts.get(M, 0) + 1
                    radii, _ = ig._residue_radii(c, P)
                    want = ig.multi_residue(f, c, plan=ig.ResiduePlan(radii, 64))
                    assert abs(got - want) < 1e-13 * _mean_abs_summand(f, c, radii, (64, 64)), (side, mvec, svec)
    assert counts[16, 16] > 0 and counts[16, 32] > 0


def test_residue_nodes_double_and_cap():
    # an extra pole a outside the catalog at |a - c| = r / rho: the
    # summand 1 / (t - a) has Res = 1 / (c - a), and its 16-node rule
    # fails the estimate once rho^8 > 1e-8
    P = sample_params(9, 2, 1, regime="jackson_overlap")
    c = wf.special_point((1, 0), P, "x")
    (r,), rho = ig._residue_radii(c, P)
    assert rho == (ig._SHRINK,)
    for ratio, want_nodes in ((0.02, [16]), (0.25, [16, 32]), (0.5, [16, 32, 64])):
        a = c[0] + r / ratio
        nodes = []
        f = lambda t: nodes.append(t.shape[-2]) or 1.0 / ((t[..., 0] - c[0]) * (t[..., 0] - a))
        assert abs(ig.multi_residue(f, c, params=P) - 1.0 / (c[0] - a)) < 1e-15 / abs(c[0] - a)
        assert nodes == want_nodes, ratio
    # at rho = 0.9 the estimate never settles by 64 nodes: no value is returned
    a = c[0] + r / 0.9
    with pytest.raises(ConvergenceError):
        ig.multi_residue(lambda t: 1.0 / ((t[..., 0] - c[0]) * (t[..., 0] - a)), c, params=P)


def _divisor_residues(monkeypatch, P):
    """The x- and y-side residues of the Jackson integrand at every pair-divisor
    point of shells 0-3, one stacked call per side: (nodes, floor), where
    nodes maps each point to the node tuples it was evaluated on, and floor
    is the largest |residue - 64^ell reference on the same radii| over
    mean|summand| on the reference grid."""
    f = _jackson_integrand(P)
    nodes, floor = {}, 0.0
    circle_sums = ig._circle_sums

    def recorded(f, c, r, M):
        for pt in c.T:
            nodes.setdefault(tuple(pt), []).append(M)
        return circle_sums(f, c, r, M)

    monkeypatch.setattr(ig, "_circle_sums", recorded)
    for side in ("x", "y"):
        shifts = [s if side == "x" else tuple(-v for v in s) for shell in range(4) for s in combin.index_vectors(2, shell)]
        points = [wf.special_point(m, P, side, s) for m in combin.index_vectors(P.n, 2) for s in shifts]
        center = np.transpose([c for c in points if _on_pair_divisor(c, P)])
        got = ig.multi_residue(f, center, params=P)
        radii = np.transpose([ig._residue_radii(c, P)[0] for c in center.T])
        want, _, mean = (v / 64**2 for v in circle_sums(f, center, radii, (64, 64)))  # the 64-node plan
        floor = max(floor, np.max(abs(got - want) / mean))
    return nodes, floor


@pytest.mark.parametrize("seed,n", [(10, 2), (11, 3)])
def test_divisor_residues_stay_at_the_floor(monkeypatch, seed, n):
    # every pair-divisor point of shells 0-3 starts at 16 nodes on its outer
    # axis and 32 on its inner one (rho = (0.05, 0.2)), is accepted there,
    # and agrees with the 64^2 rule on the same radii at the rounding floor
    P = sample_params(seed, n, 2, regime="jackson_overlap")
    nodes, floor = _divisor_residues(monkeypatch, P)
    assert len(nodes) >= 20 and all(M == [(16, 32)] for M in nodes.values())
    assert floor < 1e-13


@pytest.mark.parametrize("seed,n", [(10, 2), (11, 3)])
def test_divisor_residues_rest_on_the_estimate(monkeypatch, seed, n):
    # with the start rule blinded to the divisor (rho = _SHRINK on every
    # axis), the acceptance test alone still takes each divisor point to the
    # floor: the points whose 16^2 rule is off double to 32^2
    P = sample_params(seed, n, 2, regime="jackson_overlap")
    residue_radii = ig._residue_radii
    monkeypatch.setattr(ig, "_residue_radii", lambda c, P: (residue_radii(c, P)[0], (ig._SHRINK,) * len(c)))
    nodes, floor = _divisor_residues(monkeypatch, P)
    assert floor < 1e-13
    assert all(M in ([(16, 16)], [(16, 16), (32, 32)]) for M in nodes.values())
    assert any(len(M) == 2 for M in nodes.values())
    if seed == 10:
        assert nodes[tuple(wf.special_point((2, 0), P, "x", (1, 0)))] == [(16, 16), (32, 32)]


def test_residue_estimate_independent_of_chunks(monkeypatch):
    # the even-node sum is selected by global node index, so slabs that start
    # on an odd node (step 3 here) leave the sums, the estimate and the value
    # unchanged; the even-node sum is the offset M/2-node rule itself
    c = (1.0, 2.0 + 0.5j, -1.5j)
    a = (1.3, 2.2 + 0.5j, -1.5j + 0.25)
    radii, M = (0.1, 0.1, 0.1), 8

    def f(t):
        out = 1.0
        for k in range(3):
            out = out / ((t[..., k] - c[k]) * (t[..., k] - a[k]))
        return out

    stack = (np.reshape(c, (3, 1)), np.reshape(radii, (3, 1)))  # a stack of one point
    whole = ig._circle_sums(f, *stack, (M,) * 3)
    calls = []
    monkeypatch.setattr(ig, "_CHUNK", 3 * M)
    sliced = ig._circle_sums(lambda t: calls.append(t.shape[:-1]) or f(t), *stack, (M,) * 3)
    assert len(calls) == M * 3 and (1, 1, 3, M) in calls
    for x, y in zip(whole, sliced):
        assert abs(x - y) < 1e-14 * abs(whole[2])
    j = np.arange(0, M, 2)
    axes = [ck + r * np.exp(2j * np.pi * (j + (k + 1.0) / 5) / M) for k, (ck, r) in enumerate(zip(c, radii))]
    t = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    half = np.sum(f(t) * np.prod(t - np.asarray(c), axis=-1))
    assert abs(sliced[1] - half) < 1e-14 * abs(whole[2])
    estimate = abs(whole[0] / M**3 - whole[1] / (M // 2) ** 3)
    assert estimate > 1e-8 * whole[2] / M**3  # far from settled at this M
    # a plan-less ell = 3 residue: the same value in slabs as in one chunk
    P = sample_params(23, 2, 3)
    g = _jackson_integrand(P)
    pt = wf.special_point((2, 1), P, "x")
    monkeypatch.undo()
    one = ig.multi_residue(g, pt, params=P)
    monkeypatch.setattr(ig, "_CHUNK", 1500)  # one node row of axis 0 per slab
    radii, _ = ig._residue_radii(pt, P)
    assert abs(ig.multi_residue(g, pt, params=P) - one) < 1e-14 * _mean_abs_summand(g, pt, radii, (16, 16, 16))


def test_stacked_residue_is_each_entry_alone():
    # value axes share one set of circles: each entry equals its own residue,
    # at the largest node count any entry needs alone.  Entry 1 carries an
    # extra pole at r / 0.5 on axis 0, outside the catalog, and is about 1e-6
    # the size of entry 0, so an acceptance on a pooled norm, or on entry 0
    # only, stops at entry 0's count and leaves entry 1 unsettled
    P22 = sample_params(6 + 2 + 2, 2, 2, regime="jackson_overlap")
    P21 = sample_params(9, 2, 1, regime="jackson_overlap")
    divisor = wf.special_point((2, 0), P22, "x")
    assert _on_pair_divisor(divisor, P22)
    for P, c in ((P22, divisor), (P21, wf.special_point((1, 0), P21, "x"))):
        f = _jackson_integrand(P)
        radii, _ = ig._residue_radii(c, P)
        a = c[0] + radii[0] / 0.5
        g = lambda t: 1e-6 * radii[0] * f(t) / (t[..., 0] - a)
        alone = []
        for h in (f, g):
            shapes = []
            alone.append((ig.multi_residue(lambda t: shapes.append(t.shape[1:-1]) or h(t), c, params=P), shapes[-1]))
        assert max(alone[0][1]) < 64 and alone[1][1] == (64,) * P.ell
        shapes = []
        stacked = lambda t: shapes.append(t.shape[1:-1]) or np.array(np.broadcast_arrays(f(t), g(t)))
        got = ig.multi_residue(stacked, c, params=P)
        assert got.shape == (2,) and shapes[-1] == (64,) * P.ell
        for h, v, (want, M) in zip((f, g), got, alone):
            assert abs(v - want) < 1e-14 * _mean_abs_summand(h, c, radii, M)


def test_stacked_centres_are_each_point_alone():
    # one stacked call at plain points (16 x 16 nodes) and pair-divisor
    # points (16 x 32 nodes) of the (2, 2) draw, with value axes in front:
    # entry 1 carries an extra pole at r_0 / 0.25 from one plain point's
    # circle, so that point fails at 16 x 16 nodes and goes on at 32 x 32.
    # Each point and entry equals its own call, and the grid calls are the
    # groups of points that share a node tuple
    P = sample_params(6 + 2 + 2, 2, 2, regime="jackson_overlap")
    f = _jackson_integrand(P)
    points = [wf.special_point(m, P, "x", s) for m in combin.index_vectors(2, 2) for s in combin.index_vectors(2, 1)]
    plain = [i for i, c in enumerate(points) if not _on_pair_divisor(c, P)]
    assert plain and len(plain) < len(points)
    k = plain[0]
    rk, _ = ig._residue_radii(points[k], P)
    a = points[k][0] + rk[0] / 0.25
    g = lambda t: f(t) * rk[0] / (t[..., 0] - a)
    h = lambda t: np.array(np.broadcast_arrays(f(t), g(t)))
    alone = []
    for c in points:
        shapes = []
        alone.append((ig.multi_residue(lambda t: shapes.append(t.shape[:-1]) or h(t), c, params=P), shapes))
    assert [M for _, *M in alone[k][1]] == [[16, 16], [32, 32]]
    shapes = []
    got = ig.multi_residue(lambda t: shapes.append(t.shape[:-1]) or h(t), np.transpose(points), params=P)
    assert got.shape == (2, len(points))
    groups = {}
    for _, own in alone:
        for _, *M in own:
            groups[tuple(M)] = groups.get(tuple(M), 0) + 1
    assert shapes == [(n, *M) for M, n in sorted(groups.items())]
    for i, (c, (want, own)) in enumerate(zip(points, alone)):
        M = own[-1][1:]
        radii, _ = ig._residue_radii(c, P)
        assert np.all(abs(got[:, i] - want) < 1e-14 * _mean_abs_summand(h, c, radii, M)), i


@pytest.mark.xfail(
    strict=True,
    raises=ConvergenceError,
    reason="a settled entry is carried to far shells, fails its own test near underflow and aborts the row",
)
def test_value_axes_entries_do_not_abort_each_other():
    # the x-sums of W_(0,2) with w_(2,0) and with w_(2,0) t_1^3 settle alone
    # in 23 and 22 shells; as value axes of one field they must give the same
    # row, not abort at a far residue (centre modulus about 4e-67)
    P = sample_params(10, 2, 2, regime="jackson_overlap")
    W = lambda t: wf.W_ell((0, 2), t, P, "subset")
    w = lambda t: wf.w_trig((2, 0), t, P, "subset")
    w3 = lambda t: w(t) * t[..., 0] ** 3
    alone = [ig.jackson_sum(W, h, P) for h in (w, w3)]
    assert [report["shells"] for _, report in alone] == [23, 22]
    got, _ = ig.jackson_sum(W, lambda t: np.array(np.broadcast_arrays(w(t), w3(t))), P)
    for v, (want, _) in zip(got, alone):
        assert abs(v - want) <= 1e-13 * abs(want)


def test_stacked_cap_names_the_point():
    # three x-points of the (2, 1) draw in one call; the middle one has an
    # extra pole at r / 0.9 from its circle, so it never settles by 64 nodes:
    # the error names that centre, its node count per axis, estimate and mean
    # |summand|
    P = sample_params(9, 2, 1, regime="jackson_overlap")
    points = [wf.special_point((1, 0), P, "x", (s,)) for s in range(3)]
    (r,), _ = ig._residue_radii(points[1], P)
    a = points[1][0] + r / 0.9
    with pytest.raises(ConvergenceError) as err:
        ig.multi_residue(lambda t: 1.0 / (t[..., 0] - a), np.transpose(points), params=P)
    msg = str(err.value)
    assert f"residue at {(complex(points[1][0]),)} not settled at (64,) nodes per axis" in msg
    assert "estimate" in msg and "mean |summand|" in msg
    assert all(str(complex(c[0])) not in msg for c in (points[0], points[2]))


def test_jackson_sum_makes_one_call_per_shell_and_index(monkeypatch):
    # the seed-0 (2, 2) x-sum of suite_jackson: one multi_residue call per
    # shell and index vector m, stacking the shell + 1 p-shifts of x<m>
    P = sample_params(6 + 2 + 2, 2, 2, regime="jackson_overlap")
    IV = combin.index_vectors(2, 2)
    calls = []
    multi_residue = ig.multi_residue
    record = lambda f, c, params: calls.append(np.shape(c)) or multi_residue(f, c, params)
    monkeypatch.setattr(ig, "multi_residue", record)
    Wf = lambda t: wf.W_ell(IV[0], t, P, "subset")
    _, report = ig.jackson_sum(Wf, lambda t: wf.w_trig(IV[-1], t, P, "subset"), P)
    shells = report["shells"]
    assert len(calls) == shells * len(IV)
    assert sum(R for _, R in calls) == sum((shell + 1) * len(IV) for shell in range(shells))
    assert calls == [(2, shell + 1) for shell in range(shells) for _ in IV]


def test_jackson_sum_with_stacked_w_is_each_sum_alone():
    # entry 0 (w t_1) settles in fewer shells than the others: the stacked
    # sum runs until every entry has settled, and reports each entry's numerics
    P = sample_params(9, 2, 1, regime="jackson_overlap")
    IV = combin.index_vectors(2, 1)
    Wf = lambda t: wf.W_ell(IV[0], t, P, "subset")
    w_last = lambda t: wf.w_trig(IV[-1], t, P, "subset")
    ws = [lambda t: w_last(t) * t[..., 0], w_last, lambda t: wf.w_trig(IV[0], t, P, "subset")]
    alone = [ig.jackson_sum(Wf, w, P, side="x") for w in ws]
    val, rep = ig.jackson_sum(Wf, lambda t: np.array([np.broadcast_to(w(t), t.shape[:-1]) for w in ws]), P, side="x")
    shells = [r["shells"] for _, r in alone]
    assert shells[0] < max(shells) and rep["shells"] == max(shells)
    assert val.shape == rep["tail_estimate"].shape == rep["last_shell"].shape == rep["ratio"].shape == (3,)
    for v, tail, (want, r) in zip(val, rep["tail_estimate"], alone):
        assert abs(v - want) < 1e-13 * abs(want)
        assert tail < 1e-12 * abs(want)


def test_jackson_l1_leading_residue():
    # (n, ell) = (1, 1): the single shell-0 residue of the x-side Jackson
    # integrand, at xi z, reproduces the leading term of the closed-form series
    P = sample_params(9, 1, 1, regime="jackson_overlap")
    Wf = lambda t: wf.W_ell((1,), t, P, "subset")
    wfn = lambda t: wf.w_trig((1,), t, P, "subset")
    I0 = complex(ig.hyper_I_many([Wf], [wfn], P, ig.QuadratureSpec(192))[0, 0])
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


def _lattice_exponent(r, p, smax=80):
    """Integer s, |s| <= smax, with r = p^s, or None if r is off the lattice."""
    return next((s for s in range(-smax, smax + 1) if abs(r / p**s - 1.0) < 1e-9), None)


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
                delta = _lattice_exponent(r, p)
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
            for rs in combin.index_vectors(ell, shell):
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
        for rs in combin.index_vectors(ell, shell):
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
        off = {_lattice_exponent(v(s1) / v(s0), p) is None for s0, s1 in ig._signed_shell(2, 1)}
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


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_declared_lattice_weights_match_per_factor_formula(ell):
    rng = np.random.default_rng(70 + ell)
    a, b, al, be, x, alpha = (draw(mod, rng) for mod in (0.3, 0.35, 0.28, 0.31, 0.45, 0.4))
    p = draw(0.25, rng)
    us = np.exp(rng.uniform(np.log(0.01), np.log(3.0), (40, ell)) + 1j * rng.uniform(0, 2 * np.pi, (40, ell)))
    qp = lambda u: qpoch(u, p)
    singles = lambda row: np.prod([u * qp(p * u / a) * qp(p * u / b) / (qp(al * u) * qp(be * u)) for u in row])
    cases = (
        (ig.askey_weight(a, b, al, be, p, ell), singles),
        (ig.askey_general_weight(a, b, al, be, x, p, ell), lambda row: singles(row) * _x_pair_loop(row, x, p)),
        (
            ig.qselberg_weight(alpha, x, p, ell),
            lambda row: np.prod([qp(p * t) / qp(alpha * t) for t in row]) * _x_pair_loop(row, x, p),
        ),
    )
    for weight, formula in cases:
        want = np.array([formula(row) for row in us])
        got = weight(us)
        assert got.shape == (len(us),)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


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
    Ns = [wf.N_coeff(l, P) for l in IV]
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

    xs, ys = ig.special_residue_sum(f, P, "x"), ig.special_residue_sum(f, P, "y")
    assert abs(xs - ys) < 1e-11 * abs(xs)


def test_residue_balance_omega():
    P = sample_params(98, 2, 2)
    om_f = ig.omega_elliptic(P)
    f1 = lambda t: wf.W_ell((1, 1), t, P, "subset")
    f2 = lambda t: wf.W_ell((2, 0), t, P.with_kappa(1 / P.kappa), "subset")
    g = lambda t: om_f(t) * f1(t) * f2(t)
    xs, ys = ig.special_residue_sum(g, P, "x"), ig.special_residue_sum(g, P, "y")
    assert abs(xs - ys) / abs(xs) < 1e-8


def test_special_residue_sum_at_ell0_evaluates_the_empty_point():
    P = sample_params(3, 2, 1, regime="jackson_overlap").with_ell(0)
    calls = []
    f = lambda t: calls.append(t.shape) or np.full(t.shape[:-1], 3.0 + 1j)
    assert ig.special_residue_sum(f, P, "x") == ig.special_residue_sum(f, P, "y") == 3.0 + 1j
    assert calls == [(1, 0), (1, 0)]


def test_jackson_sum_at_ell0_stops_after_the_first_shells():
    # shell 0 is the empty point and every later shell is empty, so the sum
    # stops at the first shell the stopping rule allows, not at the cutoff
    P = sample_params(3, 2, 1, regime="jackson_overlap").with_ell(0)
    calls = []
    Wf = lambda t: calls.append(t.shape) or wf.W_ell((0, 0), t, P, "subset")
    wfn = lambda t: wf.w_trig((0, 0), t, P, "subset")
    for side in ("x", "y"):
        val, report = ig.jackson_sum(Wf, wfn, P, side=side)
        assert val == ig.hyper_I_many([Wf], [wfn], P)[0, 0]
        assert report["shells"] == 4
    assert calls == [(1, 0)] * 4


def test_stacked_fields_at_ell0_give_stacked_values():
    # at ell = 0 the empty point's value keeps the field's value axes
    P = sample_params(3, 2, 1, regime="jackson_overlap").with_ell(0)
    vals = np.array([3.0 + 1j, -2.0, 0.5j])
    f = lambda t: vals[:, None] * np.ones(t.shape[:-1])
    for side in ("x", "y"):
        got = ig.special_residue_sum(f, P, side)
        assert got.shape == (3,) and np.array_equal(got, vals)
    Wf = lambda t: wf.W_ell((0, 0), t, P, "subset")
    val, report = ig.jackson_sum(Wf, f, P, side="x")
    assert np.array_equal(val, ig.hyper_I_many([Wf], [lambda t, v=v: v * np.ones(t.shape[:-1]) for v in vals], P)[0])
    assert report["shells"] == 4 and report["tail_estimate"].shape == (3,)


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
