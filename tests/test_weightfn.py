import numpy as np

from qkzhyper import combin, numkernel as nk, weightfn as wf
from qkzhyper.grid import ProductGrid
from qkzhyper.numkernel import ParameterSet, qpoch, theta

P = ParameterSet(
    p=0.13 + 0.05j,
    eta=1.9 + 0.3j,
    kappa=0.7 + 0.2j,
    xi=(0.38 + 0.05j, 0.31 - 0.08j),
    z=(np.exp(0.4j), np.exp(2.1j)),
    n=2,
    ell=2,
)
RNG = np.random.default_rng(0)
T2 = np.exp(1j * RNG.uniform(0, 2 * np.pi, (6, 2))) * RNG.uniform(0.85, 1.2, (6, 2))


def params(n, ell, seed=0, kappa=0.7 + 0.2j):
    rng = np.random.default_rng(seed)
    return ParameterSet(
        p=0.15 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        eta=rng.uniform(1.7, 2.3) * np.exp(1j * rng.uniform(-0.4, 0.4)),
        kappa=kappa,
        xi=tuple(rng.uniform(0.3, 0.48) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(n)),
        z=tuple(np.exp(1j * ph) for ph in np.sort(rng.uniform(0, 2 * np.pi, n))),
        n=n,
        ell=ell,
    )


def test_w_ell1_display():
    P1 = params(2, 1, seed=5)
    t1 = 0.93 * np.exp(1.1j)
    for m in range(2):
        l = tuple(1 if k == m else 0 for k in range(2))
        want = t1 / (t1 - P1.xi[m] * P1.z[m])
        for lo in range(m):
            want *= (P1.xi[lo] * t1 - P1.z[lo]) / (t1 - P1.xi[lo] * P1.z[lo])
        got = wf.w_trig(l, np.array([t1]), P1)
        assert abs(got - want) / abs(want) < 1e-13


def test_w22_displays():
    t = T2[0]
    eta, xi, z = P.eta, P.xi, P.z
    w20 = (
        t[0] * t[1] / ((t[0] - xi[0] * z[0]) * (t[1] - xi[0] * z[0])) * (t[0] - t[1]) / (eta * t[0] - t[1])
    )
    assert abs(wf.w_trig((2, 0), t, P) - w20) / abs(w20) < 1e-12
    w11 = t[0] * t[1] / ((t[0] - xi[0] * z[0]) * (t[1] - xi[1] * z[1])) * (xi[0] * t[1] - z[0]) / (
        t[1] - xi[0] * z[0]
    ) + t[0] * t[1] / ((t[1] - xi[0] * z[0]) * (t[0] - xi[1] * z[1])) * (xi[0] * t[0] - z[0]) / (
        t[0] - xi[0] * z[0]
    ) * (t[0] - eta * t[1]) / (eta * t[0] - t[1])
    assert abs(wf.w_trig((1, 1), t, P) - w11) / abs(w11) < 1e-12


def test_w_forms_agree():
    P3 = params(2, 3, seed=7)
    t = np.exp(1j * RNG.uniform(0, 2 * np.pi, (20, 3))) * RNG.uniform(0.85, 1.2, (20, 3))
    for l in combin.index_vectors(2, 3):
        a = wf.w_trig(l, t, P3, "symmetrized")
        b = wf.w_trig(l, t, P3, "subset")
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_w_tau_identity_and_involution():
    l = (1, 1)
    t = T2[1]
    assert abs(wf.w_tau(l, t, P, (0, 1)) - wf.w_trig(l, t, P)) < 1e-13 * abs(wf.w_trig(l, t, P))
    # permuting twice returns the original
    swapped = wf.w_tau(combin.permute_index(l, (1, 0)), t, P.permuted((1, 0)), (1, 0))
    assert abs(swapped - wf.w_trig(l, t, P)) / abs(wf.w_trig(l, t, P)) < 1e-12


def test_w_tau_reversed_ell1_display():
    P1 = params(2, 1, seed=9)
    tau = (1, 0)
    t1 = 1.05 * np.exp(0.4j)
    for m in range(2):
        l = tuple(1 if k == m else 0 for k in range(2))
        want = t1 / (t1 - P1.xi[m] * P1.z[m])
        for lo in range(m + 1, 2):
            want *= (P1.xi[lo] * t1 - P1.z[lo]) / (t1 - P1.xi[lo] * P1.z[lo])
        got = wf.w_tau(l, np.array([t1]), P1, tau)
        assert abs(got - want) / abs(want) < 1e-12


def test_W_ell1_display():
    P1 = params(2, 1, seed=11)
    t1 = 0.91 * np.exp(2.3j)
    p = P1.p
    for m in range(2):
        l = tuple(1 if k == m else 0 for k in range(2))
        km = wf.kappa_m(P1, m)
        want = theta(t1 / (km * P1.z[m]), p) / theta(t1 / (P1.xi[m] * P1.z[m]), p)
        for lo in range(m):
            want *= theta(P1.xi[lo] * t1 / P1.z[lo], p) / theta(t1 / (P1.xi[lo] * P1.z[lo]), p)
        got = wf.W_ell(l, np.array([t1]), P1)
        assert abs(got - want) / abs(want) < 1e-12


def test_W22_display_and_forms():
    t = T2[2]
    p, eta, ka = P.p, P.eta, P.kappa
    xi, z = P.xi, P.z
    W20 = (
        theta(xi[1] * t[0] / (ka * z[0]), p)
        * theta(xi[1] * t[1] / (ka * z[0]), p)
        / (theta(t[0] / (xi[0] * z[0]), p) * theta(t[1] / (xi[0] * z[0]), p))
        * theta(t[0] / t[1], p)
        / theta(eta * t[0] / t[1], p)
    )
    assert abs(wf.W_ell((2, 0), t, P) - W20) / abs(W20) < 1e-11
    for l in combin.index_vectors(2, 2):
        a = wf.W_ell(l, T2, P, "symmetrized")
        b = wf.W_ell(l, T2, P, "subset")
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-11


def test_sl_invariance():
    for l in combin.index_vectors(2, 2):
        f = lambda tt: wf.w_trig(l, tt, P)
        F = lambda tt: wf.W_ell(l, tt, P)
        for sigma in ((1, 0),):
            g = combin.sym_act(f, sigma, P.eta)
            G = combin.sym_act(F, sigma, P.eta, P.p)
            t = T2[3]
            assert abs(g(t) - f(t)) / abs(f(t)) < 1e-11
            assert abs(G(t) - F(t)) / abs(F(t)) < 1e-11


def test_special_points():
    P1 = params(2, 1, seed=13)
    for m in range(2):
        l = tuple(1 if k == m else 0 for k in range(2))
        assert abs(wf.special_point(l, P1, "x")[0] - P1.xi[m] * P1.z[m]) < 1e-14
        assert abs(wf.special_point(l, P1, "y")[0] - P1.z[m] / P1.xi[m]) < 1e-14
    pt = wf.special_point((1, 1), P, "x")
    assert abs(pt[0] - P.xi[0] * P.z[0]) < 1e-14 and abs(pt[1] - P.xi[1] * P.z[1]) < 1e-14
    # shift multiplies the first coordinate of a block by p (cumulative)
    base = wf.special_point((2, 0), P, "x")
    sh = wf.special_point((2, 0), P, "x", shift=(1, 0))
    assert abs(sh[0] - P.p * base[0]) < 1e-14 and abs(sh[1] - base[1]) < 1e-14


def test_c_coeff_displays_and_cN():
    P1 = params(2, 1, seed=15)
    p, ka = P1.p, P1.kappa
    xi = P1.xi
    want = (
        theta(xi[0] ** 2, p)
        / (theta(xi[1] / (ka * xi[0]), p) * theta(xi[0] * xi[1] / ka, p))
        * xi[1] ** 2
    )
    assert abs(wf.c_coeff((1, 0), P1) - want) / abs(want) < 1e-12
    eta = P.eta
    xi = P.xi
    ka = P.kappa
    p = P.p
    c20 = (
        xi[1] ** 4
        * theta(eta**2, p)
        / theta(eta, p)
        * theta(xi[0] ** 2, p)
        * theta(xi[0] ** 2 / eta, p)
        / (
            theta(xi[0] * xi[1] / ka, p)
            * theta(xi[0] * xi[1] / (eta * ka), p)
            * theta(xi[1] / (ka * xi[0]), p)
            * theta(eta * xi[1] / (ka * xi[0]), p)
        )
    )
    assert abs(wf.c_coeff((2, 0), P) - c20) / abs(c20) < 1e-12
    pp = qpoch(P.p, P.p)
    for seed in range(5):
        Pr = params(2, 2, seed=20 + seed, kappa=0.6 + 0.3j * seed / 4 + 0.4j)
        for l in combin.index_vectors(2, 2):
            c = wf.c_coeff(l, Pr)
            N = wf.N_coeff(l, Pr)
            rhs = Pr.eta ** (Pr.ell * (1 - Pr.ell) / 2) * Pr.kappa**Pr.ell * Pr.xi_prod**Pr.ell / (
                qpoch(Pr.p, Pr.p) ** (3 * Pr.ell) * N
            )
            assert abs(c - rhs) / abs(c) < 1e-10


def test_adjusting_factor_quasi_periodicity():
    l = (1, 1)
    Y, alphas = wf.adjusting_factor(l, P)
    assert any(abs(a - 1) > 1e-6 for a in alphas)
    for m in range(2):
        zs = list(P.z)
        zs[m] = P.p * zs[m]
        ratio = Y(tuple(zs)) / Y(P.z)
        assert abs(ratio - alphas[m]) / abs(alphas[m]) < 1e-11
    # constant choice allowed when all multipliers are one
    Pflat = P.with_kappa(1.0).with_ell(0)
    Y0, al0 = wf.adjusting_factor((0, 0), Pflat)
    assert all(abs(a - 1) < 1e-12 for a in al0)
    assert abs(Y0(Pflat.z) - 1) < 1e-12


def test_elliptic_space_quasi_periodicity():
    l = (1, 1)
    Y, _ = wf.adjusting_factor(l, P)
    f = lambda tt, zz: Y(zz) * wf.W_ell(l, tt, P.with_z(zz))
    t = T2[4]
    for a in range(2):
        ts = t.copy()
        ts[a] *= P.p
        fac = P.kappa * P.eta ** (P.ell - 2 * (a + 1) + 1) / P.xi_prod
        assert abs(f(ts, P.z) - fac * f(t, P.z)) / abs(f(t, P.z)) < 1e-10
    for m in range(2):
        zs = list(P.z)
        zs[m] *= P.p
        assert abs(f(t, tuple(zs)) - P.xi[m] ** P.ell * f(t, P.z)) / abs(f(t, P.z)) < 1e-10


def test_Q_basis_trivial():
    l = (2, 0)
    t = T2[5]
    assert abs(wf.basis_aux("Q", l, t, P) - 1.0) < 1e-13


def test_P_and_J_vanishing_lemmas():
    IV = combin.index_vectors(2, 2)
    for fam, closed in (("P", wf.P_at_x_closed), ("J", wf.J_at_x_closed)):
        vals = {}
        for l in IV:
            for m in IV:
                vals[(l, m)] = wf.basis_aux(fam, l, wf.special_point(m, P, "x"), P)
        scale = max(abs(v) for v in vals.values())
        for l in IV:
            for m in IV:
                if not combin.dominance_le(l, m):
                    assert abs(vals[(l, m)]) <= 1e-10 * scale
            ref = closed(l, P)
            assert abs(vals[(l, l)] - ref) / abs(ref) < 1e-10


def test_star_product_triviality_and_factorization():
    one = lambda t: np.ones(t.shape[:-1], dtype=complex)
    g = lambda t: t[..., 0] + 0.2
    h = wf.star_product(one, g, 0, 1, 0, P, "trig")
    t1 = np.array([0.9 * np.exp(0.2j)])
    assert abs(h(t1) - g(t1[None, :].reshape(1, 1))[0]) < 1e-12
    f1 = wf.one_block_w(1, 0, P)
    f2 = wf.one_block_w(1, 1, P)
    prod = wf.star_product(f1, f2, 1, 1, 1, P, "trig")
    t = T2[0]
    direct = wf.w_trig((1, 1), t, P, "subset")
    assert abs(prod(t) - direct) / abs(direct) < 1e-11
    # elliptic factorization: W_l from one-block factors with block kappas
    l = (1, 1)
    F1 = wf.one_block_W(1, 0, P, wf.kappa_lm(l, P, 0))
    F2 = wf.one_block_W(1, 1, P, wf.kappa_lm(l, P, 1))
    prodE = wf.star_product(F1, F2, 1, 1, 1, P, "elliptic")
    directE = wf.W_ell(l, t, P, "subset")
    assert abs(prodE(t) - directE) / abs(directE) < 1e-11


def test_star_product_associativity():
    P3 = params(3, 3, seed=31)
    h1 = lambda t: 1.0 + 0.3 * t[..., 0]
    h2 = lambda t: 1.0 / (t[..., 0] - 0.2)
    h3 = lambda t: 1.7 + 0 * t[..., 0]
    a12 = wf.star_product(h1, h2, 1, 1, 1, P3, "trig")
    lhs = wf.star_product(a12, h3, 2, 1, 2, P3, "trig")
    b23 = wf.star_product(h2, h3, 1, 1, 1, P3.permuted((1, 2, 0)), "trig")
    rhs = wf.star_product(h1, b23, 1, 2, 1, P3, "trig")
    t3 = np.exp(1j * RNG.uniform(0, 2 * np.pi, 3)) * RNG.uniform(0.9, 1.1, 3)
    assert abs(lhs(t3) - rhs(t3)) / abs(lhs(t3)) < 1e-12


def test_discrete_shift_commutativity_and_triviality():
    quasi = lambda t, z: np.ones(t.shape[:-1], dtype=complex)
    Pk = P.with_kappa(1.0)
    # with phi = 1 (kappa = 1 and no poles contributing) D of a constant in a
    # z-direction vanishes: phi_{ell+m} is not 1, so test the t-direction
    # commutativity instead
    f = lambda t, z: t[..., 0] ** 2 + t[..., 1] / (t[..., 0] - 0.3)
    t = T2[1]
    D0 = wf.discrete_shift(f, 0, P, "D")
    D1 = wf.discrete_shift(f, 1, P, "D")
    D01 = wf.discrete_shift(D0, 1, P, "D")
    D10 = wf.discrete_shift(D1, 0, P, "D")
    a = D01(t, P.z)
    b = D10(t, P.z)
    assert abs(a - b) / max(abs(a), 1e-300) < 1e-12
    # z-direction shifts commute too
    D2 = wf.discrete_shift(f, 2, P, "D")
    D3 = wf.discrete_shift(f, 3, P, "D")
    a = wf.discrete_shift(D2, 3, P, "D")(t, P.z)
    b = wf.discrete_shift(D3, 2, P, "D")(t, P.z)
    assert abs(a - b) / max(abs(a), 1e-300) < 1e-12


def test_coboundary_exact_form_identity():
    Pk = P.with_kappa(P.kappa_special(+1))
    rng = np.random.default_rng(8)
    t = np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) * rng.uniform(0.9, 1.1, 2)
    for lm in combin.index_vectors(2, 1):
        coeffs = wf.coboundary_coeffs(lm, Pk)
        lhs = 0.0
        for m in range(2):
            lp = list(lm)
            lp[m] += 1
            lhs += coeffs[m] * wf.w_trig(tuple(lp), t, Pk, "subset")
        rhs = 0.0
        for a in range(2):
            sigma = (0, 1) if a == 0 else (1, 0)
            g = lambda tt, zz, s=sigma: combin.sym_act(
                lambda q: wf.w_trig(lm, np.asarray(q)[..., 1:], Pk.with_z(zz), "subset"), s, Pk.eta
            )(tt)
            rhs += wf.discrete_shift(g, a, Pk, "D")(t, Pk.z)
        rhs *= 1 - Pk.eta
        assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_boundary_elements_ell1():
    P1 = params(2, 1, seed=41)
    one = lambda t: np.ones(t.shape[:-1], dtype=complex)
    q = wf.boundary_element("Q", one, P1)
    t1 = np.array([1.1 * np.exp(0.9j)])
    assert abs(q(t1) - 1.0) < 1e-12
    qp = wf.boundary_element("Qprime", one, P1)
    want = 1.0 / t1[0]
    for m in range(2):
        want *= theta(P1.xi[m] * t1[0] / P1.z[m], P1.p) / theta(t1[0] / (P1.xi[m] * P1.z[m]), P1.p)
    assert abs(qp(t1) - want) / abs(want) < 1e-12


def test_W_tau_identity_reversed_display_and_involution():
    P1 = params(2, 1, seed=51)
    t1 = np.array([0.97 * np.exp(1.7j)])
    l = (1, 0)
    ref = wf.W_ell(l, t1, P1)
    assert abs(wf.W_tau(l, t1, P1, (0, 1)) - ref) / abs(ref) < 1e-13
    # reversed order: first factor becomes kappa-tilde_m with inverted xi-products
    tau = (1, 0)
    for m in range(2):
        l = tuple(1 if k == m else 0 for k in range(2))
        ktil = P1.kappa
        for lo in range(2):
            if lo < m:
                ktil /= P1.xi[lo]
            elif lo > m:
                ktil *= P1.xi[lo]
        want = theta(t1[0] / (ktil * P1.z[m]), P1.p) / theta(t1[0] / (P1.xi[m] * P1.z[m]), P1.p)
        for lo in range(m + 1, 2):
            want *= theta(P1.xi[lo] * t1[0] / P1.z[lo], P1.p) / theta(
                t1[0] / (P1.xi[lo] * P1.z[lo]), P1.p
            )
        got = wf.W_tau(l, t1, P1, tau)
        assert abs(got - want) / abs(want) < 1e-12
    # double relabel returns the original
    l = (1, 0)
    back = wf.W_tau(combin.permute_index(l, tau), t1, P1.permuted(tau), tau)
    assert abs(back - ref) / abs(ref) < 1e-12


def _kernel_call_sizes(monkeypatch, f, t):
    """Output sizes of the kernel calls f(t) makes, in call order."""
    calls = []
    for name in ("qpoch_array", "theta_array", "qpoch_ratio_array"):
        kernel = getattr(nk, name)

        def counted(*args, kernel=kernel):
            out = kernel(*args)
            calls.append(out.size)
            return out

        monkeypatch.setattr(nk, name, counted)
    f(t)
    monkeypatch.undo()
    return calls


def _grid_kernel_calls(monkeypatch, f, t, M):
    """Kernel calls of f(t) on more points than one axis row of M nodes."""
    return sum(size > M for size in _kernel_call_sizes(monkeypatch, f, t))


def test_subset_W_grid_kernel_calls(monkeypatch):
    # one paired-ratio call per coordinate set with a theta factor in any
    # assignment term, of two rows per factor ((u; p) and (p/u; p) ends),
    # on M points per axis and M^2 per pair: no one-coordinate factor
    # reaches the pair grid.  With the front in every assignment term, a
    # front pair and the same assignment pair cancel, e.g. l = (1, 1): the
    # (0, 1) assignment keeps no pair factor
    M = 8
    for n, ell in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        Pn = params(n, ell, seed=n + ell)
        t = ProductGrid([np.exp(2j * np.pi * (np.arange(M) + (a + 1) / (ell + 2)) / M) for a in range(ell)])
        for l in combin.index_vectors(n, ell):
            rows = {}
            for term in wf.subset_form("theta", l, Pn).terms:
                for f in term:
                    key = frozenset(k for k in (f.a, f.b) if k is not None)
                    rows[key] = rows.get(key, 0) + 2
            want = sorted(r * M ** len(key) for key, r in rows.items())
            got = _kernel_call_sizes(monkeypatch, lambda tt: wf.W_ell(l, tt, Pn, "subset"), t)
            assert sorted(got) == want, (l, got, want)
            if l == (1, 1):
                # each axis: 3 theta factors over both terms, 6 rows; the
                # pair: the (1, 0) term's front and assignment factors, 4 rows
                assert want == [6 * M, 6 * M, 4 * M**2]


def test_symmetrized_W_grid_kernel_calls(monkeypatch):
    # on a product grid each one-coordinate factor stays on its axis row: the
    # only kernel calls above M points are the twist ratios
    # theta(eta^-1 r) / theta(eta r), two qpoch ratios per inversion of sigma
    M = 8
    for n, ell in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        Pn = params(n, ell, seed=n + ell)
        t = ProductGrid([np.exp(2j * np.pi * (np.arange(M) + (a + 1) / (ell + 2)) / M) for a in range(ell)])
        twists = 2 * sum(s[a] > s[b] for s in combin.all_perms(ell) for a in range(ell) for b in range(a + 1, ell))
        for l in combin.index_vectors(n, ell):
            assert _grid_kernel_calls(monkeypatch, lambda tt: wf.W_ell(l, tt, Pn), t, M) == twists, l


def test_ell_zero_single_point_and_batch():
    # ell = 0: the point (0,) gives a number and a (3, 0) batch three values,
    # as the declared integrands do
    P0 = params(2, 0, seed=9)
    l = (0, 0)
    fields = [lambda t, form=form: wf.W_ell(l, t, P0, form) for form in ("symmetrized", "subset")]
    fields += [lambda t, form=form: wf.w_trig(l, t, P0, form) for form in ("symmetrized", "subset")]
    fields += [lambda t, kind=kind: wf.basis_aux(kind, l, t, P0) for kind in ("Q", "g", "P", "Theta", "G", "J")]
    for f in fields:
        one = f(np.zeros(0))
        assert isinstance(one, complex) and one != 0
        np.testing.assert_array_equal(f(np.zeros((3, 0))), np.full(3, one))
    assert isinstance(wf.subset_form("theta", l, P0)(np.zeros(0)), complex)
