import numpy as np
import pytest

from qkzhyper import combin, integrate as ig, weightfn as wf
from qkzhyper.cli_params import sample_params
from qkzhyper.grid import ProductGrid
from qkzhyper.numkernel import phase_phi


def flat_grid(centers, radii, M):
    """The staggered trapezoid grid as one (M^ell, ell) row-major array."""
    ell = len(radii)
    axes = [
        c + r * np.exp(2j * np.pi * (np.arange(M) + (a + 1.0) / (ell + 2.0)) / M)
        for a, (c, r) in enumerate(zip(centers, radii))
    ]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def test_product_grid_contract():
    x, y = np.array([1.0, 2.0, 3.0]), np.array([1j, 2j])
    t = ProductGrid([x, y])
    assert t.shape == (3, 2, 2) and t.size == 12 and t.ndim == 3
    assert t[..., 0].shape == (3, 1) and t[..., 1].shape == (1, 2)
    assert t[..., -1].shape == (1, 2)
    dense = np.asarray(t)
    assert dense.shape == t.shape and dense.dtype == np.complex128
    np.testing.assert_array_equal(dense[..., 0], np.broadcast_to(x[:, None], (3, 2)))
    np.testing.assert_array_equal(dense[..., 1], np.broadcast_to(y[None, :], (3, 2)))
    # a list or slice of coordinates is the grid of those rows, each row on
    # its own grid axis; any other index is taken on the dense array
    for idx in ([1], [1, 0], [0, 1, 0], slice(1, None), slice(None, None, -1), []):
        sub = t[..., idx]
        assert isinstance(sub, ProductGrid) and sub.shape == dense[..., idx].shape
        np.testing.assert_array_equal(np.asarray(sub), dense[..., idx])
    assert t[..., [1, 0]][..., 0] is t[..., 1] and t[..., ::-1][..., -1] is t[..., 0]
    u = ProductGrid([x, y, np.array([5.0, 6.0, 7.0, 8.0])])
    perm = u[..., [2, 0, 1]]
    np.testing.assert_array_equal(np.asarray(perm), np.asarray(u)[..., [2, 0, 1]])
    assert perm[..., 0].shape == (1, 1, 4) and perm[..., [1, 2]][..., 1].shape == (1, 2, 1)
    np.testing.assert_array_equal(t[1], dense[1])
    np.testing.assert_array_equal(t[..., 0, None], dense[..., 0, None])
    with pytest.raises(ValueError):
        np.array(t, copy=False)
    with pytest.raises(ValueError):
        t[..., 0][0, 0] = 5.0


@pytest.mark.parametrize(
    "centers,radii,M",
    [
        ((0.0,), (1.0,), 16),
        ((0.3 + 0.1j, -1.0), (0.05, 0.2), 12),
        ((0.0,) * 3, (1.0, 0.9, 1.1), 96),
    ],
)
def test_grid_chunks_match_flat_grid(centers, radii, M):
    ell = len(radii)
    want = flat_grid(centers, radii, M)
    start = 0
    for _, t in ig._grid_slabs(centers, radii, M):
        assert isinstance(t, ProductGrid)
        assert t.shape[1:-1] == (M,) * (ell - 1)  # a slab along axis 0
        assert t.shape[:-1] == np.broadcast_shapes(*(t[..., a].shape for a in range(ell)))
        assert t.size // ell <= ig._CHUNK
        rows = np.asarray(t).reshape(-1, ell)
        np.testing.assert_array_equal(rows, want[start : start + len(rows)])
        start += len(rows)
    assert start == M**ell
    if M == 96:
        assert start > ig._CHUNK  # the 96^3 grid is split into slabs


def test_grid_chunks_fix_leading_axes(monkeypatch):
    # a row of axis 0 alone exceeds the chunk: axis 0 is fixed one node at a
    # time and axis 1 is cut into slabs, still in row-major node order
    monkeypatch.setattr(ig, "_CHUNK", 20)
    centers, radii, M = (0.0, 0.5, 1j), (1.0, 0.3, 0.2), 6
    want = flat_grid(centers, radii, M)
    chunks = [t for _, t in ig._grid_slabs(centers, radii, M)]
    assert all(t.shape[0] == 1 and t.shape[2] == M and t.size // 3 <= 20 for t in chunks)
    got = np.concatenate([np.asarray(t).reshape(-1, 3) for t in chunks])
    np.testing.assert_array_equal(got, want)


def _integrands(P):
    ell = P.ell
    IV = combin.index_vectors(P.n, ell)
    l = IV[len(IV) // 2]
    a, b, c, x, p = 0.35 + 0.1j, 0.4 - 0.05j, 1.2 + 0.3j, 0.42 * np.exp(0.7j), 0.2 * np.exp(1.3j)
    Plow = P.with_kappa(P.kappa / P.eta).with_ell(ell - 1)
    lows = combin.index_vectors(P.n, ell - 1)
    Wlow = lambda t: wf.W_ell(lows[-1], t, Plow, "subset")
    blocks = (wf.one_block_W(ell - 1, 0, P, P.kappa), wf.one_block_W(1, 1, P, P.kappa * P.eta))
    return {
        "phase_phi": lambda t: phase_phi(t, P),
        "W_ell": lambda t: wf.W_ell(l, t, P, "subset"),
        "w_trig": lambda t: wf.w_trig(l, t, P, "subset"),
        "W_ell_symmetrized": lambda t: wf.W_ell(l, t, P),
        "boundary_Q": wf.boundary_element("Q", Wlow, P),
        "boundary_Qprime": wf.boundary_element("Qprime", Wlow, P),
        "star_product_elliptic": wf.star_product(*blocks, ell - 1, 1, 1, P, "elliptic"),
        "one_block_W": wf.one_block_W(ell, 0, P, P.kappa),
        "omega_elliptic": ig.omega_elliptic(P),
        "omega_trig": ig.omega_trig(P),
        "qbeta": ig.qbeta_integrand(a, b, c, x, p, ell),
    }


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_integrands_on_product_grid_match_dense(ell):
    P = sample_params(40 + ell, 2, ell)
    _, t = next(ig._grid_slabs((0.0,) * ell, (1.0,) * ell, 6))
    dense = np.asarray(t)
    for name, f in _integrands(P).items():
        got = np.broadcast_to(f(t), t.shape[:-1])
        want = np.asarray(f(dense))
        assert want.shape == t.shape[:-1], name
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, name


@pytest.mark.parametrize("ell", [2, 3])
def test_single_coordinate_integrands(ell):
    # an integrand of one coordinate returns a value shaped like that axis;
    # the sum must still run over the whole grid
    g = lambda t: 1.0 / (1 - 0.5 * t[..., 0])
    want = (2j * np.pi) ** ell
    assert abs(ig.torus_integral(g, ell, ig.QuadratureSpec(64)) - want) < 1e-12 * abs(want)
    assert abs(ig.torus_integral(lambda t: 2.5, ell, ig.QuadratureSpec(8)) - 2.5 * want) < 1e-12 * abs(want)
    # nested residues: a pole in t_0 alone has zero residue in the other axes
    c = tuple(1.0 + 0.5j * a for a in range(ell))
    plan = ig.ResiduePlan(c, (0.1,) * ell, 16)
    assert abs(ig.multi_residue(lambda t: 1.0 / (t[..., 0] - c[0]), c, plan=plan)) < 1e-13
    assert abs(ig.multi_residue(lambda t: 3.0, c, plan=plan)) < 1e-13
