import itertools
import math

import mpmath
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


def test_batched_grid_is_the_stack_of_single_grids():
    # node rows (R, M_a): entry r of the batch is the single grid of the rows
    # r, under t[..., a], list and slice sub-grids, pair and np.asarray
    rng = np.random.default_rng(5)
    R, Ms = 3, (4, 5, 2)
    rows = [rng.normal(size=(R, M)) + 1j * rng.normal(size=(R, M)) for M in Ms]
    t = ProductGrid(rows)
    assert t.shape == (R, *Ms, 3) and t.ndim == 5 and t.size == R * math.prod(Ms) * 3
    dense = np.asarray(t)
    assert dense.shape == t.shape
    for a in range(3):
        assert t[..., a].shape == (R,) + tuple(M if b == a else 1 for b, M in enumerate(Ms))
    for r in range(R):
        single = ProductGrid([x[r] for x in rows])
        np.testing.assert_array_equal(dense[r], np.asarray(single))
        for a in range(3):
            np.testing.assert_array_equal(t[..., a][r], single[..., a])
        for sel in ([2, 0], [1], [0, 1, 0], slice(1, None), slice(None, None, -1)):
            sub = t[..., sel]
            assert isinstance(sub, ProductGrid) and sub.shape == dense[..., sel].shape
            np.testing.assert_array_equal(np.asarray(sub)[r], np.asarray(single[..., sel]))
        for a, b in itertools.permutations(range(3), 2):
            x, idx = t.pair(a, b)
            assert idx is None
            np.testing.assert_array_equal(x[r], single.pair(a, b)[0])


@pytest.mark.parametrize("chunk", [None, 40, 20])
def test_batched_grid_chunks_match_each_grid(monkeypatch, chunk):
    # stacked centres and radii (ell, R): the chunks walk the R grids in
    # order, each node of each grid once, with slices[0] the points held; at
    # _CHUNK = 40 a chunk holds one point (M^2 = 36 nodes), at 20 one point
    # is cut into slabs along axis 0
    if chunk is not None:
        monkeypatch.setattr(ig, "_CHUNK", chunk)
    centers = np.array([[0.3 + 0.1j, 1.0, -2.0j], [-1.0, 0.5j, 2.0]])
    radii = np.array([[0.05, 0.1, 0.2], [0.2, 0.3, 0.1]])
    M, R = 6, 3
    want = np.stack([flat_grid(centers[:, r], radii[:, r], M) for r in range(R)])
    got = np.zeros_like(want)
    seen = np.zeros(want.shape[:-1], dtype=int)
    for slices, t in ig._grid_slabs(centers, radii, M):
        assert t.size // 2 <= ig._CHUNK and t.shape[0] == slices[0].stop - slices[0].start
        for i, r in enumerate(range(R)[slices[0]]):
            block = np.asarray(t)[i]
            rows = np.arange(M * M).reshape(M, M)[tuple(slices[1:])].ravel()
            got[r, rows] = block.reshape(-1, 2)
            seen[r, rows] += 1
    assert (seen == 1).all()
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_declared_fields_on_a_batched_grid_match_each_point(ell):
    # the phase function and the subset W_ell on a batched residue grid at
    # the special points x<m> of shells 1 and 2: each entry is the field on
    # that point's own grid, up to the one truncation per block over the batch
    P = sample_params(40 + ell, 2, ell, regime="jackson_overlap")
    mvec = combin.index_vectors(2, ell)[0]
    points = [wf.special_point(mvec, P, "x", s) for shell in (1, 2) for s in combin.index_vectors(ell, shell)]
    radii = [tuple(0.01 * abs(c) for c in pt) for pt in points]
    (_, t), *rest = ig._grid_slabs(np.transpose(points), np.transpose(radii), 8)
    assert not rest and t.shape[0] == len(points) > 1
    fields = (lambda t: phase_phi(t, P), lambda t: wf.W_ell(mvec, t, P, "subset"))
    for r, (pt, rr) in enumerate(zip(points, radii)):
        (_, single), *_ = ig._grid_slabs(pt, rr, 8)
        for f in fields:
            got, want = np.broadcast_to(f(t), t.shape[:-1])[r], np.broadcast_to(f(single), single.shape[:-1])
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-15


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


@pytest.mark.parametrize("ell,M,radius,chunk", [(2, 16, 1.0, None), (2, 128, 0.8, None), (3, 96, 1.0, None), (3, 6, 1.3, 20)])
def test_torus_pair_tables_match_dense_ratios(monkeypatch, ell, M, radius, chunk):
    # on a staggered torus (every centre 0, one radius) t_a / t_b takes M
    # values: pair(a, b) returns them, as exp(2 pi i (d + (a - b) / (ell + 2)) / M),
    # and the indices that gather them onto the pair grid, in every slab, also
    # when the leading axes are fixed one node at a time (_CHUNK = 20 at
    # M = 6, ell = 3).  np.exp rounds such a row by up to 1.7e-15 at M = 96,
    # and the dense ratio carries that rounding from both of its nodes.
    if chunk is not None:
        monkeypatch.setattr(ig, "_CHUNK", chunk)
    exact = {
        (a, b): np.array([complex(mpmath.expjpi(2 * (d + mpmath.mpf(a - b) / (ell + 2)) / M)) for d in range(M)])
        for a, b in itertools.permutations(range(ell), 2)
    }
    slabs = 0
    for _, t in ig._grid_slabs((0.0,) * ell, (radius,) * ell, M):
        slabs += 1
        for (a, b), want_x in exact.items():
            x, idx = t.pair(a, b)
            want = t[..., a] / t[..., b]
            assert x.shape == (M,) and idx.shape == want.shape
            assert np.max(np.abs(x - want_x)) < 2e-15
            assert np.max(np.abs(x[idx] - want)) < 4e-15
    if (M, chunk) in ((96, None), (6, 20)):
        assert slabs > 1 and t.shape[0] < M  # the grid was split into slabs
    if chunk is not None:
        assert t.shape[:2] == (1, 3)  # axis 0 fixed, axis 1 cut


@pytest.mark.parametrize(
    "centers,radii",
    [((0.3 + 0.1j, -1.0), (0.05, 0.2)), ((0.5, 0.5), (0.1, 0.1)), ((0.0,) * 3, (1.0, 0.9, 1.1))],
)
def test_residue_circle_pairs_stay_dense(centers, radii):
    # a non-zero centre or unequal radii: the pair is the pair grid itself
    _, t = next(ig._grid_slabs(centers, radii, 12))
    for a, b in itertools.combinations(range(len(radii)), 2):
        x, idx = t.pair(a, b)
        assert idx is None
        np.testing.assert_array_equal(x, t[..., a] / t[..., b])
    x, idx = ProductGrid([np.exp(0.3j * np.arange(4)), np.exp(0.2j * np.arange(5))]).pair(0, 1)
    assert idx is None and x.shape == (4, 5)


def test_sub_grid_pairs_keep_the_torus_description():
    # t[..., list] and t[..., slice] permute the description with the rows
    _, t = next(ig._grid_slabs((0.0,) * 3, (1.0,) * 3, 8))
    dense = np.asarray(t)
    for sel in ([1, 0], [2, 0, 1], slice(1, None), slice(None, None, -1)):
        sub, want = t[..., sel], dense[..., sel]
        for a, b in itertools.permutations(range(sub.shape[-1]), 2):
            x, idx = sub.pair(a, b)
            assert idx is not None
            got = np.broadcast_to(x[idx], sub.shape[:-1])
            assert np.max(np.abs(got - want[..., a] / want[..., b])) < 4e-15, (sel, a, b)


def _integrands(P):
    ell = P.ell
    IV = combin.index_vectors(P.n, ell)
    l = IV[len(IV) // 2]
    a, b, c, x, p = 0.35 + 0.1j, 0.4 - 0.05j, 1.2 + 0.3j, 0.42 * np.exp(0.7j), 0.2 * np.exp(1.3j)
    Plow = P.with_kappa(P.kappa / P.eta).with_ell(ell - 1)
    lows = combin.index_vectors(P.n, ell - 1)
    Wlow = lambda t: wf.W_ell(lows[-1], t, Plow, "subset")
    blocks = (
        lambda t: wf.W_ell((ell - 1,), t, wf.block_params(P, 0, ell - 1)),
        lambda t: wf.W_ell((1,), t, wf.block_params(P, 1, 1, P.kappa * P.eta)),
    )
    return {
        "phase_phi": lambda t: phase_phi(t, P),
        "W_ell": lambda t: wf.W_ell(l, t, P, "subset"),
        "w_trig": lambda t: wf.w_trig(l, t, P, "subset"),
        "W_ell_symmetrized": lambda t: wf.W_ell(l, t, P),
        "boundary_Q": wf.boundary_element("Q", Wlow, P),
        "boundary_Qprime": wf.boundary_element("Qprime", Wlow, P),
        "star_product_elliptic": wf.star_product(*blocks, ell - 1, 1, 1, P, "elliptic"),
        "W_ell_one_block": lambda t: wf.W_ell((ell,), t, wf.block_params(P, 0, ell)),
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
    plan = ig.ResiduePlan((0.1,) * ell, 16)
    assert abs(ig.multi_residue(lambda t: 1.0 / (t[..., 0] - c[0]), c, plan=plan)) < 1e-13
    assert abs(ig.multi_residue(lambda t: 3.0, c, plan=plan)) < 1e-13
