"""Product grids: a tensor grid of points held as one node row per axis.

Every quadrature and residue grid of the package is a product of circles.
A `ProductGrid` keeps the ell node rows instead of the dense M^ell x ell
point array, so an integrand reads coordinate a as `t[..., a]`, shaped to
broadcast against the other axes: a factor of one coordinate is evaluated on
that axis's M nodes, and only factors of two coordinates (t_a / t_b) reach
the full grid, by broadcasting.  `as_points` and `as_batch` are how every
field of the package reads its points.

On a staggered torus grid (every centre 0, one radius: t_a = r E_a[j_a]
with E_a[j] = exp(2 pi i (j + delta_a) / M)) a pair ratio t_a / t_b takes
only M values, exp(2 pi i (d + delta_a - delta_b) / M) at
d = (j_a - j_b) mod M, so `ProductGrid.pair` can hand a pair factor those M
values and the indices that gather them onto the grid.  The indices are
j_a - j_b itself, in (-M, M): a negative index counts from the end of the
table, which is the same value, so no modulo is taken.
"""

import functools
import math

import numpy as np

# Distinct (M, shift) rows kept by `unit_roots`: the node rows of every
# (ell, M, axis) and the pair tables of every (ell, M, a - b).
_UNIT_ROOTS_CACHE = 256


@functools.lru_cache(maxsize=_UNIT_ROOTS_CACHE)
def unit_roots(M, shift):
    """Read-only row exp(2 pi i (j + shift) / M), j < M."""
    e = np.exp(2j * math.pi * (np.arange(M) + shift) / M)
    e.flags.writeable = False
    return e


class ProductGrid:
    """Points t[j_0, ..., j_(ell-1), a] = axes[a][j_a].

    Looks like the dense (M_0, ..., M_(ell-1), ell) array it stands for:
    `shape`, `ndim` and `size` are the dense ones, `t[..., a]` is axis a
    reshaped to (1, ..., M_a, ..., 1), `t[..., idx]` with a list or slice of
    coordinates is the ProductGrid of those rows (each on its own grid axis),
    and `np.asarray(t)` materialises the dense array, so a callable that does
    not know the type still gets exact values.  Any other index is taken on
    the dense array.

    Node rows of shape (R, M_a) instead of (M_a,) make a batch of R such
    grids, point r on node row axes[a][r]: the dense array is then
    (R, M_0, ..., M_(ell-1), ell) and `t[..., a]` is (R, 1, ..., M_a, ..., 1),
    so a field that broadcasts over the grid axes evaluates all R grids at
    once.

    `circulant = (M, nodes, shifts)` says that the axes are rows of one
    staggered torus, axes[a] = r unit_roots(M, shifts[a])[nodes[a]], with
    nodes[a] the global node indices the grid holds on axis a; `pair` then
    returns M values and gather indices instead of a pair grid.
    """

    __slots__ = ("_axes", "_circulant", "shape", "ndim", "size")

    def __init__(self, axes, circulant=None):
        ell = len(axes)
        rows = [np.array(x, dtype=np.complex128) for x in axes]
        lead, nodes = rows[0].shape[:-1], tuple(x.shape[-1] for x in rows)
        for a, x in enumerate(rows):
            rows[a] = x = x.reshape(lead + (1,) * a + (-1,) + (1,) * (ell - 1 - a))
            x.flags.writeable = False
        if circulant is not None:
            M, index, shifts = circulant
            circulant = (M, [np.reshape(j, x.shape) for j, x in zip(index, rows)], list(shifts))
        self._set(rows, lead + nodes, circulant)

    def _set(self, rows, nodes, circulant):
        self._axes = tuple(rows)
        self._circulant = circulant
        self.shape = nodes + (len(rows),)
        self.ndim = len(self.shape)
        self.size = math.prod(self.shape)

    def __getitem__(self, key):
        if type(key) is tuple and len(key) == 2 and key[0] is Ellipsis:
            if isinstance(key[1], (int, np.integer)):
                return self._axes[key[1]]
            if isinstance(key[1], (list, slice)):
                sel = np.arange(len(self._axes))[key[1]]
                circ = self._circulant
                if circ is not None:  # the description follows the rows
                    M, nodes, shifts = circ
                    circ = (M, [nodes[a] for a in sel], [shifts[a] for a in sel])
                sub = ProductGrid.__new__(ProductGrid)
                sub._set([self._axes[a] for a in sel], self.shape[:-1], circ)
                return sub
        return np.asarray(self)[key]

    def pair(self, a, b):
        """(x, idx): the ratio t_a / t_b is x[idx].  On a staggered torus x is
        the table of its M values and idx the j_a - j_b of each node (a
        negative index wraps, as (j_a - j_b) mod M), shaped like the pair
        grid; otherwise x is the pair grid and idx None."""
        if self._circulant is None:
            return self._axes[a] / self._axes[b], None
        M, nodes, shifts = self._circulant
        return unit_roots(M, shifts[a] - shifts[b]), np.subtract(nodes[a], nodes[b])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a ProductGrid has no dense buffer to share")
        out = np.empty(self.shape, dtype=np.complex128)
        for a, x in enumerate(self._axes):
            out[..., a] = x
        return out if dtype is None else out.astype(dtype, copy=False)


def as_points(t):
    """A ProductGrid as it is, anything else as a complex array."""
    return t if isinstance(t, ProductGrid) else np.asarray(t, dtype=np.complex128)


def as_batch(t):
    """(points, single): a single point (ell,) as a batch of one, a batch
    (..., ell) or a ProductGrid as it is."""
    t = as_points(t)
    single = t.ndim == 1
    return (t[None, :] if single else t), single
