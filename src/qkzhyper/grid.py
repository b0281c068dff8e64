"""Product grids: a tensor grid of points held as one node row per axis.

Every quadrature and residue grid of the package is a product of circles.
A `ProductGrid` keeps the ell node rows instead of the dense M^ell x ell
point array, so an integrand reads coordinate a as `t[..., a]`, shaped to
broadcast against the other axes: a factor of one coordinate is evaluated on
that axis's M nodes, and only factors of two coordinates (t_a / t_b) reach
the full grid, by broadcasting.  `as_points` and `as_batch` are how every
field of the package reads its points.
"""

import math

import numpy as np


class ProductGrid:
    """Points t[j_0, ..., j_(ell-1), a] = axes[a][j_a].

    Looks like the dense (M_0, ..., M_(ell-1), ell) array it stands for:
    `shape`, `ndim` and `size` are the dense ones, `t[..., a]` is axis a
    reshaped to (1, ..., M_a, ..., 1), `t[..., idx]` with a list or slice of
    coordinates is the ProductGrid of those rows (each on its own grid axis),
    and `np.asarray(t)` materialises the dense array, so a callable that does
    not know the type still gets exact values.  Any other index is taken on
    the dense array.
    """

    __slots__ = ("_axes", "shape", "ndim", "size")

    def __init__(self, axes):
        ell = len(axes)
        rows = []
        for a, x in enumerate(axes):
            x = np.array(x, dtype=np.complex128).reshape((1,) * a + (-1,) + (1,) * (ell - 1 - a))
            x.flags.writeable = False
            rows.append(x)
        self._set(rows, tuple(x.size for x in rows))

    def _set(self, rows, nodes):
        self._axes = tuple(rows)
        self.shape = nodes + (len(rows),)
        self.ndim = len(self.shape)
        self.size = math.prod(self.shape)

    def __getitem__(self, key):
        if type(key) is tuple and len(key) == 2 and key[0] is Ellipsis:
            if isinstance(key[1], (int, np.integer)):
                return self._axes[key[1]]
            if isinstance(key[1], (list, slice)):
                sub = ProductGrid.__new__(ProductGrid)
                sub._set([self._axes[a] for a in np.arange(len(self._axes))[key[1]]], self.shape[:-1])
                return sub
        return np.asarray(self)[key]

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
