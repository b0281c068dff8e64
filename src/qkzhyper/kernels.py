"""Hot array kernels: truncated q-Pochhammer and Jacobi theta products.

Every higher-level function in the package funnels through `qpoch_array`,
`theta_array` and `qpoch_ratio_array`.  Each is a product over k < nterms of
factors 1 - p^k x, taken for one argument row x, or for two rows whose
factors are first combined termwise (theta multiplies the factors of u and
p/u; the ratio divides those of a by those of b, so huge arguments of
comparable size never overflow).  The kernel picks one of two numpy paths
from its work, points x nterms:

* small inputs (pointwise calls of one to a few hundred points) build the
  (terms x points) factor matrix once from the column of p^k, cached per
  (p, nterms), and reduce it with `prod(axis=0)`: a handful of ufunc
  dispatches per call instead of several per term;
* large inputs (residue circles, torus grids) run the per-term loop over
  blocks of at most `_BLOCK` points with preallocated buffers and in-place
  ufuncs, so no temporary leaves the cache.

The ratio's loop divides once per block of terms, not once per term (a
complex divide costs about four multiplies): it keeps one running product of
the numerator factors and one of the denominator factors, and divides the
two into the result after every K terms.  K is the largest count, at most
nterms, with (1 + max|x|)^K below a headroom of 1e280, measured from the
call's rows, since no factor exceeds 1 + |x|.  So neither product can
overflow: a call with max|x| <= 10 divides once, and the 1e80 arguments of
far Jackson shells divide every three terms.
"""

import functools
import math

import numpy as np

BACKEND = "numpy"

# Largest work (points x nterms) taken by the factor-matrix path.  Measured
# on a 2-core Xeon at 20 and 40 terms, the matrix path is faster than the
# term loop below about 4e4 point-terms for theta and 1e5 for qpoch.  For
# the ratio, with one division per block of terms, it is faster below 6e3 to
# 8e3 point-terms, where its (terms x points) arrays pass about 120 KiB and
# its time per point-term doubles; above that the loop is 2-3x faster.  One
# threshold near all three keeps every kernel on its faster path for 1-64-point
# calls and on the loop for the 4096-point residue circles.
_SMALL_WORK = 1 << 13
# Points per block of the term loop: its two (2 x _BLOCK) complex buffers
# take 256 KiB, and the ratio's two running products 128 KiB more.
_BLOCK = 4096
# Largest size either running product of the ratio loop may reach before it
# is divided out, a factor 1.8e28 under the float64 maximum.
_LOG_RATIO_HEADROOM = math.log(1e280)
# Distinct (p, nterms) columns kept by `_p_powers`; one pass of a benchmark
# workload uses 25 to 101.
_P_POWERS_CACHE = 256


@functools.lru_cache(maxsize=_P_POWERS_CACHE)
def _p_powers(p, nterms):
    """Read-only (nterms, 1) column of p^k, k < nterms, from one cumprod."""
    pk = np.full((nterms, 1), p, dtype=np.complex128)
    pk[:1] = 1.0
    np.cumprod(pk, axis=0, out=pk)
    pk.flags.writeable = False
    return pk


def _factor_matrix(rows, p, nterms, combine):
    pk = _p_powers(p, nterms)
    f = pk * rows[0]
    np.subtract(1.0, f, out=f)
    if combine is not None:
        g = pk * rows[1]
        combine(f, np.subtract(1.0, g, out=g), out=f)
    return f.prod(axis=0)


def _terms_per_division(rows, nterms):
    """Terms per block of the ratio loop: the largest K <= nterms with
    (1 + max|row|)^K below the headroom exp(_LOG_RATIO_HEADROOM), at least 1.
    Each factor 1 - p^k x is at most 1 + |x| in size, so neither running
    product of K factors overflows."""
    grow = math.log1p(max(float(np.abs(x).max()) for x in rows))
    if math.isnan(grow) or grow * nterms < _LOG_RATIO_HEADROOM:
        return nterms
    return max(1, int(_LOG_RATIO_HEADROOM / grow))


def _term_loop(rows, p, nterms, combine):
    n = rows[0].size
    out = np.ones(n, dtype=np.complex128)
    w = np.empty((len(rows), min(n, _BLOCK)), dtype=np.complex128)
    g = np.empty_like(w)
    ratio = combine is np.divide
    if ratio:
        acc = np.empty_like(w)
        per_division = _terms_per_division(rows, nterms)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        wb, gb, o = w[:, : e - s], g[:, : e - s], out[s:e]
        for wr, x in zip(wb, rows):
            wr[...] = x[s:e]
        g0 = gb[0]
        if ratio:
            # running products of the numerator and denominator factors,
            # divided once per block of per_division terms
            ab = acc[:, : e - s]
            for k in range(nterms):
                if k % per_division:
                    ab *= np.subtract(1.0, wb, out=gb)
                else:
                    np.subtract(1.0, wb, out=ab)
                if k % per_division == per_division - 1 or k == nterms - 1:
                    o *= np.divide(ab[0], ab[1], out=g0)
                wb *= p
        else:
            for _ in range(nterms):
                np.subtract(1.0, wb, out=gb)
                if combine is not None:
                    combine(g0, gb[1], out=g0)
                o *= g0
                wb *= p
    return out


def _product(rows, p, nterms, combine=None):
    """prod_{k<nterms} of (1 - p^k rows[0]), combined termwise with
    (1 - p^k rows[1]) when `combine` is given, over flat complex rows."""
    p, nterms = complex(p), int(nterms)
    if rows[0].size * nterms <= _SMALL_WORK:
        return _factor_matrix(rows, p, nterms, combine)
    return _term_loop(rows, p, nterms, combine)


def qpoch_array(u, p, nterms):
    """Truncated (u; p)_infinity = prod_{k<nterms} (1 - p^k u), elementwise."""
    u = np.asarray(u, dtype=np.complex128)
    return _product((u.ravel(),), p, nterms).reshape(u.shape)


def theta_array(u, p, nterms, pp_inf):
    """Truncated Jacobi theta (u)_inf (p/u)_inf (p)_inf; pp_inf = (p;p)_inf."""
    u = np.asarray(u, dtype=np.complex128)
    flat = u.ravel()
    out = _product((flat, p / flat), p, nterms, np.multiply)
    out *= complex(pp_inf)
    return out.reshape(u.shape)


def qpoch_ratio_array(a, b, p, nterms):
    """Overflow-safe (a;p)_inf / (b;p)_inf with termwise factor pairing."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape == b.shape:
        shape, rows = a.shape, (a.ravel(), b.ravel())
    else:
        shape = np.broadcast_shapes(a.shape, b.shape)
        rows = (np.broadcast_to(a, shape).ravel(), np.broadcast_to(b, shape).ravel())
    return _product(rows, p, nterms, np.divide).reshape(shape)
