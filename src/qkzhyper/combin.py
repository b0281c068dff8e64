"""Index combinatorics for the weight bases.

The sets Z(n, ell) of nonnegative n-tuples summing to ell label every basis,
weight monomial and residue point in the package; the canonical order is
lexicographic ascending on entries, and every matrix uses it.
"""

import itertools
from math import comb, factorial

import numpy as np

from .grid import as_batch, as_points
from .numkernel import theta_ratio


def index_vectors(n, ell):
    """All of Z(n, ell) in lexicographic order; length C(n+ell-1, n-1)."""
    if n < 1 or ell < 0:
        raise ValueError("need n >= 1, ell >= 0")
    # stars and bars: the n - 1 bar positions among ell + n - 1 slots, in
    # lexicographic order, give the parts in lexicographic order
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (ell + n - 1,)))
        for bars in itertools.combinations(range(ell + n - 1), n - 1)
    ]


def partial_sums(l):
    out, acc = [], 0
    for v in l:
        acc += v
        out.append(acc)
    return tuple(out)


def dominance_le(l, m):
    """Weak dominance: sum_{i<=k} l_i <= sum_{i<=k} m_i for all k < n."""
    if len(l) != len(m) or sum(l) != sum(m):
        raise ValueError("index vectors must share n and ell")
    pl, pm = partial_sums(l), partial_sums(m)
    return all(pl[k] <= pm[k] for k in range(len(l) - 1))


def gamma_partitions(l):
    """All tuples (G_1..G_n) of disjoint subsets of {0..ell-1} with |G_m| = l_m.

    Returned as assignment tuples a -> m (block index of position a);
    count is the multinomial ell! / prod(l_m!).
    """
    ell = sum(l)
    out = []
    blocks = [m for m, lm in enumerate(l) for _ in range(lm)]
    seen = set()
    for perm in itertools.permutations(blocks):
        if perm not in seen:
            seen.add(perm)
            out.append(perm)
    assert len(out) == factorial(ell) // np.prod([factorial(v) for v in l], dtype=object)
    return out


def canonical_blocks(l):
    """Interval blocks Gamma_m = {l^(m-1)+1 .. l^m} as an assignment tuple."""
    return tuple(m for m, lm in enumerate(l) for _ in range(lm))


def all_perms(n):
    return list(itertools.permutations(range(n)))


def perm_inverse(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def perm_reversal(n):
    return tuple(range(n - 1, -1, -1))


def permute_index(l, tau):
    """tau-relabel of an index vector: (l_tau_1, ..., l_tau_n)."""
    return tuple(l[i] for i in tau)


def sym_act(f, sigma, eta, p=None):
    """Action [f]_sigma(t) = f(t_sigma) prod_{a<b, sigma_a>sigma_b} of a twist
    in (t_sigma_a, t_sigma_b): without a nome the rational
    (t_sigma_b - eta t_sigma_a) / (eta t_sigma_b - t_sigma_a), with nome p the
    elliptic eta theta(eta^-1 t_sigma_b / t_sigma_a) / theta(eta t_sigma_b / t_sigma_a)."""
    sigma = tuple(sigma)

    def g(t):
        t = as_points(t)
        out = np.asarray(f(t[..., list(sigma)]), dtype=np.complex128)
        for a, b in itertools.combinations(range(len(sigma)), 2):
            if sigma[a] > sigma[b]:
                ta, tb = t[..., sigma[a]], t[..., sigma[b]]
                if p is None:
                    out = out * ((tb - eta * ta) / (eta * tb - ta))
                else:
                    r = tb / ta
                    out = out * (eta * theta_ratio(r / eta, eta * r, p))
        return out

    return g


def symmetrize(core, ell, eta, p=None):
    """The field sum over sigma in S_ell of [core]_sigma (sym_act, rational
    without a nome, elliptic with nome p): a single point gives a number, a
    batch or a ProductGrid its array."""
    acts = [sym_act(core, sigma, eta, p) for sigma in all_perms(ell)]

    def f(t):
        ts, single = as_batch(t)
        acc = np.zeros(ts.shape[:-1], dtype=np.complex128)
        for g in acts:
            acc += g(ts)
        return complex(acc[0]) if single else acc

    return f


def d_count(n, m, ell, s):
    """The exponent count d(n, m, ell, s) of the determinant formulas."""
    total = 0
    for i in range(ell):
        j = i - s
        if j < 0 or i + j >= ell:
            continue
        total += comb(m - 1 + i, m - 1) * comb(n - m - 1 + j, n - m - 1)
    return total


def binomial_identity(j, k, l, m):
    """(lhs, rhs) of the binomial identity
    sum_a C(j+a, j) C(j+k+a, k) C(l+m-a, m) = C(j+k, k) C(j+k+l+m+1, j+k+m+1)."""
    lhs = sum(
        comb(j + a, j) * comb(j + k + a, k) * comb(l + m - a, m) for a in range(l + 1)
    )
    rhs = comb(j + k, k) * comb(j + k + l + m + 1, j + k + m + 1)
    return lhs, rhs
