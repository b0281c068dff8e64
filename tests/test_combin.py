import gc
import itertools
from math import comb, factorial

import numpy as np
import pytest

from qkzhyper import combin


def test_index_vectors_examples():
    assert combin.index_vectors(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert combin.index_vectors(1, 5) == [(5,)]
    assert len(combin.index_vectors(3, 2)) == 6


def test_index_vectors_counts_and_order():
    for n in range(1, 6):
        for ell in range(6):
            vs = combin.index_vectors(n, ell)
            assert len(vs) == comb(n + ell - 1, n - 1)
            assert vs == sorted(vs)
            assert all(sum(v) == ell for v in vs)


def test_index_vectors_leaves_no_reference_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        combin.index_vectors(3, 4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_dominance_basic():
    assert combin.dominance_le((1, 1), (1, 1))
    assert not combin.dominance_le((2, 0), (0, 2))
    assert combin.dominance_le((0, 2), (2, 0))
    with pytest.raises(ValueError):
        combin.dominance_le((1, 0), (1, 1))


def test_dominance_reflexive_transitive_antisymmetric():
    for n in (3, 4):
        for ell in (3, 4):
            vs = combin.index_vectors(n, ell)
            for a in vs:
                assert combin.dominance_le(a, a)
            for a, b in itertools.product(vs, vs):
                if a != b and combin.dominance_le(a, b) and combin.dominance_le(b, a):
                    pytest.fail("dominance not antisymmetric")
            for a, b, c in itertools.product(vs, vs, vs):
                if combin.dominance_le(a, b) and combin.dominance_le(b, c):
                    assert combin.dominance_le(a, c)


def test_gamma_partitions_counts():
    assert combin.gamma_partitions((1, 1)) == [(0, 1), (1, 0)]
    assert len(combin.gamma_partitions((2, 1))) == 3
    assert len(combin.gamma_partitions((2, 2))) == 6
    for l in [(3, 1), (1, 2, 1)]:
        got = combin.gamma_partitions(l)
        want = factorial(sum(l))
        for v in l:
            want //= factorial(v)
        assert len(got) == want == len(set(got))


def test_action_identity_and_group_law():
    eta = 1.7 + 0.2j
    f = lambda t: t[..., 0] ** 2 + 0.5 * t[..., 1] - 1.3 * t[..., 2]
    rng = np.random.default_rng(3)
    t = rng.uniform(0.7, 1.3, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    ident = combin.sym_act(f, (0, 1, 2), eta)
    assert abs(ident(t) - f(t)) < 1e-14
    for sig in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
        for tau in ((1, 0, 2), (2, 1, 0)):
            lhs = combin.sym_act(combin.sym_act(f, sig, eta), tau, eta)(t)
            rhs = combin.sym_act(f, tuple(tau[s] for s in sig), eta)(t)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_elliptic_action_group_law():
    eta, p = 1.7 + 0.2j, 0.17 + 0.06j
    f = lambda t: t[..., 0] + 0.3 * t[..., 1] * t[..., 2]
    rng = np.random.default_rng(4)
    t = rng.uniform(0.8, 1.2, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    for sig in ((1, 2, 0), (0, 2, 1)):
        for tau in ((1, 0, 2), (2, 1, 0)):
            lhs = combin.sym_act(combin.sym_act(f, sig, eta, p), tau, eta, p)(t)
            rhs = combin.sym_act(f, tuple(tau[s] for s in sig), eta, p)(t)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_counts_d():
    # independent enumeration over the defining square region
    def d_brute(n, m, ell, s):
        tot = 0
        for i in range(ell + 1):
            for j in range(ell + 1):
                if i + j < ell and i - j == s:
                    tot += comb(m - 1 + i, m - 1) * comb(n - m - 1 + j, n - m - 1)
        return tot

    assert combin.d_count(2, 1, 2, 0) == d_brute(2, 1, 2, 0) == 1
    for n in (2, 3, 4):
        for m in range(1, n):
            for ell in range(1, 4):
                for s in range(1 - ell, ell):
                    assert combin.d_count(n, m, ell, s) == d_brute(n, m, ell, s)


def test_combi_identity():
    lhs, rhs = combin.binomial_identity(0, 0, 0, 0)
    assert lhs == rhs == 1
    for j in range(7):
        for k in range(7):
            for l in range(7):
                for m in range(7):
                    a, b = combin.binomial_identity(j, k, l, m)
                    assert a == b


def test_perm_utilities():
    sigma = (2, 0, 1)
    inv = combin.perm_inverse(sigma)
    assert tuple(inv[s] for s in sigma) == tuple(sigma[s] for s in inv) == tuple(range(3))
    assert combin.perm_reversal(4) == (3, 2, 1, 0)
    assert combin.permute_index((5, 6, 7), (2, 0, 1)) == (7, 5, 6)
