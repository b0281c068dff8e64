"""Each R-matrix block is built once per check, and only for that check.

The transition, rmatrix and qkz checks build their blocks through per-call
memos: `repthy.trig_R_memo`, `solutions.ell_R_evaluator` and the phi
matrices of `suites.intertwining_residual`.  These tests pin the number of
builds, that a memoized result equals a fresh build bit for bit, that no
memo outlives its call, and that a block handed out cannot be written.
"""

import cmath

import numpy as np
import pytest

from qkzhyper import repthy as rt, solutions as so, suites
from qkzhyper.cli_params import sample_params

Q = 1.3 + 0.21j
L1, L2, L3 = 0.43 + 0.11j, 0.61 - 0.07j, 0.52 + 0.2j
X, Y = 1.7 + 0.4j, 0.6 - 0.3j
P_ELL, ETA = 0.16 * np.exp(0.7j), 2.0 * np.exp(0.15j)
LAM = 0.8 + 0.3j


def _count(monkeypatch, module, name):
    """Arguments of every call of module.name made through the module global."""
    calls = []
    f = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _read_only(M):
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 0.0


def _coproduct_reference(ij, u, lam, mods, eta, p, depth):
    """ell_coproduct_action as a plain loop that builds the second-factor
    operator afresh for every column and first-factor entry."""
    (La, xa), (Lb, xb) = mods
    basis = [(k1, k2) for k1 in range(depth + 1) for k2 in range(depth + 1)]
    idx = {v: i for i, v in enumerate(basis)}
    M = np.zeros((len(basis),) * 2, dtype=np.complex128)
    i, j = ij
    for col, (k1, k2) in enumerate(basis):
        for k in (1, 2):
            Tkj = rt.ell_T((k, j), u, lam, La, xa, eta, p, depth)
            for k1p in range(depth + 1):
                c1 = Tkj[k1p, k1]
                if c1 == 0:
                    continue
                lam2 = lam * cmath.exp(2 * (La - k1p) * cmath.log(eta))
                Tik = rt.ell_T((i, k), u, lam2, Lb, xb, eta, p, depth)
                for k2p in range(depth + 1):
                    if Tik[k2p, k2] != 0:
                        M[idx[(k1p, k2p)], col] += Tik[k2p, k2] * c1
    return M


@pytest.mark.parametrize("ij", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_coproduct_builds_each_operator_once(ij, monkeypatch):
    depth, u = 3, 1.4 * np.exp(0.9j)
    mods = ((L1, 1.1 * np.exp(0.5j)), (L2, 0.8 * np.exp(-0.7j)))
    want = _coproduct_reference(ij, u, LAM, mods, ETA, P_ELL, depth)
    calls = _count(monkeypatch, rt, "ell_T")
    _, M = rt.ell_coproduct_action(ij, u, LAM, mods, ETA, P_ELL, depth)
    assert len(calls) <= 2 + 2 * (depth + 1)
    assert np.array_equal(M, want)


def test_intertwining_residual_builds_three_phi_matrices(monkeypatch):
    calls = _count(monkeypatch, so, "transition_matrix")
    suites.intertwining_residual(L1, L2, X, LAM, P_ELL, ETA)
    assert len(calls) == 3 * suites._INTERTWINING_WMAX


def test_trig_ybe_builds_each_block_once_per_call(monkeypatch):
    calls = _count(monkeypatch, rt, "trig_R_block")
    first = rt.ybe_residual_trig(L1, L2, L3, X, Y, Q, 3)
    assert len(calls) == 3 * (3 + 1)
    # nothing is kept between calls: the second does the same work again
    assert rt.ybe_residual_trig(L1, L2, L3, X, Y, Q, 3) == first
    assert len(calls) == 2 * 3 * (3 + 1)


def test_qkz_flatness_builds_each_block_once_per_call(monkeypatch):
    P = sample_params(105, 3, 2)
    calls = _count(monkeypatch, rt, "trig_R_block")
    first = suites.qkz_flatness_check(P, 0.8 + 0.1j)
    distinct = set(calls)
    assert len(calls) == len(distinct) > 0
    # nothing is kept between calls: the second builds every block again
    assert suites.qkz_flatness_check(P, 0.8 + 0.1j) == first
    assert len(calls) == 2 * len(distinct) and set(calls) == distinct


def test_rmatrix_pair_checks_build_each_block_once_per_call(monkeypatch):
    calls = _count(monkeypatch, rt, "trig_R_block")
    first = suites.rmatrix_pair_checks(L1, L2, X, Q)
    methods = [c[5] for c in calls]
    # R12 in weights 0..3 and R21 in 1..3 by linear solve, R12 in 1..3 spectrally
    assert methods.count("linear_solve") == 7 and methods.count("spectral") == 3
    assert suites.rmatrix_pair_checks(L1, L2, X, Q) == first
    assert len(calls) == 2 * 10


def test_trig_R_memo_keeps_the_two_constructions_apart():
    block = rt.trig_R_memo()
    Ra = block(L1, L2, X, Q, 2, "linear_solve")
    Rb = block(L1, L2, X, Q, 2, "spectral")
    assert Ra is not Rb
    assert block(L1, L2, X, Q, 2) is Ra
    assert np.array_equal(Ra, rt.trig_R_block(L1, L2, X, Q, 2))
    assert np.array_equal(Rb, rt.trig_R_block(L1, L2, X, Q, 2, "spectral"))
    _read_only(Ra)
    _read_only(Rb)


def test_ell_R_block_is_read_only():
    for kw in ({}, {"seed": 11, "z1": X * 0.7 * np.exp(1.9j)}):
        for w in range(3):
            _read_only(so.ell_R_block(L1, L2, X, LAM, w, P_ELL, ETA, **kw))


def test_ell_R_evaluator_builds_one_block_per_key(monkeypatch):
    want = [so.ell_R_block(L1, L2, X, LAM, w, P_ELL, ETA) for w in range(3)]
    calls = _count(monkeypatch, so, "transition_matrix")
    ev = so.ell_R_evaluator(L1, L2, P_ELL, ETA)
    got = [ev(X, LAM, w) for w in range(3)]
    assert len(calls) == 2  # weights 1 and 2; weight 0 is the unit block
    for g, w_ in zip(got, want):
        assert np.array_equal(g, w_)
        _read_only(g)
    assert all(ev(X, LAM, w) is got[w] for w in range(3))
    assert len(calls) == 2
