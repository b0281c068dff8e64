"""The suite registry contract that perfbench/workloads.py builds on: it
reads each suite's default seed from its signature, calls run_suite with a
seed and a cfg only, and the tracer wraps suites.sample_params by name."""

import inspect
import json

import pytest

from qkzhyper import cli, cli_params, suites


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_signature_has_int_seed_and_cfg(name):
    params = inspect.signature(suites.SUITES[name]).parameters
    assert type(params["seed"].default) is int
    assert "cfg" in params


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_run_suite_calls_suite_with_seed_and_cfg_only(name, monkeypatch):
    calls = []

    def stub(seed=0, cfg=None):
        calls.append({"seed": seed, "cfg": cfg})
        return []

    monkeypatch.setitem(suites.SUITES, name, stub)
    cfg = suites.RunConfig(grid=64)
    assert suites.run_suite(name, seed=3, cfg=cfg)["checks"] == []
    assert calls == [{"seed": 3, "cfg": cfg}]


def test_sample_params_is_a_suites_module_name():
    assert suites.sample_params is cli_params.sample_params


def test_params_suites_are_the_seeded_suites_but_two():
    assert set(suites.SUITES) - set(suites.ON_PARAMS) == {"asymptotics", "identities"}


def test_jackson_records_carry_their_sums_numerics():
    recs = suites.finalize(suites.jackson_checks(cli_params.sample_params(9, 2, 1, regime="jackson_overlap")))
    assert [r["id"] for r in recs] == ["jackson-x-(2,1)", "jackson-y-(2,1)"]
    for r in recs:
        assert type(r["shells"]) is int and r["shells"] >= 3
        assert type(r["tail_estimate"]) is float and 0 <= r["tail_estimate"] < r["tol"] * abs(r["rhs"])
        assert r["status"] == "pass"
    json.dumps([cli._json_ready(r) for r in recs])


def test_lattice_sum_records_carry_their_sums_numerics():
    ids = ("askey-conjecture-l2-m1", "askey-conjecture-general-l2", "qselberg-jackson-l2")
    recs = [r for r in suites.finalize(suites.suite_identities()) if "shells" in r]
    assert tuple(r["id"] for r in recs) == ids
    for r in recs:
        assert type(r["shells"]) is int and r["shells"] >= 3
        assert type(r["tail_estimate"]) is float and 0 <= r["tail_estimate"] < r["tol"] * abs(r["rhs"])
        assert r["status"] == "pass"
    json.dumps([cli._json_ready(r) for r in recs])


def test_vanishing_checks_evaluate_each_special_kappa_boundary_element_once(monkeypatch):
    # one pairing pass per boundary element against all of its w's
    seed = 205
    P0 = suites.sample_params(seed, 2, 2)
    special = {P0.kappa_special(sign) for sign in (+1, -1)}
    calls = {}
    build = suites.weightfn.boundary_element

    def counted(flavor, W_lower, params):
        f = build(flavor, W_lower, params)
        if params.kappa not in special:
            return f
        calls[flavor] = 0

        def g(t):
            calls[flavor] += 1
            return f(t)

        return g

    monkeypatch.setattr(suites.weightfn, "boundary_element", counted)
    suites.vanishing_checks(seed)
    assert calls == {"Q": 1, "Qprime": 1}


@pytest.mark.parametrize("name, want", [("shapovalov", 20), ("qkz", 320), ("pairing-det", 3)])
def test_residue_pairings_take_one_residue_per_special_point(name, want, monkeypatch):
    # a row or matrix of pairings is one residue per special point: the
    # Shapovalov matrices, the solution components, the functoriality
    # residual, and the boundary residue with its scale, at the default seed
    calls = []
    residue = suites.integrate.multi_residue
    monkeypatch.setattr(suites.integrate, "multi_residue", lambda *a, **k: calls.append(1) or residue(*a, **k))
    recs = suites.run_suite(name)["checks"]
    assert all(r["status"] == "pass" for r in recs)
    assert len(calls) == want
