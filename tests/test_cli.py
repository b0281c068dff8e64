import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qkzhyper import cli, cli_params, suites
from qkzhyper.cli_params import kappa_margins_ok, quadrature_band_ok, sample_params
from qkzhyper.numkernel import ParameterSet, assert_admissible


def test_sampler_deterministic():
    a = sample_params(42, 2, 2)
    b = sample_params(42, 2, 2)
    assert a == b
    c = sample_params(43, 2, 2)
    assert a != c


def test_sampler_margin_audit():
    for seed in (1, 5, 9):
        P = sample_params(seed, 2, 2)
        assert_admissible(P, delta=0.05)
        assert quadrature_band_ok(P)
        assert kappa_margins_ok(P)


def _band_ok_loop(value, p):
    """Enumerated reference of cli_params._band_ok: |p^s value|, s < 60."""
    v, ap = abs(value), abs(p)
    for _ in range(60):
        if cli_params.BAND < v < 1.0 / cli_params.BAND:
            return False
        v *= ap
        if v < cli_params.BAND * ap:
            break
    return True


def _p_distance_loop(values, p, smax=40):
    """min over the values v and |s| <= smax of |v / p^s - 1|.  Every (v, s)
    is screened at once in array arithmetic, and those within rounding of the
    smallest are evaluated as the margins evaluate them, one at a time."""
    if not values:
        return math.inf
    pows = [p**s for s in range(-smax, smax + 1)]
    screen = np.abs(np.divide.outer(np.array(values), np.array(pows)) - 1.0)
    near = np.argwhere(screen <= screen.min() * (1 + 1e-9) + 1e-15)
    return min(abs(values[i] / pows[j] - 1.0) for i, j in near)


def _quadrature_band_ok_loop(P):
    values = [x for m in range(P.n) for x in (P.xi[m] * P.z[m], P.z[m] / P.xi[m] / P.p)]
    values += [1.0 / abs(P.eta), abs(P.eta) * abs(P.p)]
    return all(_band_ok_loop(v, P.p) for v in values)


def _kappa_margins_ok_loop(P, smax=40):
    p, eta, ell, delta = P.p, P.eta, P.ell, cli_params.KAPPA_MARGIN
    for r in range(max(ell, 1)):
        base_p, base_m = eta**-r * P.xi_prod, eta**r / P.xi_prod
        for s in range(smax):
            if abs(P.kappa / (p**s * base_p) - 1) < delta or abs(P.kappa * p ** (s + 1) / base_m - 1) < delta:
                return False
    for m in range(P.n - 1):
        prod = P.kappa
        for i in range(P.n):
            prod = prod * P.xi[i] if i <= m else prod / P.xi[i]
        if _p_distance_loop([prod * eta**-r for r in range(1 - ell, ell)], p) < delta:
            return False
    return True


def _margins_loop(P):
    rs = range(1 - P.ell, P.ell) if P.ell > 0 else range(0, 1)
    assum = [
        P.xi[l] ** sl * P.xi[m] ** sm * (P.z[l] / P.z[m])
        for l in range(P.n)
        for m in range(P.n)
        if l != m
        for sl in (1, -1)
        for sm in (1, -1)
    ]
    return {
        "npZ": _p_distance_loop([P.eta**r for r in range(1, max(P.ell, 1) + 1)], P.p),
        "Lass": _p_distance_loop([x * x * P.eta**-r for x in P.xi for r in rs], P.p),
        "assum": _p_distance_loop([v * P.eta**-r for v in assum for r in rs], P.p),
    }


def test_sampler_lattice_tests_match_enumerated_references(monkeypatch):
    # every candidate that sample_params tries, over 5 regimes x 7 (n, ell) x
    # seeds 0-59: the nearest-member tests equal the enumerated shells exactly
    tried = []

    def checked(fn, ref):
        def wrapper(P):
            got = fn(P)
            assert got == ref(P), (fn.__name__, P)
            tried.append(fn.__name__)
            return got

        return wrapper

    for owner, name, ref in (
        (cli_params, "kappa_margins_ok", _kappa_margins_ok_loop),
        (cli_params, "quadrature_band_ok", _quadrature_band_ok_loop),
        (ParameterSet, "margins", _margins_loop),
    ):
        monkeypatch.setattr(owner, name, checked(getattr(owner, name), ref))
    for regime in ("convergent", "solution", "jackson_overlap", "asymptotic", "small_xi"):
        for n, ell in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3)):
            for seed in range(60):
                sample_params(seed, n, ell, regime)
    assert {name: tried.count(name) for name in set(tried)} == {
        "margins": 2142,
        "kappa_margins_ok": 2100,
        "quadrature_band_ok": 1680,
    }


def test_band_lattices_are_one_sided():
    # |p^s value| for s >= 0 only: at |value| = |p| the member of modulus 1
    # is at s = -1, off the lattice; at |value| = 1 / |p| it is at s = 1
    for value, ok in ((0.25, True), (4.0, False), (0.25j, True), (-4.0, False)):
        assert cli_params._band_ok(value, 0.25j) == _band_ok_loop(value, 0.25j) == ok


def test_forced_resonance_rejected():
    bad = ParameterSet(
        p=0.2, eta=2.0, kappa=1.0, xi=(np.sqrt(2.0), 0.4), z=(1.0, -1.0), n=2, ell=2
    )
    assert min(bad.margins().values()) < 0.05


def test_param_file_roundtrip(tmp_path):
    P = sample_params(3, 2, 1)
    doc = cli.params_to_dict(P)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    Q = cli.params_from_file(path)
    assert Q == P


def test_verify_kernel_exit_zero(tmp_path):
    rp = tmp_path / "report.json"
    rc = cli.main(["verify", "kernel", "--seed", "1", "--report", str(rp)])
    assert rc == 0
    doc = json.loads(rp.read_text())
    assert doc["suite"] == "kernel"
    assert doc["seed"] == 1
    assert all(
        set(c) >= {"id", "status", "abs_err", "rel_err", "tol"} for c in doc["checks"]
    )
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_report_reproducible(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert cli.main(["verify", "kernel", "--seed", "7", "--report", str(r1)]) == 0
    assert cli.main(["verify", "kernel", "--seed", "7", "--report", str(r2)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b


def test_verify_unknown_suite():
    assert cli.main(["verify", "nonsense"]) == 2


def test_verify_bad_params_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": [0.2, 0.0]}")
    assert cli.main(["verify", "kernel", "--params", str(bad)]) == 2


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: dict(d, xi=5), "'xi'"),
        (lambda d: [d["p"], d["eta"]], "list"),
        (lambda d: dict(d, ell=1.5), "ell=1.5"),
        (lambda d: dict(d, n=0, xi=[], z=[]), "n=0"),
    ],
    ids=["xi-not-a-list", "json-list", "ell-not-an-integer", "n-zero"],
)
def test_verify_malformed_params_is_a_parameter_error(edit, named, tmp_path, capsys):
    # a malformed or out-of-range file exits 2 and names the bad value; none
    # may be truncated into a run or escape as an exception (exit 1)
    f = tmp_path / "p.json"
    f.write_text(json.dumps(edit(cli.params_to_dict(sample_params(1, 2, 1)))))
    assert cli.main(["verify", "kernel", "--params", str(f)]) == 2
    assert named in capsys.readouterr().err


def test_verify_rmatrix_on_an_n1_file_is_a_parameter_error(tmp_path, capsys):
    # the R-matrix checks pair two tensor factors; one factor exits 2, not 1
    f = tmp_path / "p.json"
    assert cli.main(["sample", "--seed", "1", "--n", "1", "--ell", "1", "--report", str(f)]) == 0
    assert cli.main(["verify", "rmatrix", "--params", str(f)]) == 2
    assert "n >= 2" in capsys.readouterr().err


def test_sample_unknown_regime_is_a_configuration_error(capsys):
    assert cli.main(["sample", "--regime", "bogus"]) == 2
    assert "'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("n, ell, regime", [(0, 1, "convergent"), (2, -1, "convergent"), (2, 1, "bogus")])
def test_sample_params_rejects_before_any_draw(n, ell, regime, monkeypatch):
    def no_draw(seed):
        raise AssertionError("sample_params drew before checking its arguments")

    monkeypatch.setattr(cli_params.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError):
        sample_params(0, n, ell, regime=regime)


def test_verify_params_and_seed_conflict(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(cli.params_to_dict(sample_params(1, 2, 1))))
    assert cli.main(["verify", "kernel", "--params", str(f), "--seed", "2"]) == 2


def test_table_qbeta(tmp_path):
    rp = tmp_path / "table.json"
    rc = cli.main(["table", "qbeta", "--seed", "2", "--rows", "2", "--report", str(rp)])
    assert rc == 0
    doc = json.loads(rp.read_text())
    assert doc["identity"] == "qbeta"
    assert len(doc["rows"]) == 4  # two seeds x ell in {1, 2}
    assert all(r["rel_err"] <= 1e-8 for r in doc["rows"])


def test_table_seed_zero(tmp_path):
    rp = tmp_path / "t.json"
    assert cli.main(["table", "detM", "--seed", "0", "--rows", "1", "--report", str(rp)]) == 0
    assert [r["seed"] for r in json.loads(rp.read_text())["rows"]] == [0]


def test_sample_seed_zero(tmp_path):
    rp = tmp_path / "params.json"
    assert cli.main(["sample", "--seed", "0", "--report", str(rp)]) == 0
    doc = json.loads(rp.read_text())
    doc.pop("margins")
    assert doc == cli.params_to_dict(sample_params(0, 2, 1))


@pytest.mark.parametrize("flag", ["--tol", "--trunc-tol"])
def test_verify_removed_flags_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "kernel", flag, "1e-9"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "pairing-det", "--grid", "0"], "--grid"),
        (["table", "qbeta", "--rows", "0"], "--rows"),
        (["verify", "jackson", "--cutoff", "-1"], "--cutoff"),
        (["sample", "--n", "0"], "--n"),
        (["sample", "--ell", "-1"], "--ell"),
        (["table", "qbeta", "--seed", "-1", "--rows", "1"], "--seed"),
    ],
)
def test_out_of_range_option_is_a_configuration_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_sample_subcommand(tmp_path):
    rp = tmp_path / "params.json"
    rc = cli.main(["sample", "--seed", "5", "--n", "2", "--ell", "1", "--report", str(rp)])
    assert rc == 0
    doc = json.loads(rp.read_text())
    assert doc["n"] == 2 and doc["ell"] == 1
    assert min(doc["margins"].values()) >= 0.05


def test_console_entrypoint():
    out = subprocess.run(
        [sys.executable, "-m", "qkzhyper.cli", "verify", "kernel", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_verify_with_explicit_params(tmp_path):
    P = sample_params(11, 2, 1)
    f = tmp_path / "good.json"
    f.write_text(json.dumps(cli.params_to_dict(P)))
    assert cli.main(["verify", "pairing-det", "--params", str(f)]) == 0


def _params_file(tmp_path, P):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(cli.params_to_dict(P)))
    return str(f)


# (n, ell, regime) of a parameter file per suite, and the ids the seeded run
# of that suite reports for its draw at that (n, ell)
PARAMS_CASES = {
    "kernel": (2, 2, "convergent", [
        "qpoch-functional-eq", "theta-quasi-periodicity", "theta-inversion", "theta-zero",
        "theta-prime-one-fd", "phase-swap-symmetry",
    ]),
    "weights": (2, 2, "convergent", [
        f"{w}-form-agreement-{l}" for l in ((0, 2), (1, 1), (2, 0)) for w in "wW"
    ] + ["detM-(2,2)", "detMq-(2,2)"]),
    "rmatrix": (3, 1, "convergent", ["R-two-methods-0", "R-inversion-0", "R-intertwining-0", "R-ybe-0"]),
    "qkz": (2, 1, "solution", [
        "qkz-flatness-n2-l1-0", "qkz-solution-residual", "qkz-solution-singular", "qkz-solution-functorial",
    ]),
    "pairing-det": (2, 1, "convergent", ["det-mu-generic-(2,1)", "det-mu-plus-(2,1)", "det-mu-minus-(2,1)"]),
    "jackson": (2, 1, "jackson_overlap", ["jackson-x-(2,1)", "jackson-y-(2,1)"]),
    "shapovalov": (2, 1, "convergent", [
        f"shapovalov-{k}-(2,1)" for k in ("ell-diag", "ell-offdiag", "trig-diag", "trig-offdiag")
    ] + ["residue-balance-(2,1)"]),
    "transition": (2, 1, "convergent", ["transition-trig-adjacent-l1", "transition-ell-adjacent-l1"]),
}


def test_params_cases_cover_every_params_suite():
    assert set(PARAMS_CASES) == set(suites.ON_PARAMS)


@pytest.mark.parametrize("suite", sorted(PARAMS_CASES))
def test_verify_params_runs_the_seeded_checks(suite, tmp_path):
    n, ell, regime, ids = PARAMS_CASES[suite]
    rp = tmp_path / "report.json"
    f = _params_file(tmp_path, sample_params(9, n, ell, regime=regime))
    assert cli.main(["verify", suite, "--params", f, "--report", str(rp)]) == 0
    assert [c["id"] for c in json.loads(rp.read_text())["checks"]] == ids


@pytest.mark.parametrize("suite", ["asymptotics", "identities"])
def test_verify_params_rejected_by_unparametrized_suites(suite, tmp_path):
    f = _params_file(tmp_path, sample_params(9, 2, 1))
    assert cli.main(["verify", suite, "--params", f]) == 2


def test_verify_params_honours_cutoff(tmp_path):
    # two shells cannot settle the Jackson sums, so the run fails structurally
    f = _params_file(tmp_path, sample_params(9, 2, 1, regime="jackson_overlap"))
    assert cli.main(["verify", "jackson", "--params", f, "--cutoff", "2"]) == 2


def test_verify_params_honours_grid(tmp_path):
    # an 8-node torus grid is too coarse for the 1e-8 determinant tolerance
    f = _params_file(tmp_path, sample_params(9, 2, 1))
    assert cli.main(["verify", "pairing-det", "--params", f, "--grid", "8"]) == 1


def test_verify_resonant_params_structured_failure(tmp_path):
    bad = ParameterSet(
        p=0.2, eta=2.0, kappa=1.0, xi=(np.sqrt(2.0), 0.4), z=(1.0, -1.0), n=2, ell=2
    )
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(cli.params_to_dict(bad)))
    assert cli.main(["verify", "pairing-det", "--params", str(f)]) == 2


def test_table_detMq(tmp_path):
    rp = tmp_path / "t.json"
    rc = cli.main(["table", "detMq", "--seed", "4", "--rows", "1", "--report", str(rp)])
    assert rc == 0
    doc = json.loads(rp.read_text())
    assert doc["rows"][0]["rel_err"] <= 1e-8


@pytest.mark.parametrize("identity,meta", [("askey_roy", {}), ("arl", {"ell": 2}), ("ascj", {"ell": 2, "m": 1})])
def test_table_torus_identities(identity, meta, tmp_path):
    rp = tmp_path / "t.json"
    assert cli.main(["table", identity, "--rows", "1", "--report", str(rp)]) == 0
    (row,) = json.loads(rp.read_text())["rows"]
    assert row["seed"] == 1 and row["meta"] == meta
    assert row["rel_err"] <= 1e-8


def test_table_unknown_identity():
    assert cli.main(["table", "nonsense"]) == 2


def test_finalize_fails_non_finite_values():
    nan, inf = float("nan"), float("inf")
    recs = suites.finalize(
        [
            {"id": "lhs-nan", "lhs": complex(nan, 0), "rhs": 1.0 + 0j, "tol": 1e-8},
            {"id": "rhs-nan", "lhs": 1.0 + 0j, "rhs": complex(0, nan), "tol": 1e-8},
            {"id": "lhs-inf", "lhs": complex(inf, 0), "rhs": 1.0 + 0j, "tol": 1e-8},
            {"id": "residual-nan", "residual": nan, "tol": 1e-8},
            {"id": "ok", "lhs": 1.0 + 0j, "rhs": 1.0 + 1e-12j, "tol": 1e-8},
        ]
    )
    got = [(r["status"], r.get("reason")) for r in recs]
    assert got == [("fail", "non-finite")] * 4 + [("pass", None)]
