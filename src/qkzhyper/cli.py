"""Batch driver: verify suites, identity tables, parameter sampling.

Reports are JSON documents with one record per check; exit codes are 0
(all pass), 1 (a check failed), 2 (configuration or parameter error).
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, integrate, solutions, suites
from .cli_params import sample_params
from .errors import QkzError
from .numkernel import ParameterSet
from .suites import SUITES, RunConfig, run_suite


def _c2pair(v):
    return [float(np.real(v)), float(np.imag(v))]


def params_to_dict(params):
    return {
        "p": _c2pair(params.p),
        "eta": _c2pair(params.eta),
        "kappa": _c2pair(params.kappa),
        "xi": [_c2pair(v) for v in params.xi],
        "z": [_c2pair(v) for v in params.z],
        "n": params.n,
        "ell": params.ell,
    }


def _pair(v):
    re, im = v
    return complex(re, im)


def params_from_file(path):
    """The ParameterSet of a JSON file as `sample --report` writes it; a
    missing or malformed field raises ValueError naming it."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    pairs = lambda v: tuple(map(_pair, v))
    kw = {}
    for key, read in {"p": _pair, "eta": _pair, "kappa": _pair, "xi": pairs, "z": pairs}.items():
        try:
            kw[key] = read(d[key])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"bad or missing field {key!r}: {d.get(key)!r}") from None
    # n and ell go in as read: ParameterSet rejects a non-integer or out of range
    return ParameterSet(**kw, n=d.get("n"), ell=d.get("ell"))


def _json_ready(rec):
    out = {}
    for k, v in rec.items():
        if isinstance(v, complex):
            out[k] = _c2pair(v)
        else:
            out[k] = v
    return out


def cmd_verify(args):
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    if args.params and args.seed is not None:
        print("give either --params or --seed, not both", file=sys.stderr)
        return 2
    params_echo = None
    prm = None
    if args.params:
        try:
            prm = params_from_file(args.params)
            params_echo = params_to_dict(prm)
        except (OSError, ValueError) as exc:
            print(f"bad parameter file: {exc}", file=sys.stderr)
            return 2
    seed = args.seed
    cfg = RunConfig(grid=args.grid, cutoff=args.cutoff)
    try:
        result = run_suite(args.suite, seed=seed, params=prm, cfg=cfg)
    except QkzError as exc:
        print(f"structured failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    checks = result["checks"]
    n_fail = sum(1 for c in checks if c["status"] != "pass")
    report = {
        "suite": args.suite,
        "seed": seed,
        "params": params_echo,
        "tool_version": __version__,
        "elapsed_s": result["elapsed_s"],
        "checks": [_json_ready(c) for c in checks],
    }
    _emit(report, args.report)
    for c in checks:
        mark = "PASS" if c["status"] == "pass" else "FAIL"
        print(f"[{mark}] {c['id']}: rel_err={c['rel_err']:.3e} (tol {c['tol']:.1e})")
    print(f"{args.suite}: {len(checks) - n_fail}/{len(checks)} passed in {result['elapsed_s']:.1f}s")
    return 0 if n_fail == 0 else 1


TABLE_IDENTITIES = ("qbeta", "askey_roy", "arl", "ascj", "detM", "detMq")


def _table_seed(identity, sd, args):
    """(meta, lhs, rhs) of each row of one seed.  The torus identities go
    through their suite check functions; the determinants are taken at
    sample_params(sd, 2, 2)."""
    rng = np.random.default_rng(sd)
    draw = lambda *mods: [m * np.exp(1j * rng.uniform(0, 2 * np.pi)) for m in mods]
    if identity == "qbeta":
        a, b, c, x, p = draw(0.35, 0.4, 1.2, 0.42, 0.2)
        grids = ((1, 256), (2, 128))
        recs = [({"ell": ell}, suites.qbeta_check(a, b, c, x, p, ell, M, args.tol)) for ell, M in grids]
    elif identity == "askey_roy":
        a, b, c, al, be, p = draw(0.35, 0.4, 1.2, 0.3, 0.28, 0.2)
        recs = [({}, suites.askey_roy_check(a, b, c, al, be, p, 256, args.tol))]
    elif identity == "arl":
        a, b, c, al, be, x, p = draw(0.35, 0.4, 1.2, 0.3, 0.28, 0.42, 0.2)
        recs = [({"ell": 2}, suites.arl_check(a, b, c, al, be, x, p, 2, 128, args.tol))]
    elif identity == "ascj":
        a, b, al, be = draw(0.32, 0.36, 0.3, 0.28)
        recs = [({"ell": 2, "m": 1}, suites.ascj_check(a, b, al, be, 0.25, 1, 2, args.cutoff, args.tol))]
    else:
        prm = sample_params(sd, 2, 2)
        trig = identity == "detM"
        lhs = solutions.detM_numeric(prm, "trig" if trig else "elliptic")
        return [({"n": 2, "ell": 2}, lhs, integrate.detM_rhs(prm) if trig else integrate.detMq_rhs(prm))]
    return [(meta, rec["lhs"], rec["rhs"]) for meta, (rec,) in recs]


def cmd_table(args):
    if args.identity not in TABLE_IDENTITIES:
        print(f"unknown identity {args.identity!r}", file=sys.stderr)
        return 2
    rows = []
    t0 = time.perf_counter()
    try:
        for sd in range(args.seed, args.seed + args.rows):
            rows += [_row(sd, meta, lhs, rhs) for meta, lhs, rhs in _table_seed(args.identity, sd, args)]
    except QkzError as exc:
        print(f"structured failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = {
        "identity": args.identity,
        "tool_version": __version__,
        "elapsed_s": time.perf_counter() - t0,
        "rows": rows,
    }
    _emit(report, args.report)
    worst = 0.0
    for r in rows:
        print(f"seed={r['seed']} {r['meta']}: rel_err={r['rel_err']:.3e}")
        worst = max(worst, r["rel_err"])
    print(f"{args.identity}: worst rel_err = {worst:.3e} over {len(rows)} rows")
    return 0 if worst <= args.tol else 1


def _row(seed, meta, lhs, rhs):
    abs_err = abs(lhs - rhs)
    return {
        "seed": seed,
        "meta": meta,
        "lhs": _c2pair(lhs),
        "rhs": _c2pair(rhs),
        "abs_err": abs_err,
        "rel_err": abs_err / max(abs(lhs), abs(rhs), 1e-300),
    }


def cmd_sample(args):
    try:
        prm = sample_params(args.seed, args.n, args.ell, regime=args.regime)
    except QkzError as exc:
        print(f"structured failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    doc = params_to_dict(prm)
    doc["margins"] = {k: float(v) for k, v in prm.margins().items()}
    _emit(doc, args.report)
    print(json.dumps(doc, indent=2))
    return 0


def _emit(doc, path):
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


def _int_at_least(lo):
    """argparse type: an int >= lo, else a usage error (exit 2)."""

    def parse(text):
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {v}")
        return v

    parse.__name__ = "positive int" if lo == 1 else "non-negative int"
    return parse


_positive, _non_negative = _int_at_least(1), _int_at_least(0)


def build_parser():
    ap = argparse.ArgumentParser(prog="qkzhyper", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", help="|".join(sorted(SUITES)))
    v.add_argument("--params", help="JSON parameter file")
    v.add_argument("--seed", type=_non_negative, default=None)
    v.add_argument("--grid", type=_positive, default=None)
    v.add_argument("--cutoff", type=_non_negative, default=60)
    v.add_argument("--report", help="write a JSON report here")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("table", help="LHS/RHS table for one identity over a seed grid")
    t.add_argument("identity", help="|".join(TABLE_IDENTITIES))
    t.add_argument("--seed", type=_non_negative, default=1)
    t.add_argument("--rows", type=_positive, default=3)
    t.add_argument("--tol", type=float, default=1e-8)
    t.add_argument("--cutoff", type=_non_negative, default=40)
    t.add_argument("--report")
    t.set_defaults(fn=cmd_table)

    s = sub.add_parser("sample", help="print an admissible parameter draw")
    s.add_argument("--seed", type=_non_negative, default=1)
    s.add_argument("--n", type=_positive, default=2)
    s.add_argument("--ell", type=_non_negative, default=1)
    s.add_argument("--regime", default="convergent")
    s.add_argument("--report")
    s.set_defaults(fn=cmd_sample)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
