"""Workloads, and the names, units and directions of the metrics.

``BENCHMARK.json`` lists the same names; the self-test checks that they agree.
README.md maps each per-layer metric to the end-to-end metric it should move.
A layer a workload never calls reports zero calls and zero time.
"""

C03 = "c03-qbeta-l3"

WORKLOADS = {
    # the Jackson/residue route: multi_residue on 64^2 circles, planner, shells
    "residue": ("jackson", "shapovalov", "qkz", "asymptotics"),
    # big-grid torus quadrature with almost no residue planner
    "torus": ("pairing-det", C03),
    # the same kernels on tiny inputs, so per-call overhead dominates
    "pointwise": ("identities", "transition", "weights", "rmatrix", "kernel"),
}

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    # mean over checks of log10(tol / max(rel_err, 1e-16)); the minimum is
    # printed too, but which check is smallest changes with the seed
    "mean_margin_decades": ("decades", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

KERNELS = ("qpoch_array", "theta_array", "qpoch_ratio_array")
SWEEP_SIZES = (64, 4096, 131072)

_FIELD_UNITS = {
    "calls": "count",
    "points": "count",
    "point_terms": "count",
    "shells": "count",
    "residues_per_call": "count",
    "self_s": "s",
    "ns_per_point_term": "ns",
    "us_per_call": "us",
}

# (function, fields) in the order they are reported
FUNCTIONS = (
    *((f"kernels.{k}", ("calls", "points", "point_terms", "self_s", "ns_per_point_term", "us_per_call")) for k in KERNELS),
    *((f"numkernel.{f}", ("calls", "self_s")) for f in ("qpoch", "theta", "qpoch_ratio", "theta_ratio", "phase_phi")),
    *((f"weightfn.{f}", ("calls", "points", "self_s")) for f in ("W_ell", "w_trig")),
    ("integrate.multi_residue", ("calls", "points", "self_s")),
    ("integrate.jackson_sum", ("calls", "self_s", "shells", "residues_per_call")),
    *((f"integrate.{f}", ("calls", "points", "self_s")) for f in ("torus_integral", "hyper_I_many")),
    *((f"integrate.{f}", ("calls", "self_s", "shells")) for f in ("ascj_sum", "ascj_general_sum", "qselberg_jackson")),
    *((f"solutions.{f}", ("calls", "self_s")) for f in ("expand_in_basis", "transition_matrix", "psi_solution")),
    *((f"repthy.{f}", ("calls", "self_s")) for f in ("trig_R_block", "qkz_K")),
    ("cli_params.sample_params", ("calls", "self_s")),
)

SUITE_NAMES = tuple(dict.fromkeys(s for names in WORKLOADS.values() for s in names))


def per_layer_specs():
    """[(name, unit)] of every per-layer metric; all are lower-is-better."""
    out = []
    for fn, fields in FUNCTIONS:
        out.extend((f"{fn}.{f}", _FIELD_UNITS[f]) for f in fields)
    out.extend((f"kernels.sweep.n{n}.{k}.ns_per_point_term", "ns") for n in SWEEP_SIZES for k in KERNELS)
    out.extend((f"suites.{s}.s", "s") for s in SUITE_NAMES)
    out.append(("trace.overhead_frac", "ratio"))
    return out


def layer_values(summary, residues_under_jackson, sweep, suite_times, overhead):
    """{metric name: value} for one traced pass."""
    vals = {}
    for fn, fields in FUNCTIONS:
        rec = summary.get(fn, {})
        calls = rec.get("calls", 0)
        self_s = rec.get("self_s", 0.0)
        terms = rec.get("point_terms", 0)
        derived = {
            "ns_per_point_term": 1e9 * self_s / terms if terms else 0.0,
            "us_per_call": 1e6 * self_s / calls if calls else 0.0,
            "residues_per_call": residues_under_jackson / calls if calls else 0.0,
        }
        for f in fields:
            vals[f"{fn}.{f}"] = derived[f] if f in derived else rec.get(f, 0)
    for n in SWEEP_SIZES:
        for k in KERNELS:
            vals[f"kernels.sweep.n{n}.{k}.ns_per_point_term"] = sweep[(n, k)]["ns_per_point_term"]
    for s in SUITE_NAMES:
        vals[f"suites.{s}.s"] = suite_times.get(s, 0.0)
    vals["trace.overhead_frac"] = overhead
    return vals

