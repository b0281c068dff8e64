"""In-memory span tracer that wraps the package's public functions from outside.

Every public function defined in a traced module is wrapped, and every
module-level name bound to it anywhere in ``qkzhyper.*`` is rebound to the
wrapper: ``from .kernels import qpoch_array`` makes a second name in
``numkernel`` that the kernel's own module attribute does not cover.

A span is (name, start, end, parent, points, point_terms, shells).  Spans stay
in memory until ``Tracer.save``; self time is a span's duration minus the time
its child spans cover.  Tracing is single-threaded, as the package is.
"""

import contextlib
import functools
import importlib
import inspect
import math
import pkgutil
import sys
import time

import numpy as np

from qkzhyper.integrate import QuadratureSpec, ResiduePlan

PACKAGE = "qkzhyper"
# the package's modules, which are the benchmark's layers
LAYERS = ("kernels", "numkernel", "weightfn", "integrate", "solutions", "repthy", "combin", "cli_params")
MARK = "__perfbench_span__"


def _size(x):
    return int(np.size(x))


def _rows(t, ell):
    """Number of points in a batch t of shape (..., ell)."""
    return _size(t) // ell if ell else 1


# Work extractors take the traced function's own arguments and return
# (points, point_terms).  They mirror the traced signatures, so a signature
# change raises here instead of being counted wrongly.
def _kernel_work(u, p, nterms, pp_inf=None):
    n = _size(u)
    return n, n * int(nterms)


def _ratio_work(a, b, p, nterms):
    n = math.prod(np.broadcast_shapes(np.shape(a), np.shape(b)))
    return n, n * int(nterms)


def _weight_work(l, t, params, *args, **kwargs):
    return _rows(t, sum(l)), 0


def _residue_work(f, center, params=None, plan=None, shrink=0.05):
    m = plan.points if plan is not None else ResiduePlan.__dataclass_fields__["points"].default
    return m ** len(center), 0


def _torus_work(f, ell, spec=QuadratureSpec(), measure=None):
    return spec.points_per_circle**ell, 0


def _many_work(Ws, ws, params, spec=QuadratureSpec(), policy=None):
    return spec.points_per_circle**params.ell, 0


WORK = {
    "kernels.qpoch_array": _kernel_work,
    "kernels.theta_array": _kernel_work,
    "kernels.qpoch_ratio_array": _ratio_work,
    "weightfn.W_ell": _weight_work,
    "weightfn.w_trig": _weight_work,
    "integrate.multi_residue": _residue_work,
    "integrate.torus_integral": _torus_work,
    "integrate.hyper_I_many": _many_work,
}


# Shell counts come from the report each sum returns.
def _jackson_shells(out):
    return out[1]["shells"]


def _lattice_shells(out):
    return out[2]["shells"]


SHELLS = {
    "integrate.jackson_sum": _jackson_shells,
    "integrate.ascj_sum": _lattice_shells,
    "integrate.ascj_general_sum": _lattice_shells,
    "integrate.qselberg_jackson": _lattice_shells,
}


def import_package():
    """Import every module of the package, so that no module is first imported
    (and binds its from-imports) while wrappers are installed."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")


def package_modules():
    return [m for k, m in sorted(sys.modules.items()) if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def installed_wrappers():
    """Names in the package's modules that are bound to a tracing wrapper."""
    return sorted(
        f"{m.__name__}.{k}" for m in package_modules() for k, v in vars(m).items() if hasattr(v, MARK)
    )


def require_untraced():
    """Raise if any tracing wrapper is bound; timed runs call this."""
    found = installed_wrappers()
    if found:
        raise RuntimeError(f"tracing wrappers installed during a timed run: {found[:5]}")


def traced_functions():
    """{qualified name: function} for the public functions of every layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, fn in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(fn)
            ):
                out[f"{layer}.{name}"] = fn
    return out


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._ids = {}
        self._stack = []
        self._bound = []  # (module, attribute, original) to restore

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        idx = self._id(name)
        spans, stack = self.spans, self._stack
        work, shells = WORK.get(name), SHELLS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pts, terms = work(*args, **kwargs) if work else (0, 0)
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, pts, terms, 0)
            if shells:
                spans[me] = (idx, t0, t1, parent, pts, terms, int(shells(out)))
            return out

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        require_untraced()
        import_package()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in traced_functions().items()}
        for mod in package_modules():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._bound.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, val in reversed(self._bound):
            setattr(mod, attr, val)
        self._bound = []
        require_untraced()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens, around a suite."""
        idx = self._id(name)
        me = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(me)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[me] = (idx, t0, t1, parent, 0, 0, 0)

    def arrays(self):
        """Spans as column arrays, plus each span's self time."""
        cols = np.array(self.spans, dtype=np.float64).reshape(-1, 7)
        start, end = cols[:, 1], cols[:, 2]
        parent = cols[:, 3].astype(np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        return {
            "name": cols[:, 0].astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "points": cols[:, 4].astype(np.int64),
            "point_terms": cols[:, 5].astype(np.int64),
            "shells": cols[:, 6].astype(np.int64),
            "self": dur - covered,
        }

    def save(self, path):
        """Write the spans out (names plus one column array per field)."""
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **a)


def summarize(tracer):
    """({name: calls, points, point_terms, shells, self_s, wall_s}, span arrays)."""
    a = tracer.arrays()
    out = {}
    for i, nm in enumerate(tracer.names):
        sel = a["name"] == i
        if not sel.any():
            continue
        out[nm] = {
            "calls": int(sel.sum()),
            "points": int(a["points"][sel].sum()),
            "point_terms": int(a["point_terms"][sel].sum()),
            "shells": int(a["shells"][sel].sum()),
            "self_s": float(a["self"][sel].sum()),
            "wall_s": float((a["end"][sel] - a["start"][sel]).sum()),
        }
    return out, a


def descendants_named(a, names, ancestor, callee):
    """Number of `callee` spans that have an `ancestor` span above them."""
    if ancestor not in names or callee not in names:
        return 0
    anc, want = names.index(ancestor), names.index(callee)
    name, parent = a["name"], a["parent"]
    count = 0
    for s in np.flatnonzero(name == want):
        p = parent[s]
        while p >= 0 and name[p] != anc:
            p = parent[p]
        count += p >= 0
    return int(count)
