"""Outside-in span tracing of homoglab's public layer functions.

``install(tracer)`` replaces each target in ``TARGETS`` with a timing
wrapper.  Module-level functions are rebound in every loaded ``homoglab.*``
module whose globals alias them, because ``from ..mesh import assemble``
copies the reference into the importing module.  Methods are replaced on
their class.  A target that no longer exists raises ``LookupError``, so a
refactor cannot silently zero a layer metric.

Spans are kept in memory as [name, parent index, start, end] and written
once, at the end of the run, by ``Tracer.dump``.  ``layer_metrics`` turns
them into the per-layer metrics named in BENCHMARK.json.  The module needs
only the standard library, so the harness imports it for the metric names.
"""

import functools
import importlib
import json
import math
import resource
import sys
import time
import weakref
from collections import Counter, defaultdict

FACTOR_KINDS = ("dir_eps", "dir_0", "neu_eps", "neu_0", "periodic")
SOLVE_KINDS = ("dirichlet", "neumann", "periodic")
BATCHES = ("dir_eps", "post_eps", "dir_0", "neu_eps", "neu_0")
LEVELS = (64, 128, 256, 512)
ROOT = "ratelab.run_many"


def factor_kind(op):
    """Operator kind of a factorization: mode plus _eps/_0 from the coefficient."""
    if op.mode == "periodic":
        return "periodic"
    prefix = {"dirichlet": "dir", "neumann": "neu"}[op.mode]
    return prefix + ("_eps" if getattr(op.coeff, "epsilon", 0.0) else "_0")


# (module, attribute, span name).  "Class.method" attributes are replaced on
# the class; "EXPERIMENTS[*].field" wraps that field of every registry entry.
TARGETS = [
    ("homoglab.coeff", "CoefficientField.__call__", "coeff.eval"),
    ("homoglab.mesh", "AssembledOperator._factor", "mesh.factor"),
    ("homoglab.mesh", "assemble", "mesh.assemble"),
    ("homoglab.mesh", "solve_dirichlet", "mesh.solve.dirichlet"),
    ("homoglab.mesh", "solve_neumann", "mesh.solve.neumann"),
    ("homoglab.mesh", "solve_periodic", "mesh.solve.periodic"),
    ("homoglab.mesh", "volume_load", "mesh.load"),
    ("homoglab.mesh", "divergence_load", "mesh.load"),
    ("homoglab.mesh", "volume_load_from_gauss", "mesh.load"),
    ("homoglab.mesh", "divergence_load_from_gauss", "mesh.load"),
    ("homoglab.mesh", "boundary_flux_load", "mesh.load"),
    ("homoglab.mesh", "norm", "mesh.post"),
    ("homoglab.mesh", "nodal_gradient", "mesh.post"),
    ("homoglab.mesh", "conormal", "mesh.post"),
    ("homoglab.mesh", "tangential_derivative", "mesh.post"),
    ("homoglab.cell", "solve", "cell.solve"),
    ("homoglab.cell", "solve_cell", "cell.solve_cell"),
    ("homoglab.cell", "homogenize", "cell.homogenize"),
    ("homoglab.cell", "discrepancy", "cell.discrepancy"),
    ("homoglab.cell", "flux_corrector", "cell.flux_corrector"),
    ("homoglab.correctors", "dirichlet_correctors", "correctors.dirichlet"),
    ("homoglab.correctors", "neumann_correctors", "correctors.neumann"),
    ("homoglab.correctors", "chi_on_domain", "correctors.chi_on_domain"),
    ("homoglab.kernels", "green", "kernels.green"),
    ("homoglab.kernels", "neumann_fn", "kernels.neumann_fn"),
    ("homoglab.kernels", "omega", "kernels.omega"),
    ("homoglab.kernels", "apply_dtn_via_solve", "kernels.apply_dtn"),
    ("homoglab.kernels", "dtn", "kernels.dtn"),
    ("homoglab.expand", "build_expansion", "expand.build_expansion"),
    ("homoglab.expand", "residual_identity_check", "expand.identity_check"),
    ("homoglab.expand", "conormal_identity_check", "expand.identity_check"),
    ("homoglab.ratelab.context", "cell_solution", "ratelab.cell_solution"),
    ("homoglab.ratelab.context", "EpsilonContext.prepare", "ratelab.prepare"),
    *[("homoglab.ratelab.context", f"EpsilonContext._batch_{b}", f"ratelab.batch.{b}")
      for b in BATCHES],
    ("homoglab.ratelab.experiments", "EXPERIMENTS[*].compute", "ratelab.compute"),
    ("homoglab.ratelab.experiments", "EXPERIMENTS[*].runner", "ratelab.runner"),
    ("homoglab.ratelab", "emit", "ratelab.emit"),
]

# per-layer metric -> span name whose self time it sums
SELF_METRICS = {
    "coeff.eval_s": "coeff.eval",
    **{f"mesh.factor_s.{k}": f"mesh.factor.{k}" for k in FACTOR_KINDS},
    **{f"mesh.solve_s.{k}": f"mesh.solve.{k}" for k in SOLVE_KINDS},
    "mesh.assemble_s": "mesh.assemble",
    "mesh.load_s": "mesh.load",
    "mesh.post_s": "mesh.post",
    "cell.solve_cell_s": "cell.solve_cell",
    "cell.homogenize_s": "cell.homogenize",
    "cell.discrepancy_s": "cell.discrepancy",
    "cell.flux_corrector_s": "cell.flux_corrector",
    "correctors.dirichlet_s": "correctors.dirichlet",
    "correctors.neumann_s": "correctors.neumann",
    "correctors.chi_on_domain_s": "correctors.chi_on_domain",
    "kernels.green_s": "kernels.green",
    "kernels.neumann_fn_s": "kernels.neumann_fn",
    "kernels.omega_s": "kernels.omega",
    "kernels.apply_dtn_s": "kernels.apply_dtn",
    "kernels.dtn_s": "kernels.dtn",
    "expand.build_expansion_s": "expand.build_expansion",
    "expand.identity_check_s": "expand.identity_check",
    "ratelab.compute_s": "ratelab.compute",
    "ratelab.runner_s": "ratelab.runner",
    "ratelab.emit_s": "ratelab.emit",
}
# per-layer metric -> span name whose inclusive time it sums
INCL_METRICS = {
    "cell.solve_s": "cell.solve",
    **{f"ratelab.batch_s.{b}": f"ratelab.batch.{b}" for b in BATCHES},
}
# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    **{f"mesh.factor_count.{k}": f"mesh.factor.{k}" for k in FACTOR_KINDS},
    **{f"mesh.solves.{k}": f"mesh.solve.{k}" for k in SOLVE_KINDS},
    "mesh.assemble_calls": "mesh.assemble",
    "mesh.load_calls": "mesh.load",
    "mesh.post_calls": "mesh.post",
    "cell.solve_calls": "cell.solve",
}
# counters recorded by the wrappers themselves
COUNT_METRICS = ("coeff.eval_points", *[f"mesh.factor_nnz.{k}" for k in FACTOR_KINDS],
                 "mesh.refactors", "mesh.assemble_nnz", "kernels.dtn_columns")
LEVEL_METRICS = (*[f"ratelab.level_s.n{n}" for n in LEVELS],
                 *[f"ratelab.level_rss_mb.n{n}" for n in LEVELS])
OTHER_METRICS = ("ratelab.cell_cache_hit_ratio", "process.cpu_s",
                 "trace.run_s", "trace.unattributed_s", "trace.overhead_s")

PER_LAYER = (*SELF_METRICS, *INCL_METRICS, *CALL_METRICS, *COUNT_METRICS,
             *LEVEL_METRICS, *OTHER_METRICS)


def unit(name):
    """Unit of an end-to-end or per-layer metric, read off its name."""
    if name == "peak_rss_mb" or name.startswith("ratelab.level_rss_mb."):
        return "MiB"
    if name == "ratelab.cell_cache_hit_ratio":
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans and counters for one run (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []                 # [name, parent index, start, end]
        self.counts = Counter()
        self.fired = Counter()          # target -> calls
        self.levels = defaultdict(float)
        self.level_rss = defaultdict(float)
        self._stack = [-1]
        self._factored = weakref.WeakSet()
        self._open_levels = {}

    def span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, self._stack[-1], time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


# -- wrappers --------------------------------------------------------------


def _points(points):
    shape = getattr(points, "shape", None)
    if shape is None:                  # a point given as a sequence of coordinates
        return 1
    return math.prod(shape[:-1])


def _make_wrapper(tracer, target, fn, name):
    if name == "mesh.factor":
        def wrapper(op, matrix):
            tracer.fired[target] += 1
            kind = factor_kind(op)
            lu = tracer.span(f"mesh.factor.{kind}", fn, (op, matrix), {})
            tracer.counts[f"mesh.factor_nnz.{kind}"] += int(lu.nnz)
            if op in tracer._factored:
                tracer.counts["mesh.refactors"] += 1
            tracer._factored.add(op)
            return lu
    elif name == "coeff.eval":
        def wrapper(*args, **kwargs):
            tracer.fired[target] += 1
            tracer.counts["coeff.eval_points"] += _points(args[1])
            return tracer.span(name, fn, args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            tracer.fired[target] += 1
            out = tracer.span(name, fn, args, kwargs)
            if name == "mesh.assemble":
                tracer.counts["mesh.assemble_nnz"] += int(out.matrix.nnz)
            elif name == "kernels.dtn":
                tracer.counts["kernels.dtn_columns"] += int(out.mat.shape[1])
            return out
    return functools.wraps(fn)(wrapper)


def _homoglab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "homoglab" or k.startswith("homoglab."))]


def _rebind(original, wrapper):
    for mod in _homoglab_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _install_levels(tracer, ctx_cls):
    init, release = ctx_cls.__init__, ctx_cls.release

    @functools.wraps(init)
    def level_init(self, *args, **kwargs):
        tracer.fired["EpsilonContext.__init__"] += 1
        t0 = time.perf_counter()
        init(self, *args, **kwargs)
        tracer._open_levels[id(self)] = (self.n, t0)

    @functools.wraps(release)
    def level_release(self):
        tracer.fired["EpsilonContext.release"] += 1
        release(self)
        opened = tracer._open_levels.pop(id(self), None)
        if opened is not None:
            n, t0 = opened
            tracer.levels[n] += time.perf_counter() - t0
            tracer.level_rss[n] = max(tracer.level_rss[n], _maxrss_mb())

    ctx_cls.__init__ = level_init
    ctx_cls.release = level_release


def install(tracer):
    """Wrap every target, recording into ``tracer``."""
    for modname, attr, name in TARGETS:
        mod = importlib.import_module(modname)
        key = f"{modname}:{attr}"
        if attr.startswith("EXPERIMENTS[*]."):
            field = attr.split(".", 1)[1]
            registry = getattr(mod, "EXPERIMENTS", {})
            entries = [e for e in registry.values() if getattr(e, field, None) is not None]
            if not entries:
                raise LookupError(f"no registry entry has a {field!r} to trace")
            for e in entries:
                setattr(e, field, _make_wrapper(tracer, key, getattr(e, field), name))
        elif "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname, None)
            if cls is None or meth not in vars(cls):
                raise LookupError(f"trace target {key} no longer exists")
            setattr(cls, meth, _make_wrapper(tracer, key, vars(cls)[meth], name))
        else:
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise LookupError(f"trace target {key} no longer exists")
            _rebind(fn, _make_wrapper(tracer, key, fn, name))
    ctx = importlib.import_module("homoglab.ratelab.context")
    for meth in ("__init__", "release"):
        if meth not in vars(ctx.EpsilonContext):
            raise LookupError(f"trace target EpsilonContext.{meth} no longer exists")
    _install_levels(tracer, ctx.EpsilonContext)


# -- metrics ---------------------------------------------------------------


def layer_metrics(tracer, cpu_s):
    """Per-layer metrics from the spans and counters of one traced run."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_by = defaultdict(float)
    incl_by = defaultdict(float)
    calls_by = Counter()
    for i, (name, parent, t0, t1) in enumerate(spans):
        self_by[name] += (t1 - t0) - child_time[i]
        incl_by[name] += t1 - t0
        calls_by[name] += 1
    out = {}
    for metric, name in SELF_METRICS.items():
        out[metric] = self_by[name]
    for metric, name in INCL_METRICS.items():
        out[metric] = incl_by[name]
    for metric, name in CALL_METRICS.items():
        out[metric] = calls_by[name]
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts[metric]
    for n in LEVELS:
        out[f"ratelab.level_s.n{n}"] = tracer.levels.get(n, 0.0)
        out[f"ratelab.level_rss_mb.n{n}"] = tracer.level_rss.get(n, 0.0)
    lookups = calls_by["ratelab.cell_solution"]
    misses = sum(1 for name, parent, _, _ in spans
                 if name == "cell.solve" and parent >= 0
                 and spans[parent][0] == "ratelab.cell_solution")
    out["ratelab.cell_cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    out["process.cpu_s"] = cpu_s
    out["trace.run_s"] = incl_by[ROOT]
    # self time under the run_many root that no self-time metric claims
    claimed = set(SELF_METRICS.values())
    out["trace.unattributed_s"] = sum(
        v for name, v in self_by.items() if name not in claimed and name != "ratelab.emit")
    return out
