"""In-memory span recorder for one traced workload run, and the per-layer
metrics derived from its spans.

The recorder wraps the program's public functions from outside: each wrapper
is installed under the name the calling module uses to look the function up
(a module global of `nullctrl.pipeline`, `nullctrl.cli` or `nullctrl.fem`, a
class attribute, or an attribute of `scipy.sparse.linalg`), so the program's
own code is unchanged.  Counts come from call arguments, return values and
call counts only.
"""

from __future__ import annotations

import glob
import inspect
import os
import time

import numpy as np

# Span name prefix -> layer whose self time the span's self time adds to.
# scipy spans go to the nearest saddle/forward ancestor instead.
_LAYER_OF = {
    "cli": "cli",
    "config": "config",
    "pipeline": "pipeline",
    "mesh.build_mesh": "mesh.build",
    "mesh.locate": "mesh.locate",
    "forms": "forms",
    "saddle": "saddle",
    "forward": "forward",
    "fem.eval": "fem.eval",
    "fem.l2_norm": "fem.l2_norm",
    "weights.inv_weight": "weights.inv_weight",
    "weights.hatted_coeff_arrays": "weights.coeff",
    "vtkout": "vtkout",
}

FACTOR_CALLS = ("scipy.splu", "scipy.spsolve", "scipy.factorized")
ITERATIVE_SOLVES = ("saddle.arrow_hurwicz", "saddle.lsq_solve")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Records one span per wrapped call: name, start, end, parent span.

    All spans of a recorder belong to one workload run (`run_id`).
    """

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._restore = []

    def call(self, name, fn, *args, hook=None, **kwargs):
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            span.info = hook(args, kwargs, result)
        return result

    def wrap(self, owner, attr, name, hook=None):
        """Replace owner.attr by a span-recording wrapper until `restore`."""
        fn = getattr(owner, attr)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, hook=hook, **kwargs)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def restore(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)


def _arg(fn, name):
    """Hook helper: the value parameter `name` takes in a call to fn."""
    sig = inspect.signature(fn)

    def value(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return value


def install(rec: Recorder):
    """Wrap every traced entry point of the program for recorder `rec`."""
    import scipy.sparse.linalg as spla

    from nullctrl import cli, config, fem, pipeline, weights

    keep_result = lambda args, kwargs, result: {"result": result}
    rec.wrap(config, "validate", "config.validate")
    for attr in ("solve_heat_control", "solve_stokes_control",
                 "fixed_point_ns"):
        rec.wrap(cli, attr, "pipeline." + attr, hook=keep_result)
    rec.wrap(cli, "write_field_series", "vtkout.write_field_series",
             hook=lambda a, k, r: {"outdir": a[0] if a else k["outdir"]})
    rec.wrap(pipeline, "build_mesh", "mesh.build_mesh")
    for attr in ("assemble_heat", "assemble_stokes", "assemble_oseen"):
        rec.wrap(pipeline, attr, "forms." + attr, hook=keep_result)

    def ah_hook(args, kwargs, result):
        log = result[2]
        return {"iterations": log.iters[-1] if log.iters else 0,
                "converged": bool(log.converged), "system": args[0]}

    def lsq_hook(args, kwargs, result):
        info = result[2]
        istop = info.get("istop", 0)
        return {"iterations": int(info["iterations"]),
                "converged": istop in (0, 1, 2, 4, 5),
                "system": args[0]}

    tol_of = _arg(pipeline.KktSolver.resolve, "tol")

    def resolve_hook(args, kwargs, result):
        return {"converged": bool(result[2] <= tol_of(args, kwargs))}

    rec.wrap(pipeline, "arrow_hurwicz", "saddle.arrow_hurwicz", hook=ah_hook)
    rec.wrap(pipeline, "lsq_solve", "saddle.lsq_solve", hook=lsq_hook)
    rec.wrap(pipeline, "direct_solve", "saddle.direct_solve",
             hook=lambda a, k, r: {"converged": True})
    rec.wrap(pipeline.KktSolver, "__init__", "saddle.KktSolver.__init__")
    rec.wrap(pipeline.KktSolver, "resolve", "saddle.KktSolver.resolve",
             hook=resolve_hook)
    for attr in ("heat_forward_cn", "flow_forward"):
        steps_of = _arg(getattr(pipeline, attr), "nt_fwd")
        rec.wrap(pipeline, attr, "forward." + attr,
                 hook=lambda a, k, r, f=steps_of: {"steps": int(f(a, k))})
    rec.wrap(pipeline, "l2_norm", "fem.l2_norm")
    rec.wrap(pipeline.WeightedField, "__call__",
             "pipeline.WeightedField.__call__")

    def eval_hook(args, kwargs, result):
        x = args[2] if len(args) > 2 else kwargs["x"]
        return {"points": int(np.size(x) // 2)}

    rec.wrap(fem.TensorFemSpace, "eval", "fem.eval", hook=eval_hook)
    rec.wrap(fem, "locate", "mesh.locate")
    rec.wrap(weights.WeightSet, "inv_weight", "weights.inv_weight")
    rec.wrap(weights.WeightSet, "hatted_coeff_arrays",
             "weights.hatted_coeff_arrays")
    for attr in ("splu", "spsolve", "factorized", "lsmr"):
        rec.wrap(spla, attr, "scipy." + attr)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def layer_of(spans, i):
    name = spans[i].name
    if name.startswith("scipy."):
        for a in _ancestors(spans, i):
            layer = layer_of(spans, a)
            if layer in ("saddle", "forward"):
                return layer
        return "scipy"
    for prefix, layer in _LAYER_OF.items():
        if name == prefix or name.startswith(prefix + "."):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


def layer_self_times(spans):
    """Self time summed per layer; the values add up to the root span."""
    out = {}
    for i, st in enumerate(self_times(spans)):
        layer = layer_of(spans, i)
        out[layer] = out.get(layer, 0.0) + st
    return out


def inclusive(spans, match):
    """Total duration of matching spans not nested in another matching span."""
    hit = [match(i) for i in range(len(spans))]
    total = 0.0
    for i, s in enumerate(spans):
        if hit[i] and not any(hit[a] for a in _ancestors(spans, i)):
            total += s.duration
    return total


# ---------------------------------------------------------------------------
# computed operator traffic
# ---------------------------------------------------------------------------

def csr_matvec_bytes(M):
    """Bytes one CSR/CSC matrix-vector product reads and writes: values,
    column indices, row pointers, the input and the output vector."""
    M = M.tocsr()
    r, c = M.shape
    return (M.nnz * (M.data.itemsize + M.indices.itemsize)
            + (r + 1) * M.indptr.itemsize + 8 * (c + r))


def ah_bytes_per_iter(system):
    """A x, B^T lam, B x, two mass products per relative-change norm."""
    s = system
    return (csr_matvec_bytes(s.A) + 2 * csr_matvec_bytes(s.B)
            + 2 * csr_matvec_bytes(s.M_primal)
            + 2 * csr_matvec_bytes(s.M_dual))


def lsq_bytes_per_iter(system):
    """One product with the augmented KKT matrix and one with its transpose."""
    import scipy.sparse as sp
    A, B = system.A, system.B
    K = sp.bmat([[A + B.T @ B, B.T], [B, None]], format="csr")
    return 2 * csr_matvec_bytes(K)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

def layer_metrics(spans):
    """Per-layer metrics (name -> value) of one traced `cli.run` call.

    `*_s` values are inclusive span times, `*_share` values are inclusive
    span times over the root span (used for layers some workloads never
    enter, so that every reported time is a measured, non-structural one).
    """
    names = [s.name for s in spans]
    run_s = inclusive(spans, lambda i: spans[i].parent < 0)
    by_layer = [layer_of(spans, i) for i in range(len(spans))]

    def idx(pred):
        return [i for i in range(len(spans)) if pred(i)]

    def incl_name(*prefixes):
        return inclusive(spans, lambda i: names[i].startswith(prefixes))

    def calls(*prefixes):
        return len(idx(lambda i: names[i].startswith(prefixes)))

    selfs = self_times(spans)
    m = {}

    # saddle
    saddle_top = idx(lambda i: by_layer[i] == "saddle"
                     and not names[i].startswith("scipy.")
                     and not any(by_layer[a] == "saddle"
                                 for a in _ancestors(spans, i)))
    m["saddle.solve_s"] = sum(spans[i].duration for i in saddle_top)
    iterative = idx(lambda i: names[i] in ITERATIVE_SOLVES)
    iters = sum(spans[i].info["iterations"] for i in iterative)
    iter_time = sum(spans[i].duration for i in iterative)
    m["saddle.iterations"] = iters
    m["saddle.iters_per_s"] = iters / iter_time if iters else 0.0
    traffic = 0
    for i in iterative:
        per = (ah_bytes_per_iter if names[i] == "saddle.arrow_hurwicz"
               else lsq_bytes_per_iter)(spans[i].info["system"])
        traffic += per * spans[i].info["iterations"]
    m["saddle.bytes_per_iter"] = traffic / iters if iters else 0
    outcome = [spans[i].info["converged"] for i in saddle_top
               if spans[i].info]
    m["saddle.converged_share"] = (sum(outcome) / len(outcome)
                                   if outcome else 0.0)
    sfac = idx(lambda i: names[i] in FACTOR_CALLS
               and by_layer[i] == "saddle")
    m["saddle.factorizations"] = len(sfac)
    sfac_s = sum(spans[i].duration for i in sfac)
    m["saddle.factor_share"] = (sfac_s / m["saddle.solve_s"]
                                if m["saddle.solve_s"] else 0.0)
    resolves = idx(lambda i: names[i] == "saddle.KktSolver.resolve")
    refactored = {a for i in sfac for a in _ancestors(spans, i)}
    m["saddle.factor_reuse"] = (
        sum(1 for i in resolves if i not in refactored) / len(resolves)
        if resolves else 0.0)

    # forms and weights
    m["forms.assemble_s"] = incl_name("forms.")
    assembled = [spans[i].info["result"]
                 for i in idx(lambda i: names[i].startswith("forms."))]
    m["forms.assemble_calls"] = len(assembled)
    last = assembled[-1] if assembled else None
    m["forms.dofs"] = last.n_primal + last.n_dual if last else 0
    m["forms.nnz"] = last.A.nnz + last.B.nnz if last else 0
    m["weights.coeff_share"] = incl_name("weights.hatted_coeff_arrays") / run_s

    # forward verification and the evaluation chain under it
    fwd = idx(lambda i: names[i].startswith("forward."))
    m["forward.verify_s"] = incl_name("forward.")
    m["forward.steps"] = sum(spans[i].info["steps"] for i in fwd)
    ffac = idx(lambda i: names[i] in FACTOR_CALLS
               and by_layer[i] == "forward")
    m["forward.factorizations"] = len(ffac)
    m["forward.factor_s"] = sum(spans[i].duration for i in ffac)
    fwd_set = set(fwd)
    m["forward.control_eval_s"] = inclusive(
        spans, lambda i: names[i] == "pipeline.WeightedField.__call__"
        and any(a in fwd_set for a in _ancestors(spans, i)))
    m["fem.eval_s"] = incl_name("fem.eval")
    m["fem.eval_calls"] = calls("fem.eval")
    m["fem.eval_points"] = sum(s.info["points"] for s in spans
                               if s.name == "fem.eval")
    m["mesh.locate_s"] = incl_name("mesh.locate")
    m["mesh.locate_calls"] = calls("mesh.locate")
    m["weights.inv_weight_s"] = incl_name("weights.inv_weight")
    m["weights.inv_weight_calls"] = calls("weights.inv_weight")

    # pipeline orchestration
    m["fem.l2_norm_share"] = incl_name("fem.l2_norm") / run_s
    outer = 0
    for s in spans:
        if s.name == "pipeline.fixed_point_ns":
            outer += len(s.info["result"][1].iters)
    m["pipeline.outer_iterations"] = outer
    m["pipeline.self_s"] = sum(st for st, layer in zip(selfs, by_layer)
                               if layer == "pipeline")

    # set-up style layers
    m["mesh.build_s"] = incl_name("mesh.build_mesh")
    m["config.validate_s"] = incl_name("config.validate")
    m["vtkout.write_s"] = incl_name("vtkout.")
    nbytes = 0
    for s in spans:
        if s.name == "vtkout.write_field_series":
            nbytes += sum(os.path.getsize(p) for p in glob.glob(
                os.path.join(s.info["outdir"], "field_*.vtk")))
    m["vtkout.bytes"] = nbytes
    m["cli.self_s"] = sum(st for st, layer in zip(selfs, by_layer)
                          if layer == "cli")
    return {k: float(v) for k, v in m.items()}
