"""Spans around the public functions of the ``phhs`` layers, from outside the package.

``Tracer.install`` replaces each listed function (or method) by a wrapper
that records one span per call: its name, its parent span, start and end.
A name is rebound in every ``phhs`` module that imported it, so calls made
through ``from .fields import partial_jet`` are seen too.  Spans stay in
compact in-memory arrays until ``layer_metrics`` summarises them at the end.
``end_pass`` marks where each pass of the workload ends; every per-layer
metric is computed per pass and reported as its median over the passes, so
it does not grow with the number of passes a run fits in.

Self time of a span is its duration minus the durations of its child spans
(children of one span never overlap: the program is single threaded).  The
total time of a name counts only its outermost spans, so a field evaluated
inside another field's evaluation is not counted twice.
"""

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = {
    "models": ("build_proper_phhs", "build_standard_hhs", "build_central_problem", "build_deformation"),
    "expressions": ("Expression.evaluate", "Expression.diff"),
    "fields": ("Field.__call__", "partial_jet"),
    "tensors": ("nijenhuis", "exterior_derivative_2form", "lie_bracket"),
    "hamiltonian": ("assemble_phhs", "integrability_report", "primitive_scalar", "closedness_residual"),
    "flows": ("trajectory_grid", "flow", "flow_word", "continue_along_path"),
    "actions": (
        "ParallelogramAction.value",
        "ParallelogramAction.gradient",
        "ParallelogramAction.integrand_cells",
    ),
    "morse": ("area_law_check", "verify_T_periodic", "rescaling_chart", "period_function"),
    "connections": ("flatness_vs_integrability", "holo_metric_lc_check"),
}

# Field names counted one by one; every other field is counted as "other".
FIELD_NAMES = {
    "J_g": "J_g", "X": "X", "JX": "JX", "H_R": "H_R", "H_I": "H_I", "lambda_R": "lambda_R",
    "omega_R": "omega_R", "omega_I": "omega_I", "omega_R(JX,.)": "alpha", "J": "J",
    "J_eps": "J_eps", "combo": "combo",
}
FIELD_COUNTERS = tuple(FIELD_NAMES.values()) + ("other",)


def span_names(verbs):
    """Every span name, in report order: one root span per CLI verb, then the layers."""
    names = [f"cli.{v}" for v in verbs]
    for layer, fns in LAYERS.items():
        names += [f"{layer}.{fn}" for fn in fns]
    return names


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self._stack = [-1]
        self._active = []
        self.field_evals = Counter()
        self.flow_field_evals = 0
        self.rk4_steps = 0
        self.grid_nodes = {}
        self.passes = []
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name, fn, hook=None):
        """``fn`` recording a span named ``name``; ``hook(args, kwargs)`` runs first."""
        nid = self._id(name)
        clock, stack, active = self.clock, self._stack, self._active
        names, parents, starts, ends, outers = self.name, self.parent, self.start, self.end, self.outer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(starts)
            depth = active[nid]
            names.append(nid)
            parents.append(stack[-1])
            outers.append(depth == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] = depth
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    # -- counters fed by hooks -------------------------------------------------

    def _field_hook(self, args, kwargs):
        self.field_evals[FIELD_NAMES.get(args[0].name, "other")] += 1
        if self._active[self._flow_id]:
            self.flow_field_evals += 1

    def _flow_hook(self, args, kwargs):
        t = float(_arg(args, kwargs, 2, "t"))
        cfg = _arg(args, kwargs, 3, "cfg") or self._flow_default
        if t != 0.0:
            n = max(1, int(math.ceil(abs(t) / cfg.dt)))
            self.rk4_steps += 3 * n if cfg.richardson else n

    def _grid_hook(self, args, kwargs):
        # keyed by the index of the span the wrapper is about to open
        self.grid_nodes[len(self.start)] = int(_arg(args, kwargs, 5, "nt")) * int(_arg(args, kwargs, 6, "ns"))

    def end_pass(self):
        """Mark the end of one pass: the span count and the counters so far."""
        self.passes.append(
            (len(self.start), Counter(self.field_evals), self.flow_field_evals, self.rk4_steps)
        )

    # -- installation ------------------------------------------------------------

    def _rebind(self, orig, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "phhs" or mod_name.startswith("phhs.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def install(self, verbs):
        """Wrap the CLI verbs and every function listed in ``LAYERS``."""
        import phhs.cli as cli
        from phhs.flows import FlowConfig

        self._flow_default = FlowConfig()
        self._flow_id = self._id("flows.flow")
        hooks = {
            "fields.Field.__call__": self._field_hook,
            "flows.flow": self._flow_hook,
            "flows.trajectory_grid": self._grid_hook,
        }
        for verb in verbs:
            orig = cli.VERBS[verb]
            wrapped = self.wrap(f"cli.{verb}", orig)
            cli.VERBS[verb] = wrapped
            self._undo.append((cli.VERBS, verb, orig))
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"phhs.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = self.wrap(name, orig, hooks.get(name))
                    for attr, val in list(cls.__dict__.items()):
                        if val is orig:
                            setattr(cls, attr, wrapped)
                            self._undo.append((cls, attr, orig))
                else:
                    self._rebind(getattr(mod, fn), self.wrap(name, getattr(mod, fn), hooks.get(name)))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo = []

    # -- summary -----------------------------------------------------------------

    def span_arrays(self):
        """(name ids, parent index, start, end, outermost flag): numpy views, no copies.

        While a view is alive the recorder cannot grow, so call this only
        once recording is over.
        """
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.outer, dtype=np.int8).view(bool),
        )

    def per_name(self, lo=0, hi=None):
        """``{name: (calls, total_s, self_s)}`` over the spans ``lo:hi`` (default: all).

        A pass's spans are a closed range: its root spans open and close in it.
        """
        name, parent, start, end, outer = self.span_arrays()
        selft = self_times(parent, start, end)[lo:hi]
        name, outer, dur = name[lo:hi], outer[lo:hi], (end - start)[lo:hi]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=selft, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def primitive_grid_nodes(self, lo=0, hi=None):
        """(H_I primitives, nodes) of the ``trajectory_grid`` calls in spans ``lo:hi`` that compute one.

        A grid counts when a ``primitive_scalar`` span lies inside it, so the
        oscillator grids (closed-form H_I) do not dilute the per-node ratio.
        """
        name, parent = self.span_arrays()[:2]
        hi = len(name) if hi is None else hi
        prim = self._ids.get("hamiltonian.primitive_scalar", -1)
        quads, paying = 0, set()
        for idx in np.flatnonzero(name[lo:hi] == prim) + lo:
            while idx >= 0 and idx not in self.grid_nodes:
                idx = parent[idx]
            if idx >= 0:
                quads += 1
                paying.add(int(idx))
        return quads, sum(self.grid_nodes[i] for i in paying)


def self_times(parent, start, end):
    """Per-span duration minus the summed durations of its direct children."""
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def layer_metrics(tracer, verbs):
    """Every per-layer metric as ``{name: (value, unit)}``: its median over the passes."""
    per_pass = []
    lo, evals0, flow_evals0, steps0 = 0, Counter(), 0, 0
    for hi, evals, flow_evals, steps in tracer.passes:
        per_pass.append(
            _pass_metrics(
                tracer.per_name(lo, hi), verbs, evals - evals0, flow_evals - flow_evals0,
                steps - steps0, *tracer.primitive_grid_nodes(lo, hi),
            )
        )
        lo, evals0, flow_evals0, steps0 = hi, evals, flow_evals, steps
    return {k: (float(np.median([m[k][0] for m in per_pass])), u) for k, (_, u) in per_pass[0].items()}


def _pass_metrics(stats, verbs, field_evals, flow_field_evals, rk4_steps, grid_quads, grid_nodes):
    """The per-layer metrics of one pass."""
    out = {}
    for name in span_names(verbs):
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (total, "s")
        out[f"{name}.self_s"] = (own, "s")

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    out["expressions.diff_per_eval"] = (
        ratio(calls("expressions.Expression.diff"), calls("expressions.Expression.evaluate")), "ratio")
    for key in FIELD_COUNTERS:
        out[f"fields.evals.{key}"] = (field_evals.get(key, 0), "count")
    out["hamiltonian.quad_per_node"] = (ratio(grid_quads, grid_nodes), "ratio")
    out["flows.rk4_steps"] = (rk4_steps, "count")
    out["flows.evals_per_step"] = (ratio(flow_field_evals, rk4_steps), "ratio")
    out["morse.chart_calls_per_energy"] = (
        ratio(calls("morse.rescaling_chart"), calls("morse.area_law_check")), "ratio")
    return out
