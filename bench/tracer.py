"""Span tracing at the layer boundaries of matsketch, from outside the library.

Public functions and methods are replaced, for the duration of a traced
round, by wrappers that record a span (name, start, end, parent). A name
is replaced in every matsketch module that bound it, so calls made inside
the library (run_trial -> solve_p1, solve_constrained -> solve_p2, ...)
are seen too. The support snap and the power iteration have no public
entry and are wrapped by their private names. A name that no longer exists
is reported as absent and does not fail the run.

Spans live in flat arrays until the run ends; self time, per-layer sums
and the counts read from returned values are derived from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (owner, attribute, layer); owner "module" or "module:Class"
TARGETS = [
    ("matsketch.ensemble", "gen_screened_graph", "ensemble"),
    ("matsketch.ensemble", "gen_left_regular", "ensemble"),
    ("matsketch.ensemble", "gen_distributed_support", "ensemble"),
    ("matsketch.ensemble", "gen_distributed_matrix", "ensemble"),
    ("matsketch.ensemble:BipartiteGraph", "adjacency", "ensemble"),
    ("matsketch.operator:SketchOperator", "from_graphs", "operator"),
    ("matsketch.operator:SketchOperator", "forward", "operator"),
    ("matsketch.operator:SketchOperator", "adjoint", "operator"),
    ("matsketch.solver:AffineProjector", "__init__", "solver"),
    ("matsketch.solver:AffineProjector", "project", "solver"),
    ("matsketch.solver", "soft_threshold", "solver"),
    ("matsketch.solver", "solve_p1", "solver"),
    ("matsketch.solver", "_refine_on_support", "solver"),
    ("matsketch.solver", "solve_p2", "solver"),
    ("matsketch.solver", "_operator_sq_norm", "solver"),
    ("matsketch.solver", "solve_constrained", "solver"),
    ("matsketch.pipelines", "gen_distributed_covariance", "pipelines"),
    ("matsketch.pipelines:SampleStream", "__post_init__", "pipelines"),
    ("matsketch.pipelines", "cov_sketch", "pipelines"),
    ("matsketch.pipelines", "recover_covariance", "pipelines"),
    ("matsketch.harness", "phase_diagram", "harness"),
    ("matsketch.harness", "run_trial", "harness"),
]

LAYERS = ["ensemble", "operator", "solver", "pipelines", "harness"]
OP = "bench.op"  # the benchmark's own span around one operation


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.layer = {OP: "bench"}
        self.absent = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._patches = []  # (holder, attribute, original, wrapper)
        self._built = False
        # values read from returned objects
        self.admm_iters = 0
        self.admm_max_iter_hits = 0
        self.snaps_used = 0
        self.fista_iters = 0
        self.samples = 0
        self.trial_cell = {}  # run_trial span index -> (p, m)

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def span(self, fn, *args):
        """Run fn(*args) inside a bench.op span; returns its result."""
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_after_" + name.rsplit(".", 1)[-1].strip("_"), None)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf())
            if hook is not None:
                hook(idx, args, kwargs, out)
            return out

        return wrapper

    # -- counts from returned values ----------------------------------------

    def _after_solve_p1(self, idx, args, kwargs, res):
        opts = _arg(args, kwargs, 2, "opts")
        max_iter = opts.max_iter if opts is not None else self._default_max_iter
        self.admm_iters += res.iterations
        self.admm_max_iter_hits += res.iterations >= max_iter
        self.snaps_used += bool(res.diagnostics.get("support_snap"))

    def _after_solve_p2(self, idx, args, kwargs, res):
        self.fista_iters += res.iterations

    def _after_cov_sketch(self, idx, args, kwargs, out):
        self.samples += _arg(args, kwargs, 0, "stream").n

    def _after_run_trial(self, idx, args, kwargs, rec):
        self.trial_cell[idx] = (rec.config.p, rec.config.m)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Replace every target in every loaded matsketch module."""
        if not self._built:
            self._build()
            self._built = True
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)

    def _build(self) -> None:
        self._default_max_iter = sys.modules["matsketch.solver"].SolverOptions().max_iter
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "matsketch" or n.startswith("matsketch.")) and m is not None]
        for owner, attr, layer in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            holder = sys.modules.get(mod_name)
            if holder is not None and cls_name:
                holder = getattr(holder, cls_name, None)
            raw = None if holder is None else vars(holder).get(attr)
            name = f"{cls_name or mod_name.rsplit('.', 1)[-1]}.{attr}"
            if raw is None:
                self.absent.append(name)
                continue
            self.layer[name] = layer
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
                self._patches.append((holder, attr, raw, wrapped))
                continue
            wrapper = self._wrap(raw, name)
            if cls_name:
                self._patches.append((holder, attr, raw, wrapper))
                continue
            for mod in modules:
                if vars(mod).get(attr) is raw:
                    self._patches.append((mod, attr, raw, wrapper))

    # -- summary ----------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def cell_times(self, since: int) -> dict:
        """Seconds in run_trial per (p, m) cell, over spans from index since on."""
        out = {}
        for idx, cell in self.trial_cell.items():
            if idx >= since:
                out[cell] = out.get(cell, 0.0) + self.span_end[idx] - self.span_start[idx]
        return out

    def summary(self) -> dict:
        """Inclusive time, self time and call count per wrapped name, plus the
        structural counts (first solve of each constrained solve, draws per
        screened graph, solves inside constrained solves)."""
        s = self.spans()
        nm, par = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = par >= 0
        child = np.zeros(len(dur))
        np.add.at(child, par[has_parent], dur[has_parent])
        own = dur - child
        nid = {n: i for i, n in enumerate(self.names)}

        def of(name):
            return nm == nid[name] if name in nid else np.zeros(len(nm), dtype=bool)

        incl = {n: float(dur[of(n)].sum()) for n in self.names}
        selft = {n: float(own[of(n)].sum()) for n in self.names}
        calls = {n: int(of(n).sum()) for n in self.names}

        def children_of(parent_name, child_name):
            """Indices of child_name spans whose parent is a parent_name span."""
            mask = of(child_name) & has_parent
            idx = np.nonzero(mask)[0]
            return idx[of(parent_name)[par[idx]]]

        draws = children_of("ensemble.gen_screened_graph", "ensemble.gen_left_regular")
        p2_in_c = children_of("solver.solve_constrained", "solver.solve_p2")
        first_p2 = {}
        for i in p2_in_c:  # spans are in call order, so the first seen is the first solve
            first_p2.setdefault(int(par[i]), i)
        first_p2_s = float(sum(dur[i] for i in first_p2.values()))
        layer_self = {layer: 0.0 for layer in LAYERS + ["bench"]}
        for n in self.names:
            layer_self[self.layer.get(n, "bench")] += selft[n]
        return {
            "incl": incl,
            "self": selft,
            "calls": calls,
            "layer_self": layer_self,
            "op_wall": float(dur[of(OP)].sum()),
            "screen_draws": len(draws),
            "p2_in_constrained": len(p2_in_c),
            "first_p2_s": first_p2_s,
        }
