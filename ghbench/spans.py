"""Outside-in tracing of the ghct package: one span per call of a public function.

The package's modules import each other's functions by name
(`from .maxflow import min_cut`), so patching only the defining module
would miss most callers.  `Tracer` therefore rebinds every attribute, in
every loaded `ghct` module, that refers to a traced function, and puts
the originals back on exit.  Spans are kept in flat in-memory arrays
while the program runs and are summarised or written out afterwards.

A span's self time is its duration minus the durations of its direct
child spans.  Recursive calls (`ordered_cuts` calls itself through its
module's global name, which is rebound too) nest like any other child,
so no interval is counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

# Metric name -> functions it covers, as (module, attribute) of the definition.
TARGETS = {
    "maxflow.min_cut": [("maxflow", "min_cut")],
    "maxflow.min_cut_minimal_sink": [("maxflow", "min_cut_minimal_sink")],
    "maxflow.latest_min_cut": [("maxflow", "latest_min_cut")],
    "graph.contract": [("graph", "contract")],
    "graph.contract_set_to_node": [("graph", "contract_set_to_node")],
    "graph.cut_cost": [("graph", "cut_cost")],
    "graph.parse_dimacs": [("graph", "parse_dimacs")],
    "octree.ordered_cuts": [("octree", "ordered_cuts")],
    "octree.flatten_to_star": [("octree", "flatten_to_star")],
    "octree.covering_cut_costs": [("octree", "covering_cut_costs")],
    "octree.certified_source_cuts": [("octree", "certified_source_cuts")],
    "isolating.isolating_cuts": [("isolating", "isolating_cuts")],
    "ghtree.auxiliary_graph": [("ghtree", "auxiliary_graph")],
    "ghtree.GHTree.query": [("ghtree", "GHTree.query")],
    "ghtree.driver": [("ghtree", "gomory_hu_classic"),
                      ("ghtree", "gomory_hu_generalized")],
    "pipeline.perturb": [("pipeline", "perturb")],
    "pipeline.fixed_source_blocks": [("pipeline", "fixed_source_blocks")],
    "pipeline.fixed_source_laminar": [("pipeline", "fixed_source_laminar")],
    "pipeline.certified_ordered_cuts": [("pipeline", "certified_ordered_cuts")],
    "pipeline.select_source": [("pipeline", "select_source_oc1"),
                               ("pipeline", "select_source_weak")],
    "oracle.verify_gh_tree": [("oracle", "verify_gh_tree")],
    "oracle.is_laminar": [("oracle", "is_laminar")],
}

ENGINE = ("maxflow.min_cut", "maxflow.min_cut_minimal_sink", "maxflow.latest_min_cut")


def package_modules(pkg) -> list:
    """The package module and every loaded submodule of it."""
    prefix = pkg.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or name.startswith(prefix))]


class Tracer:
    """Context manager that traces the functions in TARGETS while active."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.functions = []  # function id -> (metric name, attribute)
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nodes = array("i")  # engine spans: node count of the graph argument
        self._stack = [-1]
        self._bindings = None  # (owner, attribute, original, wrapper), made once
        self._installed = False

    def _wrap(self, fid: int, fn, engine: bool):
        fids, parents, starts, ends, nodes = (self.fid, self.parent, self.start,
                                              self.end, self.nodes)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            nodes.append(args[0].num_nodes if engine else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.ghbench_span = True
        return wrapper

    def _collect(self) -> list:
        """(owner, attribute, original, wrapper) for every name to rebind."""
        wrappers = {}
        bindings = []
        for metric, defs in TARGETS.items():
            for modname, attr in defs:
                owner = getattr(self.pkg, modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
                fid = len(self.functions)
                self.functions.append((metric, attr))
                wrapper = self._wrap(fid, fn, metric in ENGINE)
                if path:  # a method: rebind it on its class
                    bindings.append((owner, leaf, fn, wrapper))
                else:
                    wrappers[fn] = wrapper
        for module in package_modules(self.pkg):
            for name, value in vars(module).items():
                if isinstance(value, types.FunctionType) and value in wrappers:
                    bindings.append((module, name, value, wrappers[value]))
        return bindings

    def install(self) -> None:
        """Rebind every traced name; the wrappers are made at the first
        install, so one tracer can be installed and restored repeatedly."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        if self._bindings is None:
            self._bindings = self._collect()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        self._installed = True

    def restore(self) -> None:
        if self._installed:
            for owner, name, original, _ in self._bindings:
                setattr(owner, name, original)
            self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def function_id(self, attr: str) -> int:
        return next(i for i, (_, a) in enumerate(self.functions) if a == attr)

    def summary(self) -> dict:
        """Per metric name: calls and self seconds; plus engine size buckets
        and refinement steps of the generalized driver."""
        n = len(self.fid)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.functions)
        self_s = [0.0] * len(self.functions)
        for i in range(n):
            f = fids[i]
            calls[f] += 1
            self_s[f] += ends[i] - starts[i] - child[i]
        out = {metric: {"calls": 0, "self_s": 0.0} for metric in TARGETS}
        for f, (metric, _) in enumerate(self.functions):
            out[metric]["calls"] += calls[f]
            out[metric]["self_s"] += self_s[f]

        engine = {f for f, (metric, _) in enumerate(self.functions) if metric in ENGINE}
        buckets = {"le3": 0, "4_16": 0, "gt16": 0}
        aux = self.function_id("auxiliary_graph")
        generalized = self.function_id("gomory_hu_generalized")
        steps = 0
        for i in range(n):
            f = fids[i]
            if f in engine:
                size = self.nodes[i]
                buckets["le3" if size <= 3 else "4_16" if size <= 16 else "gt16"] += 1
            elif f == aux and parents[i] >= 0 and fids[parents[i]] == generalized:
                steps += 1
        return {"functions": out, "engine_calls_by_nodes": buckets,
                "generalized_steps": steps}

    def write(self, path, t0: float = 0.0) -> None:
        """One CSV row per span: id, parent id, function, start and end
        seconds relative to t0, engine graph size."""
        names = [f"{metric}:{attr}" for metric, attr in self.functions]
        with open(path, "w") as fh:
            fh.write("span,parent,function,start_s,end_s,engine_nodes\n")
            for i in range(len(self.fid)):
                fh.write(f"{i},{self.parent[i]},{names[self.fid[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.nodes[i]}\n")
