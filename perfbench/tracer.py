"""Span tracer for the benchmark's traced run.

The tracer wraps the package's entry points from outside: each wrapped
function is replaced at every place a caller looks it up (the defining
module and every ``frontier`` module that imported the same object), and
``RngStream.generator`` and ``Graph.graph_hash`` are replaced on their
classes. Each call made inside an open iteration records one span
``[name, layer, start_ns, end_ns, parent, run_id, work]``; calls outside an
iteration (set-up, output checks) pass straight through. Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("graphs", "rng", "samplers", "estimators", "oracles", "harness", "cli")

NAME, LAYER, START, END, PARENT, RUN, WORK = range(7)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _graph_fingerprint(graph) -> str:
    # stands in for graph_hash, whose cached value the traced program would
    # otherwise see
    h = hashlib.sha1(np.ascontiguousarray(graph.indptr))
    h.update(np.ascontiguousarray(graph.indices))
    return h.hexdigest()


def _steps(args, kwargs, trace) -> int:
    return trace.n_steps


def _one(args, kwargs, out) -> int:
    return 1


def _runs(config) -> int:
    return config.runs * len(config.methods)


# layer -> {function: (work counter or None, derived rate or None)}.
# A rate (name, unit, scale) is seconds / work * scale, or work / seconds
# when scale is None.
FUNCTIONS = {
    "graphs": {
        "generate_barabasi_albert": (None, None),
        "generate_joined_ba": (None, None),
        "build_graph": (lambda a, kw, out: _graph_fingerprint(out), None),
        "load_graph": (None, None),
        "parse_edge_list": (lambda a, kw, out: len(out[0]), ("lines_per_s", "1/s", None)),
        "write_edge_list": (None, None),
        "parse_vertex_labels": (None, None),
    },
    "samplers": {
        "frontier_sampling": (_steps, ("ns_per_step", "ns", 1e9)),
        "multiple_rw": (_steps, ("ns_per_step", "ns", 1e9)),
        "single_rw": (_steps, ("ns_per_step", "ns", 1e9)),
        "write_trace_csv": (None, None),
        "read_trace_csv": (_steps, ("rows_per_s", "1/s", None)),
    },
    "estimators": {
        "estimate_degree_density": (None, None),
        "_ccdf_from_density": (None, None),
        "estimate_global_clustering": (
            lambda a, kw, out: _arg(a, kw, 0, "trace").n_steps, ("ns_per_record", "ns", 1e9)),
        "estimate_assortativity": (None, None),
        "estimate_group_densities": (None, None),
    },
    "oracles": {
        "compute_truth": (None, None),
        "triangle_counts": (None, None),
        "exact_vertex_label_density": (None, None),
        "joint_moments": (None, None),
    },
    "harness": {
        "resolve_budget": (None, None),
        "run_monte_carlo": (lambda a, kw, out: _runs(_arg(a, kw, 0, "config")), None),
        "nmse": (None, None),
        "convergence_diagnostic": (lambda a, kw, out: out.runs, ("ns_per_run", "ns", 1e9)),
    },
    "cli": {
        "main": (None, None),
    },
}

# functions whose span name carries one argument, so rates stay per method
_NAME_ARG = {"convergence_diagnostic": (1, "method")}


class Tracer:
    """Records spans for calls into the package made inside iterations."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._run_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn, work=None):
        spans, stack = self.spans, self._stack
        name = f"{layer}.{fname}"
        name_arg = _NAME_ARG.get(fname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            label = name if name_arg is None else f"{name}.{_arg(args, kwargs, *name_arg)}"
            span = [label, layer, clock(), 0, stack[-1], self._run_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function of the imported ``frontier`` package."""
        homes = {layer: importlib.import_module(f"frontier.{layer}") for layer in LAYERS}
        graphs, rng = homes["graphs"], homes["rng"]
        modules = [m for n, m in sys.modules.items()
                   if n == "frontier" or n.startswith("frontier.")]
        for layer, funcs in FUNCTIONS.items():
            home = homes[layer]
            for fname, (work, _rate) in funcs.items():
                orig = getattr(home, fname)
                wrapped = self._wrap(layer, fname, orig, work)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapped)

        self._patch(rng.RngStream, "generator",
                    self._wrap("rng", "generator", rng.RngStream.generator, _one))
        cached = graphs.Graph.__dict__["graph_hash"]
        prop = functools.cached_property(self._wrap("graphs", "graph_hash", cached.func))
        prop.__set_name__(graphs.Graph, "graph_hash")
        self._patch(graphs.Graph, "graph_hash", prop)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- iterations -----------------------------------------------------------

    @contextmanager
    def iteration(self, run_id: int, name: str):
        """Open the root span of one timed iteration; wrapped calls record
        spans only while it is open."""
        self._run_id = run_id
        span = [name, "bench", 0, 0, -1, run_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent",
                                  "run_id", "work"],
                       "spans": self.spans}, fh)

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer metrics averaged per iteration, plus the nesting check.

        Returns ``{"metrics": {name: (value, unit)}, "nesting_errors": int,
        "spans": int}``.
        """
        spans = self.spans
        n = len(spans)
        start = np.fromiter((s[START] for s in spans), np.int64, n)
        end = np.fromiter((s[END] for s in spans), np.int64, n)
        parent = np.fromiter((s[PARENT] for s in spans), np.int64, n)
        dur = end - start
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=n).astype(np.int64)
        self_ns = dur - child_cover

        # a child must lie inside its parent and siblings must not overlap;
        # otherwise self times are wrong and cannot sum to the wall time
        p = parent[has_parent]
        bad = int(np.count_nonzero((start[has_parent] < start[p]) | (end[has_parent] > end[p])))
        order = np.lexsort((start, parent))
        same = parent[order][1:] == parent[order][:-1]
        bad += int(np.count_nonzero(same & (start[order][1:] < end[order][:-1])))
        bad += int(np.count_nonzero(self_ns < 0))

        roots = np.flatnonzero(~has_parent)
        iterations = max(1, roots.size)

        layer_self: dict[str, int] = defaultdict(int)
        fn_calls: Counter = Counter()
        fn_ns: Counter = Counter()
        fn_work: Counter = Counter()
        fingerprints: set[str] = set()
        for i, s in enumerate(spans):
            layer_self[s[LAYER]] += int(self_ns[i])
            if s[PARENT] < 0:
                continue
            fn_calls[s[NAME]] += 1
            fn_ns[s[NAME]] += int(dur[i])
            if s[NAME] == "graphs.build_graph":
                fingerprints.add(s[WORK])
            elif s[WORK]:
                fn_work[s[NAME]] += s[WORK]

        metrics: dict[str, tuple[float, str]] = {}
        per_it = 1.0 / iterations
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (layer_self[layer] / 1e9 * per_it, "s")
            metrics[f"{layer}.errors"] = (self.errors[layer], "count")
        metrics["bench.self_s"] = (layer_self["bench"] / 1e9 * per_it, "s")

        rates = {f"{layer}.{f}": rate for layer, funcs in FUNCTIONS.items()
                 for f, (_w, rate) in funcs.items()}
        rates["rng.generator"] = ("us_per_call", "us", 1e6)
        for name in sorted(fn_calls):
            secs = fn_ns[name] / 1e9
            metrics[f"{name}.calls"] = (fn_calls[name] * per_it, "count")
            metrics[f"{name}.s"] = (secs * per_it, "s")
            base = name if name in rates else name.rsplit(".", 1)[0]
            rate = rates.get(base)
            if rate is None:
                continue
            rate_name, unit, scale = rate
            work = fn_work[name]
            if work and secs > 0:
                value = work / secs if scale is None else secs / work * scale
                metrics[f"{name}.{rate_name}"] = (value, unit)

        if fn_calls["graphs.build_graph"]:
            metrics["graphs.builds_per_graph"] = (
                fn_calls["graphs.build_graph"] / len(fingerprints), "ratio")
        steps = sum(fn_work[f"samplers.{f}"]
                    for f in ("frontier_sampling", "multiple_rw", "single_rw"))
        if steps:
            metrics["samplers.steps"] = (steps * per_it, "count")
        runs = fn_work["harness.run_monte_carlo"] + sum(
            v for k, v in fn_work.items() if k.startswith("harness.convergence_diagnostic."))
        if runs:
            metrics["harness.runs"] = (runs * per_it, "count")

        return {"metrics": metrics, "nesting_errors": bad, "spans": n}
