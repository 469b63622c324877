"""Layer tracing from outside the package.

While a ``Tracer`` is active, every public name the pipeline calls across a
layer boundary is replaced by a wrapper that records one span (name, start,
end, parent span, arguments, result).  Nothing under ``src/`` changes: the
wrappers are installed on the module attributes the callers look up, and
restored on exit.  ``layer_metrics`` turns the spans of one operation into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

# wrapped public name ("<module>.<function>", module under pollsys) -> the layer it measures
LAYER_OF = {
    "smdp.build_arrival_summaries": "lattice",
    "smdp.build_action_model": "smdp",
    "cli.build_nonpreemptive": "ctmdp",
    "cli.build_value_graph": "ctmdp",
    "cli.policy_iteration": "solver",
    "solver.policy_evaluate": "solver",
    "solver.policy_improve": "solver",
    "cli.value_iterate": "solver",
    "cli.sample_performance": "simulate",
    "cli.simulate_trace": "simulate",
    "cli.stage_screen": "baselines",
    "cli.test_matrices": "stats",
    "cli.summary_row": "stats",
    "cli.export_policy_csv": "cli",
    "cli.run_experiment": "cli",
}

# per-layer metric -> unit; the order is the order of the report
LAYER_METRICS = {
    "lattice.time_s": "s",
    "lattice.cells": "count",
    "lattice.mass_deficit_max": "prob",
    "smdp.build_s": "s",
    "smdp.states": "count",
    "smdp.nnz": "count",
    "ctmdp.build_s": "s",
    "ctmdp.graph_s": "s",
    "ctmdp.states": "count",
    "ctmdp.q_nodes": "count",
    "ctmdp.nnz": "count",
    "solver.pi_s": "s",
    "solver.pi_iters": "count",
    "solver.pi_eval_s": "s",
    "solver.pi_improve_s": "s",
    "solver.vi_s": "s",
    "solver.vi_sweeps": "count",
    "solver.vi_node_updates": "count",
    "solver.vi_value_gap": "cost",
    "simulate.sample_s": "s",
    "simulate.rollouts_per_s": "1/s",
    "simulate.trace_s": "s",
    "simulate.trace_events_per_s": "1/s",
    "baselines.screen_s": "s",
    "stats.time_s": "s",
    "stats.tests": "count",
    "cli.self_s": "s",
    "cli.export_s": "s",
    "cli.bundle_bytes": "B",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    args: tuple
    kwargs: dict
    result: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps the names in ``LAYER_OF`` and records spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.missing: List[str] = []  # wrapped names the package no longer has
        self._stack: List[int] = []
        self._saved = []

    def __enter__(self):
        for span_name in LAYER_OF:
            modname, name = span_name.split(".")
            module = importlib.import_module(f"pollsys.{modname}")
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(span_name)
                continue
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    def _wrap(self, span_name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(span_name, time.perf_counter(), 0.0, parent, args, kwargs, None)
            self.spans.append(span)
            self._stack.append(index)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def by_name(self) -> Dict[str, List[Span]]:
        out = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span)
        return out


def absent_layers(tracer: Tracer, required) -> List[str]:
    """Required spans that recorded no call, plus names that no longer exist."""
    spans = tracer.by_name()
    problems = [f"layer {LAYER_OF[n]} absent: {n} is no longer defined"
                for n in tracer.missing]
    problems += [f"layer {LAYER_OF[n]} absent: {n} recorded no calls"
                 for n in required if n not in tracer.missing and not spans.get(n)]
    return problems


def _arg(span: Span, pos: int, key: str):
    return span.kwargs[key] if key in span.kwargs else span.args[pos]


def layer_metrics(tracer: Tracer, vi_value_gap: Optional[float] = None,
                  bundle_bytes: Optional[int] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    A layer the operation did not run reads 0.  Quantities that need work
    after the timed call (the VI-to-exact value gap, the bundle size)
    are measured by the caller and passed in.
    """
    spans = tracer.by_name()

    def total(*names):
        return sum(s.duration for n in names for s in spans.get(n, ()))

    m = dict.fromkeys(LAYER_METRICS, 0.0)
    summaries = [s.result for s in spans.get("smdp.build_arrival_summaries", ())]
    m["lattice.time_s"] = total("smdp.build_arrival_summaries")
    if summaries:
        first = next(iter(summaries[0].values()))
        m["lattice.cells"] = len(first.P)
        m["lattice.mass_deficit_max"] = max(
            abs(1.0 - s.tail_mass - float(s.P.sum())) for d in summaries for s in d.values()
        )

    actions = [s.result for s in spans.get("smdp.build_action_model", ())]
    m["smdp.build_s"] = total("smdp.build_action_model")
    if actions:
        m["smdp.states"] = actions[0].P.shape[0]
        m["smdp.nnz"] = sum(a.P.nnz for a in actions)

    m["ctmdp.build_s"] = total("cli.build_nonpreemptive")
    m["ctmdp.graph_s"] = total("cli.build_value_graph")
    models = [s.result for s in spans.get("cli.build_nonpreemptive", ())]
    if models:
        m["ctmdp.states"] = models[-1].n_states
    graphs = [s.result for s in spans.get("cli.build_value_graph", ())]
    if graphs:
        m["ctmdp.q_nodes"] = graphs[-1].n_nodes
        m["ctmdp.nnz"] = len(graphs[-1].q_cols)

    m["solver.pi_s"] = total("cli.policy_iteration")
    m["solver.pi_iters"] = sum(s.result.iterations for s in spans.get("cli.policy_iteration", ()))
    m["solver.pi_eval_s"] = total("solver.policy_evaluate")
    m["solver.pi_improve_s"] = total("solver.policy_improve")
    vi = spans.get("cli.value_iterate", ())
    m["solver.vi_s"] = total("cli.value_iterate")
    m["solver.vi_sweeps"] = sum(s.result.iterations for s in vi)
    m["solver.vi_node_updates"] = sum(s.result.iterations * s.args[0].n_nodes for s in vi)
    if vi_value_gap is not None:
        m["solver.vi_value_gap"] = vi_value_gap

    sample = spans.get("cli.sample_performance", ())
    m["simulate.sample_s"] = total("cli.sample_performance")
    if sample:
        rollouts = sum(int(_arg(s, 5, "M")) for s in sample)
        m["simulate.rollouts_per_s"] = rollouts / m["simulate.sample_s"]
    traces = spans.get("cli.simulate_trace", ())
    m["simulate.trace_s"] = total("cli.simulate_trace")
    if traces:
        m["simulate.trace_events_per_s"] = sum(len(s.result) for s in traces) / m["simulate.trace_s"]

    m["baselines.screen_s"] = total("cli.stage_screen")

    m["stats.time_s"] = total("cli.test_matrices", "cli.summary_row")
    # one normality test per summary row with a result; three tests per ordered pair
    m["stats.tests"] = sum(1 for s in spans.get("cli.summary_row", ()) if s.result[7] != "")
    m["stats.tests"] += sum(len(s.result[0]) + len(s.result[1]) + len(s.result[2])
                            for s in spans.get("cli.test_matrices", ()))

    m["cli.export_s"] = total("cli.export_policy_csv")
    for index, span in enumerate(tracer.spans):
        if span.name == "cli.run_experiment":
            children = sum(c.duration for c in tracer.spans if c.parent == index)
            m["cli.self_s"] += span.duration - children
    if bundle_bytes is not None:
        m["cli.bundle_bytes"] = bundle_bytes
    return m
