"""Span tracing at the layer boundaries of ``hypersched``, from outside.

``install`` replaces the public functions that one module looks up in
another (``from .lp import solve_lp`` in ``feasibility``, and so on) with
wrappers that record a span per call: name, start, end, parent span and the
id of the CLI call that caused it.  A few functions that a module calls on
itself are wrapped in that module's namespace so that their layer time is
separable (the weight-matrix validation in ``greedy``, the per-link degree
searches in ``metrics``).  Spans stay in memory; ``layer_metrics`` turns
them into per-layer self times and counts.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter


def _lp_shape(counts, args, result):
    lp = args[0]
    counts["lp.rows"] += len(lp.constraints)
    counts["lp.cols"] += lp.num_vars
    counts["lp.nonzeros"] += sum(1 for coeffs, _, _ in lp.constraints for c in coeffs if c != 0)


def _text_bytes(counts, args, result):
    counts["formats.bytes_in"] += len(args[0].encode("utf-8"))


def _counter(name):
    def hook(counts, args, result):
        counts[name] += len(result)

    return hook


def _pieces(counts, args, result):
    counts["intervals.pieces_out"] += len(result.intervals)


def _witness(counts, args, result):
    counts["feasibility.witness_sets"] += len(result.witness.entries)


# (module that looks the name up, attribute, span name, count hook on success)
BOUNDARIES = (
    ("cli", "parse_hypergraph_text", "formats.parse_hypergraph_text", _text_bytes),
    ("cli", "parse_demand_text", "formats.parse_demand_text", _text_bytes),
    ("cli", "parse_weight_text", "formats.parse_weight_text", _text_bytes),
    ("cli", "validate_hypergraph", "hypergraph.validate_hypergraph", None),
    ("cli", "enumerate_independent_sets", "hypergraph.enumerate_independent_sets", _counter("hypergraph.independent_sets")),
    ("cli", "enumerate_maximal_independent_sets", "hypergraph.enumerate_maximal_independent_sets", _counter("hypergraph.maximal_sets")),
    ("cli", "automorphisms", "hypergraph.automorphisms", _counter("hypergraph.automorphisms_found")),
    ("cli", "fractional_chromatic_number", "feasibility.fractional_chromatic_number", _witness),
    ("cli", "check_edge_min_condition", "greedy.check_edge_min_condition", None),
    ("cli", "check_delta_condition", "greedy.check_delta_condition", None),
    ("cli", "check_weighted_condition", "greedy.check_weighted_condition", None),
    ("cli", "delta_matrix", "greedy.delta_matrix", None),
    ("cli", "greedy_schedule", "greedy.greedy_schedule", _counter("greedy.links_placed")),
    ("cli", "interference_metrics", "metrics.interference_metrics", None),
    ("cli", "beta_by_enumeration", "metrics.beta_by_enumeration", None),
    ("cli", "symmetrize_demand", "metrics.symmetrize_demand", None),
    ("cli", "is_beta_star", "metrics.is_beta_star", None),
    ("cli", "beta_star_formula", "metrics.beta_star_formula", None),
    ("feasibility", "enumerate_independent_sets", "hypergraph.enumerate_independent_sets", _counter("hypergraph.independent_sets")),
    ("feasibility", "enumerate_maximal_independent_sets", "hypergraph.enumerate_maximal_independent_sets", _counter("hypergraph.maximal_sets")),
    ("feasibility", "solve_lp", "lp.solve_lp", _lp_shape),
    ("greedy", "neighbors", "hypergraph.neighbors", None),
    ("greedy", "earliest_fit", "intervals.earliest_fit", _pieces),
    ("greedy", "intersect_all", "intervals.intersect_all", _pieces),
    ("greedy", "union_all", "intervals.union_all", _pieces),
    ("greedy", "delta_matrix", "greedy.delta_matrix", None),
    ("greedy", "validate_weight_matrix", "greedy.validate_weight_matrix", None),
    ("metrics", "delta_matrix", "greedy.delta_matrix", None),
    ("metrics", "neighbors", "hypergraph.neighbors", None),
    ("metrics", "automorphisms", "hypergraph.automorphisms", _counter("hypergraph.automorphisms_found")),
    ("metrics", "enumerate_independent_sets", "hypergraph.enumerate_independent_sets", _counter("hypergraph.independent_sets")),
    ("metrics", "delta_i_prime", "metrics.delta_i_prime", None),
    ("metrics", "delta_i_doubleprime", "metrics.delta_i_doubleprime", None),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent index, call id]`` plus
    exact counts gathered at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.call_id = 0

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[2] = perf_counter()
                stack.pop()
                counts["raised." + name] += 1
                raise
            rec[2] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced


def install(tracer):
    """Wrap every boundary in BOUNDARIES; returns a function that undoes it."""
    undo = []
    for module, attr, name, hook in BOUNDARIES:
        mod = importlib.import_module("hypersched." + module)
        original = getattr(mod, attr)
        setattr(mod, attr, tracer.wrap(name, original, hook))
        undo.append((mod, attr, original))

    def uninstall():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return uninstall


def self_times(spans):
    """Per span name: (summed self time, number of spans).  Self time is a
    span's duration minus the durations of its direct children; calls are
    sequential, so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    count = Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start - child[idx]
        count[name] += 1
    return total, count


# Per-layer metric -> the span names whose self time it sums ("_s") or whose
# spans it counts ("_calls").
TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "formats.parse_s": ("formats.parse_hypergraph_text", "formats.parse_demand_text", "formats.parse_weight_text"),
    "hypergraph.validate_s": ("hypergraph.validate_hypergraph",),
    "hypergraph.enum_maximal_s": ("hypergraph.enumerate_maximal_independent_sets",),
    "hypergraph.enum_all_s": ("hypergraph.enumerate_independent_sets",),
    "hypergraph.neighbors_s": ("hypergraph.neighbors",),
    "hypergraph.automorphisms_s": ("hypergraph.automorphisms",),
    "feasibility.chi_f_self_s": ("feasibility.fractional_chromatic_number",),
    "lp.solve_s": ("lp.solve_lp",),
    "greedy.delta_matrix_s": ("greedy.delta_matrix",),
    "greedy.validate_weights_s": ("greedy.validate_weight_matrix",),
    "greedy.condition_self_s": (
        "greedy.check_edge_min_condition",
        "greedy.check_delta_condition",
        "greedy.check_weighted_condition",
    ),
    "greedy.schedule_self_s": ("greedy.greedy_schedule",),
    "intervals.earliest_fit_s": ("intervals.earliest_fit",),
    "intervals.set_ops_s": ("intervals.intersect_all", "intervals.union_all"),
    "metrics.delta_prime_s": ("metrics.delta_i_prime",),
    "metrics.delta_doubleprime_s": ("metrics.delta_i_doubleprime",),
    "metrics.beta_self_s": ("metrics.beta_by_enumeration",),
    "metrics.symmetrize_self_s": ("metrics.symmetrize_demand",),
    "metrics.star_s": ("metrics.is_beta_star", "metrics.beta_star_formula"),
}

CALL_METRICS = {
    "formats.parse_calls": TIME_METRICS["formats.parse_s"],
    "hypergraph.neighbors_calls": ("hypergraph.neighbors",),
    "lp.solve_calls": ("lp.solve_lp",),
    "greedy.delta_matrix_calls": ("greedy.delta_matrix",),
    "intervals.earliest_fit_calls": ("intervals.earliest_fit",),
    "intervals.set_ops_calls": TIME_METRICS["intervals.set_ops_s"],
    "metrics.delta_calls": ("metrics.delta_i_prime", "metrics.delta_i_doubleprime"),
}

HOOK_COUNTS = (
    "formats.bytes_in",
    "hypergraph.maximal_sets",
    "hypergraph.independent_sets",
    "hypergraph.automorphisms_found",
    "feasibility.witness_sets",
    "lp.rows",
    "lp.cols",
    "lp.nonzeros",
    "greedy.links_placed",
    "intervals.pieces_out",
)

COUNT_METRICS = tuple(CALL_METRICS) + HOOK_COUNTS + ("greedy.stuck", "feasibility.column_use")


def layer_counts(tracer):
    """Exact per-layer counts of the spans recorded so far."""
    _, count = self_times(tracer.spans)
    out = {m: sum(count[n] for n in names) for m, names in CALL_METRICS.items()}
    out.update({m: tracer.counts[m] for m in HOOK_COUNTS})
    out["greedy.stuck"] = tracer.counts["raised.greedy.greedy_schedule"]
    cols = tracer.counts["lp.cols"]
    out["feasibility.column_use"] = tracer.counts["feasibility.witness_sets"] / cols if cols else 0.0
    return out


def layer_times(tracer):
    total, _ = self_times(tracer.spans)
    return {m: sum(total[n] for n in names) for m, names in TIME_METRICS.items()}
