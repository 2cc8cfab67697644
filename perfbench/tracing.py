"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` rebinds the names that ``tightlp.sat`` and ``tightlp.cli``
look up at call time (plus two ``Digraph`` methods and the benchmark's own
library entry points) to wrappers that record a span per call.  Nothing
under ``src/`` is edited; ``uninstall`` puts the originals back, so traced
and untraced passes can alternate in one process.

A span is ``[name, start, end, parent index, request number]``.  A layer's
self time is its span minus the time its child spans cover; helper spans
(graph building, cycle search, depth computation) count toward the layer
that called them, or toward their own metric when a request called them
directly.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

# span name -> per-layer metric that receives its self time
LAYER_METRIC = {
    "request": "cli.self_s",
    "syntax.parse": "syntax.parse_s",
    "syntax.elim": "syntax.elim_s",
    "completion.build": "completion.build_s",
    "completion.render": "completion.render_s",
    "sat.clausify": "sat.clausify_s",
    "sat.search": "sat.search_s",
    "sat.pipeline": "sat.pipeline_self_s",
    "tightness.abs_tight": "tightness.abs_tight_s",
    "tightness.tight_on": "tightness.tight_on_s",
    "semantics.answer_set": "semantics.answer_set_check_s",
    "tightness.witness": "tightness.witness_s",
    "transitive_closure.preservation": "transitive_closure.preservation_s",
}
# helpers called straight from a request get these metrics
HELPER_METRIC = {
    "tightness.graph": "tightness.verdict_s",
    "tightness.cycle": "tightness.verdict_s",
    "tightness.depths": "tightness.witness_s",
}

# Counters that must repeat exactly from run to run; only these may back a
# count-based claim.
EXACT_COUNTERS = ("sat.decisions", "sat.propagations", "sat.conflicts", "sat.models", "admit.dropped")


def _count_cnf(c, cnf):
    c["sat.cnf_vars"] += cnf.num_vars
    c["sat.cnf_clauses"] += len(cnf.clauses)


def _count_search(c, report):
    c["sat.decisions"] += report.stats.decisions
    c["sat.propagations"] += report.stats.propagations
    c["sat.conflicts"] += report.stats.conflicts
    c["sat.models"] += len(report.models)


def _count_admission(c, result):
    c["admit.completion_models"] += len(result.completion_models)
    c["admit.answer_sets"] += len(result.answer_sets)
    c["admit.dropped"] += len(result.dropped)


def _count_tight_on(c, tight):
    c["tightness.tight_on_calls"] += 1
    c["tightness.tight_on_hits"] += bool(tight)


def _count_answer_set(c, _):
    c["semantics.answer_set_calls"] += 1


def _count_preservation(c, _):
    c["transitive_closure.calls"] += 1


class Tracer:
    def __init__(self, tl, api):
        sat, cli, digraph = tl.sat, tl.cli, tl.tightness.Digraph
        self.targets = [
            (cli, "parse_program", "syntax.parse", None),
            (api, "parse_program", "syntax.parse", None),
            (cli, "eliminate_classical_negation", "syntax.elim", None),
            (sat, "eliminate_classical_negation", "syntax.elim", None),
            (cli, "completion", "completion.build", None),
            (sat, "completion", "completion.build", None),
            (cli, "render_completion", "completion.render", None),
            (cli, "clausify", "sat.clausify", _count_cnf),
            (sat, "clausify", "sat.clausify", _count_cnf),
            (sat, "solve_all", "sat.search", _count_search),
            (cli, "answer_sets_via_completion", "sat.pipeline", _count_admission),
            (sat, "is_absolutely_tight", "tightness.abs_tight", None),
            (sat, "is_tight_on", "tightness.tight_on", _count_tight_on),
            (sat, "is_answer_set", "semantics.answer_set", _count_answer_set),
            (cli, "lambda_witness", "tightness.witness", None),
            (cli, "parent_graph", "tightness.graph", None),
            (cli, "positive_dependency_graph", "tightness.graph", None),
            (digraph, "find_cycle", "tightness.cycle", None),
            (digraph, "longest_path_depths", "tightness.depths", None),
            (api, "check_tightness_preservation", "transitive_closure.preservation", _count_preservation),
        ]
        self.originals = [getattr(obj, attr) for obj, attr, _, _ in self.targets]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.request = -1

    def install(self) -> None:
        for (obj, attr, name, count), fn in zip(self.targets, self.originals):
            setattr(obj, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        for (obj, attr, _, _), fn in zip(self.targets, self.originals):
            setattr(obj, attr, fn)

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return traced

    def open_request(self, number: int) -> list:
        self.request = number
        record = ["request", 0.0, 0.0, -1, number]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def close_request(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counters recorded since the last call."""
        spans, counters = self.spans[:], Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_times(spans: list[list]) -> Counter:
    """Self time per layer metric over one pass's spans."""
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    out: Counter = Counter()
    for i, s in enumerate(spans):
        owner = s
        while owner[0] in HELPER_METRIC and owner[3] >= 0:
            owner = spans[owner[3]]
        if owner[0] in LAYER_METRIC and (owner is s or owner[0] != "request"):
            out[LAYER_METRIC[owner[0]]] += self_time[i]
        else:
            out[HELPER_METRIC[s[0]]] += self_time[i]
    return out


def per_layer_metrics(passes: list[tuple[list, Counter]], overhead_frac: float) -> dict:
    """Median layer times over traced passes, and the counters of the first
    (the caller checks that they repeat)."""
    times = [layer_times(spans) for spans, _ in passes]
    counters = passes[0][1]
    names = sorted(set(LAYER_METRIC.values()) | set(HELPER_METRIC.values()))
    out = {name: (statistics.median(t[name] for t in times), "s") for name in names}
    for name in (
        "sat.cnf_vars",
        "sat.cnf_clauses",
        *EXACT_COUNTERS,
        "tightness.tight_on_calls",
        "tightness.tight_on_hits",
        "semantics.answer_set_calls",
        "transitive_closure.calls",
    ):
        out[name] = (counters[name], "count")
    search_s = out["sat.search_s"][0]
    out["sat.propagations_per_s"] = (counters["sat.propagations"] / search_s if search_s else 0.0, "1/s")
    models = counters["admit.completion_models"]
    out["admit.useful_ratio"] = (counters["admit.answer_sets"] / models if models else 1.0, "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
