"""Span recorder and layer wrappers for the traced benchmark run.

A traced pass replaces selected public bfasp functions with wrappers that
record a span (name, start, end, parent, instance) around each call and
count the work the call did.  Each wrapper is installed on the attribute
its caller looks up at call time: the pipeline calls ``bfasp.<name>``, the
solver calls names bound in ``bfasp.solver``, and reducts are built through
``ReductBuilder`` methods.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
Every instant inside a root span belongs to exactly one innermost span, so
the self times of all spans add up to the duration of the root spans.
"""

import time
from contextlib import contextmanager

import bfasp
import bfasp.analysis
import bfasp.solver

LAYERS = ("parser", "grounder", "program", "ground_format", "analysis",
          "fixpoint", "solver")


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or None, instance, child time]
        self.spans = []
        self.counts = {}
        self.instance = None
        self._open = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, self.instance,
                           0.0])
        self._open.append(index)
        return index

    def close(self, index: int):
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of "
                               f"order")
        span = self.spans[index]
        span[2] = self.clock()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def add(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def on_update(self, head, old, new, index):
        """bfasp's fixpoint hook: called once per bound raise."""
        self.add("fixpoint.raises")

    def parent_name(self, index: int):
        parent = self.spans[index][3]
        return None if parent is None else self.spans[parent][0]

    def self_times(self) -> dict:
        """Total self time per span name."""
        totals = {}
        for name, start, end, _, _, child in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent is None)


# -- what each wrapper counts --------------------------------------------------

def _parse_data(rec, index, args, result):
    rec.add("parser.data_bytes", len(args[0].encode()))


def _ground(rec, index, args, result):
    rec.add("grounder.clauses", len(result.constraints) + len(result.rules))
    rec.add("grounder.vars", len(result.variables))


def _failing_constraint(rec, index, args, result):
    rec.add("program.failing_constraint_calls")


def _format_program(rec, index, args, result):
    rec.add("ground_format.bfg_bytes", len(result.encode()))


def _guess_set(rec, index, args, result):
    rec.add("analysis.guess_vars", len(result))


def _reduct_build(rec, index, args, result):
    builder = args[0]
    rec.add("analysis.reduct_calls")
    rec.add("analysis.reduct_kept_rules", len(result.rules))
    rec.add("analysis.reduct_program_rules", len(builder.program.rules))
    if rec.parent_name(index) == "solver.search":
        rec.add("solver.leaves")


def _minimal_model(rec, index, args, result):
    rec.add("fixpoint.calls")
    if not result.ok:
        rec.add("fixpoint.unsat_calls")


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call."""
    reducts = bfasp.analysis.ReductBuilder
    return (
        (bfasp, "parse_model", "parser.parse_model", None),
        (bfasp, "parse_data", "parser.parse_data", _parse_data),
        (bfasp, "ground", "grounder.ground", _ground),
        (bfasp, "validate_program", "program.validate", None),
        (bfasp.solver, "validate_valuation", "program.validate_valuation",
         None),
        (bfasp.solver, "failing_constraint", "program.failing_constraint",
         _failing_constraint),
        (bfasp, "format_program", "ground_format.format", _format_program),
        (bfasp, "parse_ground_program", "ground_format.parse", None),
        (bfasp, "parse_assignment", "ground_format.parse_assignment", None),
        (bfasp.solver, "guess_set", "analysis.guess_set", _guess_set),
        (reducts, "__init__", "analysis.reduct_init", None),
        (reducts, "build", "analysis.reduct_build", _reduct_build),
        (bfasp.solver, "validate_positive_cp", "analysis.validate_positive_cp",
         None),
        (bfasp.solver, "minimal_model", "fixpoint.minimal_model",
         _minimal_model),
        (bfasp.solver.Search, "__init__", "solver.init", None),
        (bfasp.solver.Search, "models", "solver.search", None),
        (bfasp, "check_stable", "solver.check", None),
    )


def _wrap(rec, fn, name, counter):
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            counter(rec, index, args, result)
        return result
    return traced


def _wrap_search(rec, fn, name):
    # The span stays open while the consumer holds a yielded model, so the
    # consumer must not call traced functions between models.
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            for model in fn(*args, **kwargs):
                rec.add("solver.models")
                yield model
        finally:
            rec.close(index)
    return traced


@contextmanager
def installed(rec: Recorder):
    """Route the wrapped bfasp calls through ``rec`` inside the block."""
    saved = []
    try:
        for owner, attr, name, counter in _targets():
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            wrapper = (_wrap_search(rec, fn, name) if name == "solver.search"
                       else _wrap(rec, fn, name, counter))
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- per-layer metrics ------------------------------------------------------------

# Self time of each span, reported as its own metric; `_s` is seconds.
SPAN_METRICS = {
    "parser.parse_model": "parser.parse_model_s",
    "parser.parse_data": "parser.parse_data_s",
    "grounder.ground": "grounder.ground_s",
    "program.validate": "program.validate_s",
    "program.validate_valuation": "program.validate_valuation_s",
    "program.failing_constraint": "program.failing_constraint_s",
    "ground_format.format": "ground_format.format_s",
    "ground_format.parse": "ground_format.parse_s",
    "ground_format.parse_assignment": "ground_format.parse_assignment_s",
    "analysis.guess_set": "analysis.guess_set_s",
    "analysis.reduct_init": "analysis.reduct_init_s",
    "analysis.reduct_build": "analysis.reduct_build_s",
    "analysis.validate_positive_cp": "analysis.validate_positive_cp_s",
    "fixpoint.minimal_model": "fixpoint.minimal_model_s",
    "solver.init": "solver.init_s",
    "solver.search": "solver.search_self_s",
    "solver.check": "solver.check_self_s",
}

COUNTS = ("grounder.clauses", "grounder.vars",
          "program.failing_constraint_calls", "ground_format.bfg_bytes",
          "analysis.guess_vars", "analysis.reduct_calls", "fixpoint.calls",
          "fixpoint.raises", "fixpoint.unsat_calls", "solver.leaves",
          "solver.models")


def layer_metrics(rec: Recorder) -> dict:
    """Self times, counts and ratios of one traced pass, by metric name."""
    selves = rec.self_times()
    count = rec.counts.get
    metrics = {metric: selves.get(span, 0.0)
               for span, metric in SPAN_METRICS.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            (t for span, t in selves.items() if span.startswith(layer + ".")),
            0.0)
    metrics.update((key, count(key, 0)) for key in COUNTS)
    metrics["parser.data_bytes_per_s"] = _ratio(
        count("parser.data_bytes", 0), metrics["parser.parse_data_s"])
    metrics["analysis.reduct_keep_ratio"] = _ratio(
        count("analysis.reduct_kept_rules", 0),
        count("analysis.reduct_program_rules", 0))
    metrics["solver.leaf_yield"] = _ratio(metrics["solver.models"],
                                          metrics["solver.leaves"])
    metrics["trace.attributed_s"] = rec.root_time()
    return metrics


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
