"""Per-module tracing, installed from outside the program.

``install(orb, tracer)`` replaces each traced function in every orbsemi
module that binds it (``natural_join`` is bound in ``tables``, ``labeling``
and ``exprlang``; ``quotient`` and the ``check_*`` functions in
``representation`` and ``cli``), and wraps a few methods at class level.  No
source file changes.

There are three kinds of wrapper:

- span: timed, kept as a span ``(id, name, start, end, parent, op_id)``;
- timed: timed for self time but not kept, because it runs too often for a
  span list to stay small (``natural_join``, ``act_table``);
- count: calls counted, not timed (constructors, ``__hash__``, hot helpers).

Each wrapper is registered under the name of the metric it feeds: a span or
timed wrapper under a prefix ``p`` that gives ``p.calls`` and ``p.self_s``, a
count wrapper under the full metric name.  ``Labeling.__call__`` also counts
its calls as ``p.label_calls`` of the traced call ``p`` it is made from
directly, which measures the labels that ``extent`` and ``quotient`` look up.

Self time is a call's duration minus the time of traced calls made inside
it, accumulated on a stack as calls return.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

SPAN, TIMED, COUNT = "span", "timed", "count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self.stack = []
        self._next_id = 0
        self.reset()

    def reset(self):
        """Start a new pass: counters restart, spans are kept."""
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.first_span = len(self.spans)

    def enter(self, name):
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame, keep):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        self.counts[name + ".calls"] += 1
        self.self_s[name] += duration - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if keep:
            self.spans.append((span_id, name, start, end,
                               parent[3] if parent else None, self.op_id))

    def pass_spans(self):
        return self.spans[self.first_span:]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "op_id"), s))) + "\n")


def _timed(tracer, name, fn, keep, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, keep)
        if hook is not None:
            hook(tracer.counts, args, result)
        return result
    return wrapper


def _counted(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts[name] += 1
        if hook is not None:
            hook(tracer.counts, args, result)
        return result
    return wrapper


def _cache_probe(tracer, name, fn, attr, per_caller):
    """Count calls and hits of a memoized method (a hit leaves the cache size
    unchanged).  With ``per_caller``, also count the calls as
    ``<caller>.<per_caller>`` of the innermost timed call they are made from."""
    calls, hits = name + ".calls", name + ".hits"
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(self, *args):
        cache = getattr(self, attr, None)
        before = len(cache) if cache is not None else -1
        result = fn(self, *args)
        counts = tracer.counts
        counts[calls] += 1
        if cache is not None and len(cache) == before:
            counts[hits] += 1
        if per_caller and stack:
            counts[f"{stack[-1][0]}.{per_caller}"] += 1
        return result
    return wrapper


# ---------------------------------------------------------------------------
# Hooks: extra counts taken from a traced call's arguments and result


def _join_rows(c, args, result):
    c["tables.natural_join.rows_in"] += len(args[0].rows) + len(args[1].rows)
    c["tables.natural_join.rows_out"] += len(result.rows)


def _table_rows(c, args, result):
    c["tables.table_new.rows"] += len(args[0].rows)


def _check_cases(c, args, report):
    c["orbital.cases_run"] += report.cases_run
    c["orbital.cases_applicable"] += report.cases_applicable


def _extent_rows(c, args, result):
    c["labeling.extent.rows_returned"] += len(result.rows)


def _quotient_size(c, args, result):
    c["labeling.quotient.classes"] += len(result[1].ground)


def _represent_terms(c, args, report):
    c["representation.terms"] += len(report.terms)


def _accepted(c, args, result):
    c["representation.admissible.accepted"] += bool(result)


def _loaded_rows(c, args, table):
    c["tableio.load_table.rows"] += len(table.rows)


#: (module, function, metric name or prefix, kind, hook)
FUNCTIONS = (
    ("transforms", "compose", "transforms.compose.calls", COUNT, None),
    ("tuples", "merge", "tuples.merge.calls", COUNT, None),
    ("tables", "natural_join", "tables.natural_join", TIMED, _join_rows),
    ("tables", "act_table", "tables.act_table", TIMED, None),
    ("tables", "diagonal", "tables.diagonal.calls", COUNT, None),
    ("orbital", "check_axiom", "orbital.check", SPAN, _check_cases),
    ("orbital", "check_derived", "orbital.check", SPAN, _check_cases),
    ("labeling", "extent", "labeling.extent", SPAN, _extent_rows),
    ("labeling", "check_labeling", "labeling.check_labeling", SPAN, None),
    ("labeling", "check_embedding", "labeling.check_embedding", SPAN, None),
    ("labeling", "quotient", "labeling.quotient", SPAN, _quotient_size),
    ("representation", "represent", "representation.represent", SPAN, _represent_terms),
    ("representation", "harvested_checks", "representation.harvested_checks", SPAN, None),
    ("representation", "_reachable_elements", "representation.reachable", SPAN, None),
    ("exprlang", "parse", "exprlang.parse", SPAN, None),
    ("exprlang", "eval_expr", "exprlang.eval_expr", SPAN, None),
    ("tableio", "load_table", "tableio.load_table", SPAN, _loaded_rows),
    ("tableio", "table_to_grid", "tableio.format", SPAN, None),
    ("tableio", "table_to_csv", "tableio.format", SPAN, None),
    ("tableio", "table_to_json", "tableio.format", SPAN, None),
    ("cli", "main", "cli.main", SPAN, None),
)

#: (module, class, method, metric name or prefix, kind,
#:  hook, or for "cache" the cache attribute and the per-caller count's name)
METHODS = (
    ("tuples", "NTuple", "__post_init__", "tuples.ntuple_new.count", COUNT, None),
    ("transforms", "FPTransform", "__post_init__", "transforms.fptransform_new.count",
     COUNT, None),
    ("tables", "Table", "__post_init__", "tables.table_new.count", COUNT, _table_rows),
    ("tables", "TableAlgebra", "element_pool", "tables.element_pool", SPAN, None),
    ("labeling", "Labeling", "__call__", "labeling.labeling_call",
     "cache", ("_cache", "label_calls")),
    ("representation", "GroundTerm", "__hash__", "representation.ground_term_hash.count",
     COUNT, None),
    ("representation", "RepresentationBuilder", "build_H", "representation.build_H", SPAN, None),
    ("representation", "RepresentationBuilder", "admissible",
     "representation.admissible.calls", COUNT, _accepted),
    ("representation", "RepresentationBuilder", "kappa", "representation.kappa",
     "cache", ("_kappa_cache", None)),
    ("representation", "RepresentationBuilder", "alpha", "representation.alpha",
     "cache", ("_alpha_cache", None)),
)


def _wrap(tracer, name, fn, kind, extra):
    if kind == "cache":
        return _cache_probe(tracer, name, fn, *extra)
    if kind == COUNT:
        return _counted(tracer, name, fn, extra)
    return _timed(tracer, name, fn, kind == SPAN, extra)


def install(orb, tracer):
    """Wrap every binding of the traced functions in the orbsemi package."""
    modules = [orb] + [getattr(orb, m) for m in
                       ("transforms", "tuples", "tables", "orbital", "mutants",
                        "labeling", "representation", "exprlang", "tableio", "cli")]
    wrappers = {}
    for mod, fname, name, kind, hook in FUNCTIONS:
        fn = getattr(getattr(orb, mod), fname)
        wrappers[id(fn)] = _wrap(tracer, name, fn, kind, hook)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    for mod, cls_name, meth, name, kind, extra in METHODS:
        cls = getattr(getattr(orb, mod), cls_name)
        setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth), kind, extra))


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass

STAGES = ("build_H", "harvested", "quasi_labeling", "quotient", "full_labeling",
          "reachable", "embedding", "coverage")
_STAGE_OF = {
    "representation.build_H": "build_H",
    "representation.harvested_checks": "harvested",
    "labeling.quotient": "quotient",
    "representation.reachable": "reachable",
    "labeling.check_embedding": "embedding",
}


def stage_seconds(spans):
    """Seconds in each stage of ``represent``, from the spans of its direct
    callees.  ``check_labeling`` runs twice: before the quotient it checks the
    quasi labeling, after it the full one.  Coverage is the time from the end
    of the embedding check to the end of ``represent``."""
    out = dict.fromkeys(STAGES, 0.0)
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    for rep in (s for s in spans if s[1] == "representation.represent"):
        kids = sorted(children[rep[0]], key=lambda s: s[2])
        q_start = next((k[2] for k in kids if k[1] == "labeling.quotient"), rep[3])
        last_end = None
        for k in kids:
            if k[1] == "labeling.check_labeling":
                stage = "quasi_labeling" if k[2] < q_start else "full_labeling"
            else:
                stage = _STAGE_OF.get(k[1])
            if stage is not None:
                out[stage] += k[3] - k[2]
            if k[1] == "labeling.check_embedding":
                last_end = k[3]
        if last_end is not None:
            out["coverage"] += rep[3] - last_end
    return out


#: (metric, numerator count, denominator count)
RATIOS = (
    ("orbital.applicable_ratio", "orbital.cases_applicable", "orbital.cases_run"),
    ("labeling.labeling_call.hit_ratio", "labeling.labeling_call.hits",
     "labeling.labeling_call.calls"),
    ("representation.admissible.accept_ratio", "representation.admissible.accepted",
     "representation.admissible.calls"),
    ("representation.kappa.hit_ratio", "representation.kappa.hits",
     "representation.kappa.calls"),
    ("representation.alpha.hit_ratio", "representation.alpha.hits",
     "representation.alpha.calls"),
)


def layer_metrics(tracer) -> dict:
    """Every count, self time, ratio and stage time of the pass since the
    last ``reset``."""
    c = tracer.counts
    m = dict(c)
    m.update((name + ".self_s", secs) for name, secs in tracer.self_s.items())
    for name, num, den in RATIOS:
        m[name] = c[num] / c[den] if c[den] else 0.0
    for stage, secs in stage_seconds(tracer.pass_spans()).items():
        m[f"representation.stage.{stage}.s"] = secs
    return m


def is_time(name) -> bool:
    return name.endswith("_s") or name.endswith(".s")
