"""Outside-in layer tracing for the benchmark.

Public functions and methods of the program are wrapped from here, never
edited.  Two granularities share one call stack:

* a **span** (the solve, ``build_task_contexts``, each ``createDataFrame`` /
  ``toPandas`` call) is kept individually with its start, end and parent;
* an **aggregate** (index methods, quality functions — hundreds of thousands
  of calls per solve) keeps only count, total and self time per name.

Self time is the call's duration minus the time covered by traced calls it
made.  Everything stays in memory until the caller reads it.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


class Tracer:
    """Call stack plus per-name aggregates and individual spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.agg: dict[str, list] = {}  # name -> [calls, total, self]
        self.spans: list[dict] = []

    def enter(self, name: str, span: bool = False) -> None:
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append({"id": span_id, "name": name, "parent": parent})
        self.stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if span_id is not None:
            self.spans[span_id].update(start=start, end=end, self=dur - child)

    @contextmanager
    def span(self, name: str):
        self.enter(name, span=True)
        try:
            yield
        finally:
            self.exit()

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def child_spans(self, parent_name: str, name: str) -> list[dict]:
        """Spans called ``name`` whose nearest span ancestor is ``parent_name``."""
        ids = {s["id"] for s in self.spans if s["name"] == parent_name}
        return [s for s in self.spans if s["name"] == name and s["parent"] in ids]


def traced(tracer: Tracer, name: str, fn, span: bool = False):
    """``fn`` wrapped so each call enters and exits ``tracer`` as ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


#: (module, attribute path, trace name, kept as a span).  A function is
#: patched in the module that looks it up, not only where it is defined.
TARGETS = [
    ("repro.core.tree_index", "VoronoiTreeIndex.__init__", "tree_index.init", False),
    ("repro.core.tree_index", "VoronoiTreeIndex.best_candidate", "tree_index.best_candidate", False),
    ("repro.core.tree_index", "VoronoiTreeIndex.exact_heuristic", "tree_index.exact_heuristic", False),
    ("repro.core.tree_index", "VoronoiTreeIndex.commit", "tree_index.commit", False),
    ("repro.core.tree_index", "VoronoiTreeIndex.update_cost", "tree_index.update_cost", False),
    ("repro.core.tree_index", "partial_quality", "quality.partial_quality", False),
    ("repro.core.tree_index", "knn_distances", "quality.knn_distances", False),
    ("repro.core.multi_greedy", "p_vector", "quality.p_vector", False),
    ("repro.sparkpar.task_parallel", "p_vector", "quality.p_vector", False),
    ("repro.core.assignment", "build_task_contexts", "assignment.build_task_contexts", True),
    ("repro.sparkpar.task_parallel", "build_task_contexts", "assignment.build_task_contexts", True),
    ("repro.sparkpar.group_parallel", "build_groups", "conflict_graph.build_groups", True),
    ("repro.sparkpar.conflict_graph", "conflict_edges", "conflict_graph.conflict_edges", True),
    # The classic (non-Connect) DataFrame: wrapping pyspark.sql.DataFrame
    # instead records no calls on PySpark 4.
    ("pyspark.sql.classic.dataframe", "DataFrame.toPandas", "spark.toPandas", True),
    ("pyspark.sql.session", "SparkSession.createDataFrame", "spark.createDataFrame", True),
]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Patch every target with a ``tracer`` wrapper; restore them on exit."""
    saved = []
    try:
        for mod_name, path, name, span in targets:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, traced(tracer, name, original, span))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
