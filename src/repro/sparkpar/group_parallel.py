"""Group-level parallelization of MSQM (Section IV-A-1) on Spark.

The driver ranks workers once (:func:`build_task_contexts`) and builds the
independent conflict groups from those contexts
(:mod:`repro.sparkpar.conflict_graph`).  The groups are optimized
concurrently: one state row per group (its id and its tasks' ids as an array
column) goes through a ``mapInPandas`` stage, and each row runs the serial
MSQM greedy on its tasks' contexts, in task-id order.  The state frame needs
no shuffle, so the groups' rows spread over the cores; the contexts travel
to the executors once per solve, as a broadcast variable.  The global
budget is split across groups proportionally to group size (the paper does
not specify the split — DESIGN.md §5).

The stage returns one row per task — its executed slots and their workers
as ``array<long>`` columns, its cost and quality — and the driver reads the
rows, in task-id order, as the :class:`repro.core.multi_greedy.MultiResult`.
Every row also carries its group's worker-conflict count (the serial
greedy's rank bumps); the result reports their sum over groups.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.assignment import build_task_contexts
from repro.core.greedy import Assignment
from repro.core.multi_greedy import MultiResult, solve_msqm_serial
from repro.sparkpar.conflict_graph import build_groups
from repro.workloads import Workload

_STATE_SCHEMA = "group_id long, task_id array<long>"
_OUT_COLUMNS = [
    "task_id", "group_id", "exec_slots", "workers", "cost", "quality", "conflicts",
]
_OUT_SCHEMA = (
    "task_id long, group_id long, exec_slots array<long>, workers array<long>, "
    "cost double, quality double, conflicts long"
)


def solve_msqm_group_parallel(
    spark: SparkSession,
    wl: Workload,
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    num_partitions: int | None = None,
) -> tuple[MultiResult, dict]:
    """MSQM via per-conflict-group parallel greedy.  Returns (result, stats)."""
    ctxs = build_task_contexts(wl)
    groups, _, gstats = build_groups(ctxs)
    if not ctxs:
        return MultiResult([], 0), gstats
    state = (
        groups.sort_values("task_id")
        .groupby("group_id")["task_id"]
        .agg(list)
        .reset_index()
    )
    n_total = len(ctxs)

    def run_group(g) -> list[tuple]:
        """Serial MSQM on one group's state row: one result row per task."""
        group_ctxs = [ctxs_bc.value[t] for t in g.task_id]
        gb = budget * len(group_ctxs) / n_total
        res = solve_msqm_serial(group_ctxs, gb, k, t_s=t_s)
        return [
            (a.task_id, g.group_id, a.exec_slots, a.workers, a.cost, a.quality,
             res.conflicts)
            for a in res.assignments
        ]

    def run_groups(batches):
        for pdf in batches:
            rows = [r for g in pdf.itertuples(index=False) for r in run_group(g)]
            yield pd.DataFrame(rows, columns=_OUT_COLUMNS)

    ctxs_bc = spark.sparkContext.broadcast(ctxs)
    try:
        sdf = spark.createDataFrame(state, _STATE_SCHEMA)
        if num_partitions:
            sdf = sdf.repartition(min(num_partitions, len(state)), "group_id")
        out = sdf.mapInPandas(run_groups, _OUT_SCHEMA).toPandas()
    finally:
        ctxs_bc.unpersist()

    assignments = [
        Assignment(int(r.task_id), [int(s) for s in r.exec_slots],
                   [int(w) for w in r.workers], float(r.cost), float(r.quality))
        for r in out.sort_values("task_id").itertuples(index=False)
    ]
    conflicts = int(out.drop_duplicates("group_id")["conflicts"].sum())
    return MultiResult(assignments, conflicts), gstats
