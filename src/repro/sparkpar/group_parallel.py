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

The per-group result rows (one per executed subtask, plus a sentinel
``slot = −1`` row carrying the quality of tasks with no executions) are
reassembled into a :class:`repro.core.multi_greedy.MultiResult` on the
driver.  Every row also carries its group's worker-conflict count (the
serial greedy's rank bumps); the result reports their sum over groups.
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
    "task_id", "group_id", "slot", "worker_id", "cost", "quality", "conflicts",
]
_OUT_SCHEMA = (
    "task_id long, group_id long, slot long, worker_id long, "
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
        return MultiResult(assignments=[], conflicts=0, stats=dict(gstats)), gstats
    state = (
        groups.sort_values("task_id")
        .groupby("group_id")["task_id"]
        .agg(list)
        .reset_index()
    )
    n_total = len(ctxs)

    def run_group(g) -> list[tuple]:
        """Serial MSQM on one group's state row: its result rows."""
        group_ctxs = [ctxs_bc.value[t] for t in g.task_id]
        gb = budget * len(group_ctxs) / n_total
        res = solve_msqm_serial(group_ctxs, gb, k, t_s=t_s)
        gid = int(g.group_id)
        rows = []
        for a in res.assignments:
            if a.exec_slots:
                for slot, worker in zip(a.exec_slots, a.workers):
                    rows.append((a.task_id, gid, slot, worker, a.cost, a.quality,
                                 res.conflicts))
            else:
                rows.append((a.task_id, gid, -1, -1, 0.0, a.quality, res.conflicts))
        return rows

    def run_groups(batches):
        for pdf in batches:
            rows = [r for g in pdf.itertuples(index=False) for r in run_group(g)]
            yield pd.DataFrame(rows, columns=_OUT_COLUMNS)

    ctxs_bc = spark.sparkContext.broadcast(ctxs)
    try:
        sdf = spark.createDataFrame(state, _STATE_SCHEMA)
        if num_partitions:
            sdf = sdf.repartition(num_partitions, "group_id")
        out = sdf.mapInPandas(run_groups, _OUT_SCHEMA).toPandas()
    finally:
        ctxs_bc.unpersist()

    assignments = []
    for tid, grp in out.groupby("task_id"):
        slots = sorted(int(s) for s in grp["slot"] if s >= 0)
        workers = [
            int(w)
            for s, w in sorted(zip(grp["slot"], grp["worker_id"]))
            if s >= 0
        ]
        assignments.append(
            Assignment(
                task_id=int(tid),
                exec_slots=slots,
                workers=workers,
                cost=float(grp["cost"].iloc[0]) if len(slots) else 0.0,
                quality=float(grp["quality"].iloc[0]),
            )
        )
    result = MultiResult(
        assignments=assignments,
        conflicts=int(out.groupby("group_id")["conflicts"].first().sum()),
        stats=dict(gstats),
    )
    return result, gstats
