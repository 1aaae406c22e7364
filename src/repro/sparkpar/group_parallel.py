"""Group-level parallelization of MSQM (Section IV-A-1) on Spark.

Independent conflict groups (from :mod:`repro.sparkpar.conflict_graph`) are
optimized concurrently: tasks tagged with their group id are grouped with
``groupBy("group_id").applyInPandas`` and each group runs the serial MSQM
greedy in its own Spark task.  The global budget is split across groups
proportionally to group size (the paper does not specify the split —
DESIGN.md §5).

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
    top_r: int = 8,
    num_partitions: int | None = None,
    use_index: bool = True,
) -> tuple[MultiResult, dict]:
    """MSQM via per-conflict-group parallel greedy.  Returns (result, stats)."""
    groups, _, gstats = build_groups(spark, wl, top_r=top_r)
    tasks = wl.tasks.merge(groups, on="task_id")
    n_total = wl.n_tasks
    workers_pdf = wl.workers
    m, domain = wl.m, wl.domain

    def run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        sub_wl = Workload(
            tasks=pdf[["task_id", "x", "y", "m"]].reset_index(drop=True),
            workers=workers_pdf,
            m=m,
            domain=domain,
        )
        ctxs = build_task_contexts(sub_wl, top_r=top_r)
        gb = budget * len(pdf) / n_total
        res = solve_msqm_serial(ctxs, gb, k, t_s=t_s, use_index=use_index)
        gid = int(pdf["group_id"].iloc[0])
        rows = []
        for a in res.assignments:
            if a.exec_slots:
                for slot, worker in zip(a.exec_slots, a.workers):
                    rows.append((a.task_id, gid, slot, worker, a.cost, a.quality,
                                 res.conflicts))
            else:
                rows.append((a.task_id, gid, -1, -1, 0.0, a.quality, res.conflicts))
        return pd.DataFrame(
            rows,
            columns=["task_id", "group_id", "slot", "worker_id", "cost",
                     "quality", "conflicts"],
        )

    sdf = spark.createDataFrame(tasks)
    if num_partitions:
        sdf = sdf.repartition(num_partitions, "group_id")
    out = (
        sdf.groupBy("group_id").applyInPandas(run_group, _OUT_SCHEMA).toPandas()
    )

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
