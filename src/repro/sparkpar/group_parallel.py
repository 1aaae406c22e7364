"""Group-level parallelization of MSQM (Section IV-A-1) on Spark.

The driver ranks workers once (:func:`build_task_contexts`) and builds the
independent conflict groups from those contexts
(:mod:`repro.sparkpar.conflict_graph`).  The groups are optimized
concurrently: one state row per group (its id and its tasks' ids as an array
column) goes through a ``mapInPandas`` stage, and each row runs the serial
MSQM greedy on its tasks' contexts, in task-id order, and returns its commit
log as ``(group_id, ord, task_id, slot)`` rows.  The state frame needs no
shuffle, so the groups' rows spread over the cores; the contexts travel to
the executors once per solve, as a broadcast variable.  The global budget is
split across groups proportionally to group size (the paper does not
specify the split — DESIGN.md §5).

The driver replays the logs, each in commit order, through one
:class:`repro.core.multi_greedy.ClaimLedger` (the master's Conflicting
Table), which builds the result and counts the conflicts.  At the graph's
fixpoint no claim reaches another group's current worker, so the replay
reproduces each group's workers, costs and bumps; ``ClaimLedger.record``
raises on a double claim, which checks that independence.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.assignment import build_task_contexts
from repro.core.multi_greedy import ClaimLedger, MultiResult, solve_msqm_serial
from repro.core.quality import quality
from repro.sparkpar.conflict_graph import build_groups
from repro.workloads import Workload

_STATE_SCHEMA = "group_id long, task_id array<long>"
_LOG_COLUMNS = ["group_id", "ord", "task_id", "slot"]
_LOG_SCHEMA = "group_id long, ord long, task_id long, slot long"


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
    ledger = ClaimLedger(ctxs)
    if not ctxs:
        return ledger.result([]), gstats
    # ``groups`` lists the tasks in id order, and so does each group's row.
    state = groups.groupby("group_id")["task_id"].agg(list).reset_index()
    n_total = len(ctxs)

    def run_group(g) -> list[tuple]:
        """Serial MSQM on one group's state row: its commit log."""
        group_ctxs = [ctxs_bc.value[t] for t in g.task_id]
        gb = budget * len(group_ctxs) / n_total
        res = solve_msqm_serial(group_ctxs, gb, k, t_s=t_s)
        return [(g.group_id, ord_, t, slot)
                for ord_, (t, slot) in enumerate(res.commits)]

    def run_groups(batches):
        for pdf in batches:
            rows = [r for g in pdf.itertuples(index=False) for r in run_group(g)]
            yield pd.DataFrame(rows, columns=_LOG_COLUMNS)

    ctxs_bc = spark.sparkContext.broadcast(ctxs)
    try:
        sdf = spark.createDataFrame(state, _STATE_SCHEMA)
        if num_partitions:
            sdf = sdf.repartition(min(num_partitions, len(state)), "group_id")
        log = sdf.mapInPandas(run_groups, _LOG_SCHEMA).toPandas()
    finally:
        ctxs_bc.unpersist()

    log = log.sort_values(["group_id", "ord"])
    for t, slot in zip(log["task_id"].tolist(), log["slot"].tolist()):
        ledger.claim(t, slot)
    return ledger.result([quality(a.exec_slots, wl.m, k) for a in ledger.plan]), gstats
