"""Group-level parallelization of MSQM (Section IV-A-1) on Spark.

The driver ranks workers once (:func:`build_task_contexts`) and builds the
independent conflict groups from those contexts
(:mod:`repro.sparkpar.conflict_graph`).  The groups are optimized
concurrently: one state row per group (its id and its tasks' contexts, in
task-id order) goes through one :func:`repro.sparkpar.run_stage`, and each
row runs the serial MSQM greedy on those contexts and returns its commit log
as ``(group_id, ord, task_id, slot)`` rows.  Each context is pickled once,
into its own group's row.  The global budget is split across groups
proportionally to group size (the paper does not specify the split —
DESIGN.md §5), so budget one group leaves unspent is lost to the others.

The driver replays the logs, each in commit order, through one
:class:`repro.core.multi_greedy.ClaimLedger` (the master's Conflicting
Table), which builds the result and counts the conflicts.  At the graph's
fixpoint no claim reaches another group's current worker, so the replay
reproduces each group's workers, costs and bumps; ``ClaimLedger.record``
raises on a double claim, which checks that independence.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.assignment import build_task_contexts
from repro.core.multi_greedy import ClaimLedger, MultiResult, solve_msqm_serial
from repro.core.quality import quality
from repro.sparkpar import run_stage
from repro.sparkpar.conflict_graph import build_groups

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

    from repro.workloads import Workload


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
    # ``groups`` lists the tasks in id order, and so does each group's row.
    state = [(g, [ctxs[t] for t in task_ids]) for g, task_ids
             in groups.groupby("group_id")["task_id"].agg(list).items()]
    n_total = len(ctxs)

    def run_group(row) -> list[tuple]:
        """Serial MSQM on one group's state row: its commit log."""
        group_id, group_ctxs = row
        gb = budget * len(group_ctxs) / n_total
        res = solve_msqm_serial(group_ctxs, gb, k, t_s=t_s)
        return [(group_id, ord_, t, slot)
                for ord_, (t, slot) in enumerate(res.commits)]

    log = run_stage(spark, state, run_group, num_partitions)

    # Sorted by (group_id, ord), which is unique per commit.
    for _, _, t, slot in sorted(log):
        ledger.claim(t, slot)
    return ledger.result([quality(a.exec_slots, wl.m, k) for a in ledger.plan]), gstats
