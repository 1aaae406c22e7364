"""Task-level parallelization of MSQM (Section IV-A-2) on Spark.

The paper's design: a master thread holds a Heartbeat Table (latest heuristic
values), a Conflicting Table (which tasks compete for which worker at which
slot, and the k-th-NN rank they are at), and a Logging Table; worker threads
run per-task greedy steps and synchronize with the master on conflicts; the
committed plan is deterministic — consistent with the serialized Algorithm 1.

Spark expression (DESIGN.md §3): worker threads become one
:func:`repro.sparkpar.run_stage` per round over one state row per active
task: a tuple of its id, its executed slots, its current cost per slot (a
float64 array, ``inf`` where no retained worker is left) and the remaining
budget.  For each row the stage builds the task's Voronoi tree index from
that state and emits a *chain* of up to ``CHAIN_LEN`` sequential greedy
proposals, each only a (slot, Δq) pair: the executors know costs, never
workers.  The master (driver) prices every proposal from the Conflicting
Table — the task's current worker and cost at the slot, and Δq/cost — so
worker choice lives in one place,
:class:`repro.core.multi_greedy.ClaimLedger`, which also records each task's
committed slots, workers and cost and holds the budget, in serial MSQM's
arithmetic (the next round's state rows and the result are read from it).
Within one task a chain is exactly its greedy continuation; across tasks,
marginal gains are independent except through worker claims — so merging
all chains in descending heuristic order (a heap of chain heads) and
committing until a conflict, budget miss, or chain end reproduces the
serial greedy order.  On a conflict the loser's rank for that
slot is bumped in the Conflicting Table (1-NN → 2-NN → …) and its proposal
re-enters the merge at its new price; with no worker left its chain is
truncated and it re-proposes next round.  ``priority=False`` disables the
paper's priority adjustment (Fig 9f): chains are merged in task-id order
instead of by heuristic value.

The master keeps one log: a row per popped head with its round, task, slot,
heuristic, outcome and the task's rank at the slot (after the bump, for a
conflict).  The returned Heartbeat (each task's last heuristic), Conflicting
(the conflict rows) and Logging tables are views of it.

Stopping rule: before each round the master drops every task with nothing
affordable left (``ClaimLedger.any_affordable``, the executors' own
``best_candidate`` test, so exactly the tasks that would propose nothing)
and ends the solve, without a Spark job, once no task is left.  A dropped
task never returns: costs only rise, the budget only falls and executed sets
only grow.  A launched round always changes the plan: its first head was
priced from the same ledger state under the same budget, so it commits or
bumps.  That bounds the round count with no cap: commits are
at most Σ assignable slots, and bumps at most |T|·m·``top_r``.
"""
from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from repro.core.assignment import build_task_contexts
from repro.core.multi_greedy import ClaimLedger, MultiResult
from repro.core.quality import p_vector  # noqa: F401  (perfbench/layertrace.py patches it here)
from repro.core.quality import quality
from repro.core.tree_index import VoronoiTreeIndex
from repro.sparkpar import run_stage

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

    from repro.workloads import Workload

#: Greedy proposals per task per round.  The driver reads it once per solve
#: and the round stage closes over it, so a patched value reaches the
#: executors.
CHAIN_LEN = 16


def solve_msqm_task_parallel(
    spark: SparkSession,
    wl: Workload,
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    priority: bool = True,
    num_partitions: int | None = None,
) -> tuple[MultiResult, dict]:
    """MSQM via the master/worker round protocol.  Returns (result, tables)."""
    ledger = ClaimLedger(build_task_contexts(wl), budget)
    active = list(range(len(ledger.plan)))
    log_rows: list[tuple] = []
    rounds = 0

    def heuristic(t: int, slot: int, gain: float) -> float:
        # Numpy's division, as in VoronoiTreeIndex.exact_heuristic: the same
        # bits for the same cost, and inf rather than an error at cost 0.
        return float(np.float64(gain) / ledger.cost(t, slot))

    def head_key(t: int) -> tuple:
        # Ends in the task id, so keys are unique and heap pops follow a
        # sort by this key exactly.
        return (-heuristic(t, *chains[t][ptr[t]]), t) if priority else (t,)

    def log(t: int, slot: int, h: float, reason: str) -> None:
        # The master log: one row per popped head, with the task's current
        # 1-based rank at the slot (after the bump, for a conflict).
        log_rows.append((rounds, t, slot, h, reason == "ok", reason,
                         int(ledger.ranks[t, slot]) + 1))

    # Read here, so the stage pickles two ints and not the whole workload.
    m, chain_len = wl.m, CHAIN_LEN

    def chain(row) -> list[tuple]:
        """Executor-side worker thread: the next greedy chain of one task."""
        tid, exec_slots, slot_costs, left = row
        idx = VoronoiTreeIndex(m, k, slot_costs, initial_exec=exec_slots)
        out = []
        for ord_ in range(chain_len):
            cand = idx.best_candidate(left, t_s)
            if cand is None:
                break
            out.append((tid, ord_, cand.slot, cand.gain))
            left -= float(slot_costs[cand.slot])
            idx.commit(cand.slot)
        return out

    while True:
        # The stopping rule (module docstring).
        active = [t for t in active if ledger.any_affordable(t)]
        if not active:
            break
        rounds += 1
        state = [(t, ledger.plan[t].exec_slots, ledger.costs(t), ledger.rem)
                 for t in active]
        chains: dict[int, list[tuple[int, float]]] = {}
        # Sorted by (task_id, ord), which is unique per proposal.
        for t, _, slot, gain in sorted(run_stage(spark, state, chain,
                                                 num_partitions)):
            chains.setdefault(t, []).append((int(slot), float(gain)))
        ptr = dict.fromkeys(chains, 0)
        heads = [head_key(t) for t in chains]
        heapq.heapify(heads)
        while heads:
            t = heapq.heappop(heads)[-1]
            slot, gain = chains[t][ptr[t]]
            h = heuristic(t, slot, gain)
            if (ledger.worker(t, slot), slot) in ledger.claimed:
                # Conflict: the proposal's gain is unaffected (quality
                # depends on slots, not workers), so bump the loser to its
                # next unclaimed rank — the paper's Conflicting-Table bump
                # to the "k-th lowest cost" worker — and let the proposal
                # re-enter the merge at its new price.  Only this loser is
                # bumped: commits never bump rivals eagerly, which would
                # reprice next round's proposals.
                w = ledger.bump(t, slot)
                log(t, slot, h, "conflict")
                if w != -1:
                    heapq.heappush(heads, head_key(t))
                # Else no workers are left for this slot: the rest of the
                # chain assumed it executed, so it is truncated and the task
                # re-proposes next round.
                continue
            if not ledger.affordable(t, slot):
                log(t, slot, h, "budget")  # the chain stops here
                continue
            ledger.record(t, slot)
            ptr[t] += 1
            log(t, slot, h, "ok")
            if ptr[t] < len(chains[t]):
                heapq.heappush(heads, head_key(t))

    result = ledger.result([quality(a.exec_slots, wl.m, k) for a in ledger.plan])
    # The master's three tables are views of its one log.
    rows = pd.DataFrame(log_rows, columns=["round", "task_id", "slot", "heuristic",
                                           "committed", "reason", "rank"])
    heartbeat = {t: h for _, t, _, h, *_ in log_rows}
    tables = {
        "heartbeat": pd.DataFrame(
            {"task_id": list(heartbeat), "heuristic": list(heartbeat.values())}
        ),
        "conflicting": rows.loc[rows.reason == "conflict",
                                ["task_id", "slot", "rank", "round"]]
        .rename(columns={"rank": "bumped_to_rank"}).reset_index(drop=True),
        "logging": rows.drop(columns="rank"),
        "rounds": rounds,
    }
    return result, tables
