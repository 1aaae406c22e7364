"""Task-level parallelization of MSQM (Section IV-A-2) on Spark.

The paper's design: a master thread holds a Heartbeat Table (latest heuristic
values), a Conflicting Table (which tasks compete for which worker at which
slot, and the k-th-NN rank they are at), and a Logging Table; worker threads
run per-task greedy steps and synchronize with the master on conflicts; the
committed plan is deterministic — consistent with the serialized Algorithm 1.

Spark expression (DESIGN.md §3): worker threads become a ``mapInPandas``
stage over one state row per active task (task id, executed slots and
per-slot worker ranks as ``array<long>`` columns, remaining budget).  The
state frame needs no shuffle, so each round is one Spark job of one stage
whose tasks run on all cores.  The task contexts travel to the executors
once per solve, as a broadcast variable.  For each row the stage rebuilds
the task's Voronoi tree index from its committed state and emits a *chain*
of up to ``CHAIN_LEN`` sequential greedy proposals (slot, worker rank, cost,
Δq/c).  Within one task a chain is exactly its greedy continuation; across
tasks, marginal gains are independent except through worker claims — so the
master (driver) merging all chains in descending heuristic order (a heap of
chain heads) and committing until a conflict, budget miss, or chain end
reproduces the serial greedy order.  On a conflict the loser's chain is
truncated, its rank for that slot is bumped in the Conflicting Table (1-NN →
2-NN → …), and it re-proposes next round.  The Conflicting Table is
:class:`repro.core.multi_greedy.ClaimLedger`, which also records each
task's committed slots, workers and cost: the next round's state rows are
read from it, and so is the result.  ``priority=False`` disables the
paper's priority adjustment (Fig 9f): chains are merged in task-id order
instead of by heuristic value.
"""
from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.assignment import build_task_contexts
from repro.core.multi_greedy import ClaimLedger, MultiResult
from repro.core.quality import p_vector, quality_from_p
from repro.core.tree_index import VoronoiTreeIndex
from repro.workloads import Workload

#: Greedy proposals per task per round.  The driver reads it when it builds
#: the round stage, so a patched value reaches the executors.
CHAIN_LEN = 16
#: Guard against a round loop that never terminates.
MAX_ROUNDS = 1000

_STATE_SCHEMA = (
    "task_id long, exec_slots array<long>, ranks array<long>, rem_budget double"
)
_PROPOSAL_COLUMNS = [
    "task_id", "ord", "slot", "heuristic", "gain", "cost", "worker_id", "rank",
]
_PROPOSAL_SCHEMA = (
    "task_id long, ord long, slot long, heuristic double, gain double, "
    "cost double, worker_id long, rank long"
)


def _make_propose_fn(ctxs_bc, k: int, t_s: int, chain_len: int):
    """Executor-side worker threads: the next greedy chain of each task."""

    def chain(tid: int, ctx, exec_slots, ranks, rem: float) -> list[tuple]:
        costs = np.array([ctx.cost_at_rank(j, r) for j, r in enumerate(ranks)])
        idx = VoronoiTreeIndex(ctx.m, k, costs, initial_exec=exec_slots)
        out = []
        for ord_ in range(chain_len):
            cand = idx.best_candidate(rem, t_s)
            if cand is None:
                break
            r = ranks[cand.slot]
            out.append(
                (
                    tid,
                    ord_,
                    cand.slot,
                    cand.heuristic,
                    cand.gain,
                    float(costs[cand.slot]),
                    ctx.worker_at_rank(cand.slot, r),
                    r,
                )
            )
            rem -= float(costs[cand.slot])
            idx.commit(cand.slot)
        return out

    def propose(batches):
        ctxs = ctxs_bc.value
        for pdf in batches:
            rows = []
            for tid, exec_slots, ranks, rem in zip(
                pdf["task_id"], pdf["exec_slots"], pdf["ranks"], pdf["rem_budget"]
            ):
                tid = int(tid)
                rows += chain(tid, ctxs[tid], exec_slots, ranks.tolist(), float(rem))
            yield pd.DataFrame(rows, columns=_PROPOSAL_COLUMNS)

    return propose


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
    ctxs = build_task_contexts(wl)
    ledger = ClaimLedger(ctxs)
    rem = float(budget)
    active = set(range(len(ctxs)))
    heartbeat: dict[int, float] = {}
    conflict_rows: list[dict] = []
    log_rows: list[dict] = []
    rounds = 0

    def head_key(t: int, e: dict) -> tuple:
        # Ends in the task id, so keys are unique and heap pops follow a
        # sort by this key exactly.
        return (-e["heuristic"], t) if priority else (t,)

    ctxs_bc = spark.sparkContext.broadcast(ctxs)
    try:
        propose = _make_propose_fn(ctxs_bc, k, t_s, CHAIN_LEN)
        while active and rounds < MAX_ROUNDS:
            rounds += 1
            tids = sorted(active)
            state = pd.DataFrame(
                {
                    "task_id": tids,
                    "exec_slots": [ledger.plan[t].exec_slots for t in tids],
                    "ranks": [ledger.ranks[t].tolist() for t in tids],
                    "rem_budget": rem,
                }
            )
            sdf = spark.createDataFrame(state, _STATE_SCHEMA)
            if num_partitions:
                sdf = sdf.repartition(num_partitions, "task_id")
            props = sdf.mapInPandas(propose, _PROPOSAL_SCHEMA).toPandas()
            chains: dict[int, list[dict]] = {}
            for e in props.sort_values(["task_id", "ord"]).to_dict("records"):
                chains.setdefault(int(e["task_id"]), []).append(e)
            # A task that proposed nothing has no affordable candidate left.
            active.intersection_update(chains)
            ptr = dict.fromkeys(chains, 0)
            heads = [head_key(t, c[0]) for t, c in chains.items()]
            heapq.heapify(heads)
            committed_this_round = 0
            bumps_this_round = 0
            while heads:
                t = heapq.heappop(heads)[-1]
                e = chains[t][ptr[t]]
                slot, worker = int(e["slot"]), int(e["worker_id"])
                cost = float(e["cost"])
                heartbeat[t] = float(e["heuristic"])
                if (worker, slot) in ledger.claimed:
                    # Conflict: the element's *gain* is unaffected (quality
                    # depends on slots, not workers), so reprice it at the
                    # next unclaimed rank — the paper's Conflicting-Table
                    # bump to the "k-th lowest cost" worker — and let it
                    # re-enter the merge at its new heuristic position.  Only
                    # this loser is bumped: commits never bump rivals
                    # eagerly, which would reprice next round's proposals.
                    w = ledger.bump(t, slot)
                    r = int(ledger.ranks[t][slot])
                    bumps_this_round += 1
                    conflict_rows.append(
                        {"task_id": t, "slot": slot, "bumped_to_rank": r + 1,
                         "round": rounds}
                    )
                    log_rows.append(
                        {"round": rounds, "task_id": t, "slot": slot,
                         "heuristic": float(e["heuristic"]), "committed": False,
                         "reason": "conflict"}
                    )
                    if w == -1:
                        # No workers left for this slot: the rest of the
                        # chain assumed it executed — truncate (push nothing
                        # back), re-propose next round.
                        continue
                    new_cost = ctxs[t].cost_at_rank(slot, r)
                    e["rank"] = r
                    e["worker_id"] = w
                    e["cost"] = new_cost
                    e["heuristic"] = float(e["gain"]) / new_cost
                    heapq.heappush(heads, head_key(t, e))
                    continue
                if cost > rem:
                    # The chain stops here: nothing of it is pushed back.
                    log_rows.append(
                        {"round": rounds, "task_id": t, "slot": slot,
                         "heuristic": float(e["heuristic"]), "committed": False,
                         "reason": "budget"}
                    )
                    continue
                ledger.record(t, slot)
                rem -= cost
                ptr[t] += 1
                committed_this_round += 1
                log_rows.append(
                    {"round": rounds, "task_id": t, "slot": slot,
                     "heuristic": float(e["heuristic"]), "committed": True,
                     "reason": "ok"}
                )
                if ptr[t] < len(chains[t]):
                    heapq.heappush(heads, head_key(t, chains[t][ptr[t]]))
            if committed_this_round == 0 and bumps_this_round == 0:
                break  # no progress and no rank changes: terminate
    finally:
        ctxs_bc.unpersist()

    result = ledger.result([
        quality_from_p(p_vector(np.sort(np.asarray(a.exec_slots, np.int64)), wl.m, k))
        for a in ledger.plan
    ])
    tables = {
        "heartbeat": pd.DataFrame(
            {"task_id": list(heartbeat), "heuristic": list(heartbeat.values())}
        ),
        "conflicting": pd.DataFrame(conflict_rows),
        "logging": pd.DataFrame(log_rows),
        "rounds": rounds,
    }
    return result, tables
