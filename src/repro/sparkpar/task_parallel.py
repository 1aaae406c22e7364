"""Task-level parallelization of MSQM (Section IV-A-2) on Spark.

The paper's design: a master thread holds a Heartbeat Table (latest heuristic
values), a Conflicting Table (which tasks compete for which worker at which
slot, and the k-th-NN rank they are at), and a Logging Table; worker threads
run per-task greedy steps and synchronize with the master on conflicts; the
committed plan is deterministic — consistent with the serialized Algorithm 1.

Spark expression (DESIGN.md §3): worker threads become a ``mapInPandas``
stage over one state row per active task: its id, its executed slots as an
``array<long>``, its current cost per slot as an ``array<double>`` (``inf``
where no retained worker is left) and the remaining budget.  The state frame
needs no shuffle, so each round is one Spark job of one stage whose tasks
run on all cores.  For each row the stage builds the task's Voronoi tree
index from that state and emits a *chain* of up to ``CHAIN_LEN`` sequential
greedy proposals, each only a (slot, Δq) pair: the executors know costs,
never workers.  The master (driver) prices every proposal from the
Conflicting Table — the task's current worker and cost at the slot, and
Δq/cost — so worker choice lives in one place,
:class:`repro.core.multi_greedy.ClaimLedger`, which also records each task's
committed slots, workers and cost (the next round's state rows and the
result are read from it).  Within one task a chain is exactly its greedy
continuation; across tasks, marginal gains are independent except through
worker claims — so merging all chains in descending heuristic order (a heap
of chain heads) and committing until a conflict, budget miss, or chain end
reproduces the serial greedy order.  On a conflict the loser's rank for that
slot is bumped in the Conflicting Table (1-NN → 2-NN → …) and its proposal
re-enters the merge at its new price; with no worker left its chain is
truncated and it re-proposes next round.  ``priority=False`` disables the
paper's priority adjustment (Fig 9f): chains are merged in task-id order
instead of by heuristic value.

Stopping rule: before each round the master drops every task none of whose
unexecuted slots has a finite cost within the remaining budget — the
executors' own ``best_candidate`` test, so exactly the tasks that would
propose nothing — and ends the solve, without a Spark job, once no task is
left.  A dropped task never returns: costs only rise, the budget only falls
and executed sets only grow.  A launched round always changes the plan: its
first head was priced from the same ledger state under the same budget, so
it commits or bumps.  That bounds the round count with no cap: commits are
at most Σ assignable slots, and bumps at most |T|·m·``top_r``.
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

_STATE_SCHEMA = (
    "task_id long, exec_slots array<long>, costs array<double>, rem_budget double"
)
_PROPOSAL_COLUMNS = ["task_id", "ord", "slot", "gain"]
_PROPOSAL_SCHEMA = "task_id long, ord long, slot long, gain double"


def _has_affordable(costs: np.ndarray, exec_slots: list[int], rem: float) -> bool:
    """Whether an unexecuted slot has a finite cost within ``rem``: the
    affordability test ``VoronoiTreeIndex.best_candidate`` makes first."""
    ok = np.isfinite(costs) & (costs <= rem)
    ok[exec_slots] = False
    return bool(ok.any())


def _make_propose_fn(m: int, k: int, t_s: int, chain_len: int):
    """Executor-side worker threads: the next greedy chain of each task."""

    def chain(tid: int, exec_slots, costs, rem: float) -> list[tuple]:
        idx = VoronoiTreeIndex(m, k, costs, initial_exec=exec_slots)
        out = []
        for ord_ in range(chain_len):
            cand = idx.best_candidate(rem, t_s)
            if cand is None:
                break
            out.append((tid, ord_, cand.slot, cand.gain))
            rem -= float(costs[cand.slot])
            idx.commit(cand.slot)
        return out

    def propose(batches):
        for pdf in batches:
            rows = []
            for row in zip(pdf["task_id"], pdf["exec_slots"], pdf["costs"],
                           pdf["rem_budget"]):
                rows += chain(*row)
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
    ledger = ClaimLedger(build_task_contexts(wl))
    rem = float(budget)
    active = list(range(len(ledger.plan)))
    heartbeat: dict[int, float] = {}
    conflict_rows: list[dict] = []
    log_rows: list[dict] = []
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
        log_rows.append({"round": rounds, "task_id": t, "slot": slot,
                         "heuristic": h, "committed": reason == "ok",
                         "reason": reason})

    propose = _make_propose_fn(wl.m, k, t_s, CHAIN_LEN)
    while True:
        # The stopping rule (module docstring), priced from the state rows.
        costs = {t: ledger.costs(t) for t in active}
        active = [t for t in active
                  if _has_affordable(costs[t], ledger.plan[t].exec_slots, rem)]
        if not active:
            break
        rounds += 1
        state = pd.DataFrame(
            {
                "task_id": active,
                "exec_slots": [ledger.plan[t].exec_slots for t in active],
                "costs": [costs[t] for t in active],
                "rem_budget": rem,
            }
        )
        sdf = spark.createDataFrame(state, _STATE_SCHEMA)
        if num_partitions:
            sdf = sdf.repartition(min(num_partitions, len(active)), "task_id")
        props = sdf.mapInPandas(propose, _PROPOSAL_SCHEMA).toPandas()
        chains: dict[int, list[tuple[int, float]]] = {}
        for t, slot, gain in props.sort_values(["task_id", "ord"])[
            ["task_id", "slot", "gain"]
        ].itertuples(index=False):
            chains.setdefault(int(t), []).append((int(slot), float(gain)))
        ptr = dict.fromkeys(chains, 0)
        heads = [head_key(t) for t in chains]
        heapq.heapify(heads)
        while heads:
            t = heapq.heappop(heads)[-1]
            slot, gain = chains[t][ptr[t]]
            cost = ledger.cost(t, slot)
            h = heartbeat[t] = heuristic(t, slot, gain)
            if (ledger.worker(t, slot), slot) in ledger.claimed:
                # Conflict: the proposal's gain is unaffected (quality
                # depends on slots, not workers), so bump the loser to its
                # next unclaimed rank — the paper's Conflicting-Table bump
                # to the "k-th lowest cost" worker — and let the proposal
                # re-enter the merge at its new price.  Only this loser is
                # bumped: commits never bump rivals eagerly, which would
                # reprice next round's proposals.
                log(t, slot, h, "conflict")
                w = ledger.bump(t, slot)
                conflict_rows.append(
                    {"task_id": t, "slot": slot,
                     "bumped_to_rank": int(ledger.ranks[t, slot]) + 1,
                     "round": rounds}
                )
                if w != -1:
                    heapq.heappush(heads, head_key(t))
                # Else no workers are left for this slot: the rest of the
                # chain assumed it executed, so it is truncated and the task
                # re-proposes next round.
                continue
            if cost > rem:
                log(t, slot, h, "budget")  # the chain stops here
                continue
            ledger.record(t, slot)
            rem -= cost
            ptr[t] += 1
            log(t, slot, h, "ok")
            if ptr[t] < len(chains[t]):
                heapq.heappush(heads, head_key(t))

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
