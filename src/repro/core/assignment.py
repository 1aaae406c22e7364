"""Per-task assignment context: ranked candidate workers and travel costs.

Following the paper's cost model, the cost of executing subtask ``τ^(j)`` is
the Euclidean distance from the task's location to the assigned worker's
position at slot ``j``; the nearest available worker is preferred, with the
2nd-, 3rd-, … nearest used when conflicts with other tasks bump a task to a
higher rank (Section IV).

``TaskContext`` precomputes, for one task, the top-R candidate workers per
slot sorted by cost.  ``build_task_contexts`` vectorizes this over a whole
:class:`repro.workloads.Workload`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads import Workload

#: How many candidate workers to retain per (task, slot).  Conflict-driven
#: rank bumps beyond this mark the slot unassignable for that task.
DEFAULT_TOP_R = 8


@dataclass
class TaskContext:
    """One task's view of the worker supply.

    ``slot_workers[j]`` / ``slot_costs[j]`` are aligned arrays of candidate
    worker ids and travel costs for slot ``j``, ascending by cost (empty when
    no worker is available at that slot).
    """

    task_id: int
    x: float
    y: float
    m: int
    slot_workers: list = field(repr=False, default_factory=list)
    slot_costs: list = field(repr=False, default_factory=list)

    def cost_at_rank(self, slot: int, rank: int = 0) -> float:
        """Travel cost of the rank-th nearest worker (inf if none)."""
        c = self.slot_costs[slot]
        return float(c[rank]) if rank < len(c) else np.inf

    def worker_at_rank(self, slot: int, rank: int = 0) -> int:
        """Worker id of the rank-th nearest worker (−1 if none)."""
        w = self.slot_workers[slot]
        return int(w[rank]) if rank < len(w) else -1

    def base_costs(self) -> np.ndarray:
        """Rank-0 cost per slot (inf where no worker is available)."""
        return np.array(
            [self.cost_at_rank(j, 0) for j in range(self.m)], dtype=np.float64
        )

    def assignable_slots(self) -> np.ndarray:
        """Slots with at least one available worker."""
        return np.nonzero(np.isfinite(self.base_costs()))[0]


def build_task_contexts(wl: Workload, *, top_r: int = DEFAULT_TOP_R) -> list[TaskContext]:
    """Ranked worker candidates for every task in the workload.

    Grouping worker instances by slot once, then computing task→worker
    distances per slot, is O(|T| · Σ_j n_j) with n_j workers active at slot j.
    """
    by_slot: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    w = wl.workers
    for slot, grp in w.groupby("slot"):
        by_slot[int(slot)] = (
            grp["worker_id"].to_numpy(np.int64),
            grp[["x", "y"]].to_numpy(np.float64),
        )
    ctxs = []
    for row in wl.tasks.itertuples(index=False):
        loc = np.array([row.x, row.y])
        slot_workers, slot_costs = [], []
        for j in range(wl.m):
            if j not in by_slot:
                slot_workers.append(np.empty(0, dtype=np.int64))
                slot_costs.append(np.empty(0, dtype=np.float64))
                continue
            ids, pos = by_slot[j]
            d = np.hypot(pos[:, 0] - loc[0], pos[:, 1] - loc[1])
            # Workers rank by (distance to 1e-12, worker id).  Those at or
            # below the top_r-th rounded distance include every worker tied
            # with it at the cut; sorting them by the key keeps the lower ids.
            key = np.round(d, 12)
            if top_r < len(d):
                sel = np.flatnonzero(key <= key[np.argpartition(key, top_r - 1)[top_r - 1]])
            else:
                sel = np.arange(len(d))
            order = sel[np.lexsort((ids[sel], key[sel]))][:top_r]
            slot_workers.append(ids[order])
            slot_costs.append(d[order])
        ctxs.append(
            TaskContext(
                task_id=int(row.task_id),
                x=float(row.x),
                y=float(row.y),
                m=wl.m,
                slot_workers=slot_workers,
                slot_costs=slot_costs,
            )
        )
    return ctxs


def average_task_cost(ctxs: list[TaskContext]) -> float:
    """Average full-execution cost of a task (Σ_j rank-0 cost over assignable
    slots), the paper's reference point for budget fractions (12.5/25/50 %)."""
    totals = []
    for c in ctxs:
        base = c.base_costs()
        totals.append(base[np.isfinite(base)].sum())
    return float(np.mean(totals)) if totals else 0.0
