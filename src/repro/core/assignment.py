"""Per-task assignment context: ranked candidate workers and travel costs.

Following the paper's cost model, the cost of executing subtask ``τ^(j)`` is
the Euclidean distance from the task's location to the assigned worker's
position at slot ``j``; the nearest available worker is preferred, with the
2nd-, 3rd-, … nearest used when conflicts with other tasks bump a task to a
higher rank (Section IV).

``TaskContext`` holds, for one task, the top-R candidate workers per slot
sorted by cost, as padded rectangular arrays.  ``build_task_contexts``
ranks each slot once for all tasks of a :class:`repro.workloads.Workload`.

``Workload`` is imported for annotations only: this module calls methods on
the workload it is given and never builds one.  Spark's Python workers
import it when they unpickle a round's row function, and a module-level
import would load pandas, about 54 MB and 0.25 s, into every worker
(DESIGN.md §3).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.workloads import Workload

#: How many candidate workers to retain per (task, slot).  Conflict-driven
#: rank bumps beyond this mark the slot unassignable for that task.
#: :func:`build_task_contexts` reads it at call time.
DEFAULT_TOP_R = 8


@dataclass
class TaskContext:
    """One task's view of the worker supply.

    ``slot_workers`` / ``slot_costs`` are aligned ``(m, top_r + 1)`` arrays:
    row ``j`` holds slot ``j``'s candidate worker ids and travel costs,
    ascending by ``(round(cost, 12), worker_id)``, padded with ``-1`` /
    ``inf`` past the retained candidates.  There is always at least one pad
    column, so every rank a bump can reach is a plain index, and column 0
    is the rank-0 (nearest) candidate per slot.
    """

    task_id: int
    x: float
    y: float
    m: int
    slot_workers: np.ndarray = field(repr=False)
    slot_costs: np.ndarray = field(repr=False)

    def base_costs(self) -> np.ndarray:
        """Rank-0 cost per slot (inf where no worker is available)."""
        return self.slot_costs[:, 0]

    def assignable_slots(self) -> np.ndarray:
        """Slots with at least one available worker."""
        return np.flatnonzero(self.slot_workers[:, 0] >= 0)


def build_task_contexts(wl: Workload) -> list[TaskContext]:
    """Ranked worker candidates for every task in the workload.

    Each slot is ranked once for all tasks: one ``(|T|, n_j)`` distance
    matrix over the n_j workers active at slot j, one ``argpartition`` top-r
    cut, and one ``lexsort`` of the cut by (rounded distance, worker id).
    Each context is a view of one ``(|T|, m, top_r + 1)`` block.  Worker rows
    whose slot lies outside ``[0, m)`` are ignored.
    """
    top_r = DEFAULT_TOP_R
    n, m = wl.n_tasks, wl.m
    loc = wl.tasks[["x", "y"]].to_numpy(np.float64)
    W = np.full((n, m, top_r + 1), -1, dtype=np.int64)
    C = np.full((n, m, top_r + 1), np.inf)
    slots = wl.workers["slot"].to_numpy(np.int64)
    by_slot = np.argsort(slots, kind="stable")  # frame order within a slot
    bounds = np.searchsorted(slots[by_slot], np.arange(m + 1))
    ids_all = wl.workers["worker_id"].to_numpy(np.int64)[by_slot]
    pos_all = wl.workers[["x", "y"]].to_numpy(np.float64)[by_slot]
    for j in range(m):
        ids, pos = ids_all[bounds[j]:bounds[j + 1]], pos_all[bounds[j]:bounds[j + 1]]
        d = np.hypot(pos[:, 0] - loc[:, :1], pos[:, 1] - loc[:, 1:])
        # Workers rank by (distance to 1e-12, worker id).  The cut keeps, in
        # every row, all workers at or below the row's top_r-th rounded
        # distance, so workers tied with it at the cut all reach the sort,
        # and the sort keeps the lower ids.  A row ties at the cut when its
        # (top_r + 1)-th key equals its top_r-th; only then is the cut widened.
        key = np.round(d, 12)
        r = min(top_r, len(ids))
        if r < len(ids):
            cut = np.argpartition(key, [r - 1, r], axis=1)
            kth = np.take_along_axis(key, cut[:, r - 1:r + 1], axis=1)
            wide = r
            if (kth[:, 0] == kth[:, 1]).any():
                wide = int((key <= kth[:, :1]).sum(axis=1).max())
                cut = np.argpartition(key, wide - 1, axis=1)
            cand = cut[:, :wide]
        else:
            cand = np.broadcast_to(np.arange(r), (n, r))
        order = np.lexsort((ids[cand], np.take_along_axis(key, cand, axis=1)), axis=1)
        sel = np.take_along_axis(cand, order[:, :r], axis=1)
        W[:, j, :r] = ids[sel]
        C[:, j, :r] = np.take_along_axis(d, sel, axis=1)
    return [
        TaskContext(int(t), float(x), float(y), m, W[i], C[i])
        for i, (t, x, y) in enumerate(wl.tasks[["task_id", "x", "y"]].itertuples(index=False))
    ]


def average_task_cost(ctxs: list[TaskContext]) -> float:
    """Average full-execution cost of a task (Σ_j rank-0 cost over assignable
    slots), the paper's reference point for budget fractions (12.5/25/50 %)."""
    bases = [c.slot_costs[:, 0] for c in ctxs]
    totals = [b[np.isfinite(b)].sum() for b in bases]
    return float(np.mean(totals)) if totals else 0.0
