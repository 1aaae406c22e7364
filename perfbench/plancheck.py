"""Plan check run on every timed solve.

A plan is the list of per-task :class:`repro.core.greedy.Assignment` a solver
returns.  :func:`check_plan` recomputes everything from the workload itself
rather than trusting the solver's own bookkeeping:

* each (worker, slot) is used at most once — across tasks under a shared
  budget, within each task when tasks have budgets of their own;
* the worker is active at that slot;
* each task's reported cost is the sum of the Euclidean distances from the
  task to its workers at their slots;
* the total cost is within the budget (per task, when budgets are per task);
* each reported quality equals :func:`repro.core.quality.quality` of the
  task's executed slots.

:func:`plan_digest` hashes the slots and workers of every task, so a plan can
be compared with the run's first plan and with a committed digest.
"""
from __future__ import annotations

import hashlib
import json
import math

from repro.core.quality import quality

#: Relative tolerance for recomputed costs and the budget (summation order).
COST_RTOL = 1e-9
#: Absolute tolerance for recomputed quality (bits).
QUALITY_ATOL = 1e-9


def worker_positions(workers) -> dict[tuple[int, int], tuple[float, float]]:
    """``(worker_id, slot) -> (x, y)`` for every active worker instance."""
    return {
        (int(w), int(s)): (float(x), float(y))
        for w, s, x, y in workers[["worker_id", "slot", "x", "y"]].itertuples(index=False)
    }


def check_plan(
    tasks,
    positions: dict,
    plan: list,
    *,
    m: int,
    k: int,
    budget: float | dict[int, float],
) -> list[str]:
    """Every violated invariant of ``plan``, as messages (empty when valid).

    ``budget`` is one shared budget, or a budget per task id.  Tasks with a
    budget of their own are solved independently, so worker reuse is then
    checked within each task only.
    """
    errors: list[str] = []
    loc = {int(t): (float(x), float(y)) for t, x, y in tasks[["task_id", "x", "y"]].itertuples(index=False)}
    if sorted(a.task_id for a in plan) != sorted(loc):
        errors.append("plan does not cover each task exactly once")
    shared = not isinstance(budget, dict)
    used: dict[tuple[int, int], int] = {}
    total = 0.0
    for a in plan:
        tid = a.task_id
        if len(a.exec_slots) != len(a.workers):
            errors.append(f"task {tid}: {len(a.exec_slots)} slots but {len(a.workers)} workers")
            continue
        if len(set(a.exec_slots)) != len(a.exec_slots):
            errors.append(f"task {tid}: a slot is executed twice")
        if tid not in loc:
            continue
        tx, ty = loc[tid]
        seen = used if shared else {}
        cost = 0.0
        for slot, worker in zip(a.exec_slots, a.workers):
            key = (int(worker), int(slot))
            if key in seen:
                errors.append(f"worker {key[0]} at slot {key[1]} claimed by tasks {seen[key]} and {tid}")
            seen[key] = tid
            if key not in positions:
                errors.append(f"task {tid}: worker {key[0]} is not active at slot {key[1]}")
                continue
            wx, wy = positions[key]
            cost += math.hypot(wx - tx, wy - ty)
        if not math.isclose(cost, a.cost, rel_tol=COST_RTOL, abs_tol=COST_RTOL):
            errors.append(f"task {tid}: reported cost {a.cost!r} but distances sum to {cost!r}")
        if not shared and cost > budget[tid] * (1 + COST_RTOL):
            errors.append(f"task {tid}: cost {cost!r} exceeds its budget {budget[tid]!r}")
        total += cost
        q = quality(a.exec_slots, m, k)
        if not abs(q - a.quality) <= QUALITY_ATOL:
            errors.append(f"task {tid}: reported quality {a.quality!r} but slots give {q!r}")
    if shared and total > budget * (1 + COST_RTOL):
        errors.append(f"total cost {total!r} exceeds the budget {budget!r}")
    return errors


def plan_digest(plan: list) -> str:
    """SHA-256 of every task's (slot, worker) pairs, independent of order."""
    canon = sorted(
        (int(a.task_id), sorted((int(s), int(w)) for s, w in zip(a.exec_slots, a.workers)))
        for a in plan
    )
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()
