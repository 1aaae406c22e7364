"""Single-task assignment solvers (Section III): Approx, OPT, Rand.

Algorithm 1 has one driver, :func:`repro.core.multi_greedy.solve_msqm_serial`:
a single task is the |T| = 1 case of serial MSQM plus line 3's
single-subtask fallback (:func:`repro.core.multi_greedy.solve_single_task`).
The driver finds each step's argmax through a *scorer*:
:class:`NaiveScorer` *fully* recomputes the quality of ``T_cur ∪ {x}`` for
every candidate slot ``x`` (no k-NN reuse, no pruning) — the paper's
O(m³ log m) baseline, ``solve_sqm_approx`` — and
:class:`repro.core.tree_index.VoronoiTreeIndex` is ``Approx*``.

``solve_sqm_opt`` enumerates every budget-feasible slot subset (small m only).
``solve_sqm_rand`` is the multi-task Rand baseline on one task: random
assignable subtasks with their nearest worker until the budget is exhausted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.quality import quality

EPS = 1e-12


@dataclass
class Assignment:
    """Result of a single-task solve: which slots got which workers."""

    task_id: int
    exec_slots: list[int]
    workers: list[int]
    cost: float
    quality: float
    stats: dict = field(default_factory=dict)


@dataclass
class Candidate:
    """One scorer's proposed next slot: its Δq/cost and its Δq."""

    slot: int
    heuristic: float
    gain: float


class NaiveScorer:
    """Algorithm 1's inner argmax by full recomputation (Approx).

    Every step recomputes ``q(T_cur ∪ {x})`` from scratch for every
    affordable candidate ``x`` — no k-NN reuse, no pruning: the paper's
    O(m³ log m) baseline.  It has the scorer interface of
    :class:`repro.core.tree_index.VoronoiTreeIndex` (``best_candidate``,
    ``commit``, ``update_cost``, ``q_cur``, ``counters``, ``timers``), with
    no timers.
    """

    def __init__(self, m: int, k: int, costs: np.ndarray):
        self.m, self.k = m, k
        self.costs = np.asarray(costs, dtype=np.float64).copy()
        self.exec_slots: list[int] = []
        self.q_cur = 0.0
        self.counters = {"candidates_evaluated": 0, "interp_ops": 0, "steps": 0}
        self.timers: dict[str, float] = {}

    def update_cost(self, slot: int, new_cost: float) -> None:
        self.costs[slot] = new_cost

    def best_candidate(self, rem_budget: float, t_s: int = 0) -> Candidate | None:
        """Highest Δq/cost among affordable slots; the lowest slot wins ties."""
        best: Candidate | None = None
        ex = set(self.exec_slots)
        for x in range(self.m):
            if x in ex or not np.isfinite(self.costs[x]) or self.costs[x] > rem_budget:
                continue
            q_new = quality(self.exec_slots + [x], self.m, self.k)
            self.counters["candidates_evaluated"] += 1
            self.counters["interp_ops"] += self.m
            h = (q_new - self.q_cur) / self.costs[x]
            if best is None or h > best.heuristic + EPS:
                best = Candidate(slot=x, heuristic=h, gain=q_new - self.q_cur)
        return best

    def commit(self, slot: int) -> None:
        self.exec_slots.append(slot)
        self.q_cur = quality(self.exec_slots, self.m, self.k)
        self.counters["steps"] += 1


def solve_sqm_approx(ctx: TaskContext, budget: float, k: int) -> Assignment:
    """Algorithm 1 (Approx): greedy by Δq/cost, no reuse or pruning."""
    # multi_greedy imports this module, so the import is local.
    from repro.core.multi_greedy import solve_single_task

    return solve_single_task(ctx, budget, k, use_index=False)


def solve_sqm_rand(
    ctx: TaskContext, budget: float, k: int, *, seed: int = 0
) -> Assignment:
    """Rand baseline: random assignable subtasks → nearest worker, to budget."""
    # multi_greedy imports this module, so the import is local.
    from repro.core.multi_greedy import solve_multi_rand

    return solve_multi_rand([ctx], budget, k, seed=seed).assignments[0]


def solve_sqm_opt(ctx: TaskContext, budget: float, k: int) -> Assignment:
    """OPT: plain enumeration of all slot subsets, filtered by the budget.

    No bound prunes the search.  Exponential — intended for m ≤ ~18
    (quality-comparison experiments and approximation-ratio tests only).
    """
    m = ctx.m
    if m > 20:
        raise ValueError(f"solve_sqm_opt is exponential; m={m} is too large")
    costs = ctx.base_costs()
    cand = [int(x) for x in np.nonzero(np.isfinite(costs))[0] if costs[x] <= budget]
    best_set: tuple[int, ...] = ()
    best_q, best_cost = 0.0, 0.0
    for r in range(1, len(cand) + 1):
        for combo in itertools.combinations(cand, r):
            c = float(sum(costs[list(combo)]))
            if c > budget:
                continue
            q = quality(combo, m, k)
            if q > best_q + EPS:
                best_set, best_q, best_cost = combo, q, c
    # combinations() of the ascending candidates keeps each subset ascending.
    return Assignment(ctx.task_id, list(best_set),
                      [ctx.worker_at_rank(j, 0) for j in best_set], best_cost, best_q)
