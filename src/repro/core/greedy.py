"""Single-task assignment solvers (Section III): Approx, OPT, Rand.

``solve_greedy`` is Algorithm 1, the one greedy driver.  It finds each
step's argmax through a *scorer*: :class:`NaiveScorer` *fully* recomputes
the quality of ``T_cur ∪ {x}`` for every candidate slot ``x`` (no k-NN
reuse, no pruning) — the paper's O(m³ log m) baseline, ``solve_sqm_approx``
— and :class:`repro.core.tree_index.VoronoiTreeIndex` is ``Approx*``.  The
multi-task solvers of :mod:`repro.core.multi_greedy` drive the same two
scorers.

``solve_sqm_opt`` enumerates every budget-feasible slot subset (small m only).
``solve_sqm_rand`` randomly executes assignable subtasks with their nearest
worker until the budget is exhausted (the paper's Rand baseline).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.quality import partial_quality, quality

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


def _nearest_worker_plan(
    ctx: TaskContext, exec_slots, cost: float, q: float, stats: dict | None = None
) -> Assignment:
    """A single-task plan: the slots ascending, each with its nearest worker."""
    slots = sorted(exec_slots)
    return Assignment(
        task_id=ctx.task_id,
        exec_slots=slots,
        workers=[ctx.worker_at_rank(j, 0) for j in slots],
        cost=cost,
        quality=q,
        stats=stats or {},
    )


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
    ``commit``, ``update_cost``, ``q_cur``, ``counters``).
    """

    def __init__(self, m: int, k: int, costs: np.ndarray):
        self.m, self.k = m, k
        self.costs = np.asarray(costs, dtype=np.float64).copy()
        self.exec_slots: list[int] = []
        self.q_cur = 0.0
        self.counters = {"candidates_evaluated": 0, "interp_ops": 0, "steps": 0}

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


def _best_single_subtask(
    m: int, k: int, costs: np.ndarray, budget: float
) -> tuple[int | None, float]:
    """Algorithm 1 line 3: the affordable single subtask of highest quality.

    With exactly one executed slot x, every other slot y has one real
    neighbour at |y−x| plus (k−1) missing neighbours at distance m, so the
    whole sweep vectorizes to O(m²).  Qualities within ``EPS`` of the best
    tie, and the lowest slot among them wins.
    """
    cand = np.nonzero(np.isfinite(costs) & (costs <= budget))[0]
    if len(cand) == 0:
        return None, -np.inf
    ys = np.arange(m)
    dist = np.abs(ys[None, :] - cand[:, None]).astype(np.float64)
    sums = dist + (k - 1) * m
    p = np.clip((1.0 - sums / (k * m)) / m, 0.0, None)
    gp = partial_quality(p)
    gp[np.arange(len(cand)), cand] = float(partial_quality(1.0 / m))
    q = gp.sum(axis=1)
    i = int(np.flatnonzero(q >= q.max() - EPS)[0])
    return int(cand[i]), float(q[i])


def solve_greedy(
    ctx: TaskContext, scorer, budget: float, *, t_s: int = 0
) -> Assignment:
    """Algorithm 1 over a scorer (:class:`NaiveScorer` or the tree index).

    Line 3 finds the best single subtask T′; lines 4–9 commit the scorer's
    best affordable candidate until none is left; line 10 returns the better
    of T_cur and T′ — the single-subtask fallback that gives the (1−1/√e)
    guarantee of budgeted submodular greedy [Krause & Guestrin 2005].
    """
    costs = ctx.base_costs()
    best_single, best_single_q = _best_single_subtask(ctx.m, scorer.k, costs, budget)
    exec_slots: list[int] = []
    spent = 0.0
    while (cand := scorer.best_candidate(budget - spent, t_s)) is not None:
        exec_slots.append(cand.slot)
        spent += float(costs[cand.slot])
        scorer.commit(cand.slot)
    q_cur = scorer.q_cur if exec_slots else 0.0
    if best_single is not None and best_single_q > q_cur + EPS:
        exec_slots, spent, q_cur = [best_single], float(costs[best_single]), best_single_q
    return _nearest_worker_plan(ctx, exec_slots, float(spent), float(q_cur),
                                dict(scorer.counters))


def solve_sqm_approx(ctx: TaskContext, budget: float, k: int) -> Assignment:
    """Algorithm 1 (Approx): greedy by Δq/cost, no reuse or pruning."""
    return solve_greedy(ctx, NaiveScorer(ctx.m, k, ctx.base_costs()), budget)


def solve_sqm_rand(
    ctx: TaskContext, budget: float, k: int, *, seed: int = 0
) -> Assignment:
    """Rand baseline: random assignable subtasks → nearest worker, to budget."""
    m = ctx.m
    costs = ctx.base_costs()
    cand = np.nonzero(np.isfinite(costs))[0]
    g = np.random.default_rng(seed)
    order = g.permutation(cand)
    exec_slots: list[int] = []
    spent = 0.0
    for x in order:
        if spent + costs[x] <= budget:
            exec_slots.append(int(x))
            spent += float(costs[x])
    return _nearest_worker_plan(ctx, exec_slots, spent, quality(exec_slots, m, k))


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
    return _nearest_worker_plan(ctx, best_set, best_cost, best_q)
