"""Multi-task assignment (Section IV): serial MSQM and MMQM solvers.

MSQM (summation quality, Problem 2) runs the Algorithm-1 greedy globally:
each step commits the (task, slot) pair with the largest Δq/cost over *all*
tasks under a shared budget.  Worker conflicts are the paper's Fig 4
mechanism: when task A claims worker w at slot t, every other task whose
current lowest-cost candidate at slot t was w is bumped to its next-ranked
(2nd-, 3rd-, … nearest) unclaimed worker — the "k-th NN" field of the
Conflicting Table, kept by :class:`ClaimLedger`.

Serial MSQM is the one implementation of Algorithm 1's lines 4–9.  A single
task is its |T| = 1 case: :func:`solve_single_task` adds line 3's
best-single-subtask fallback and is what the single-task Approx and Approx*
entry points run.

Lazy greedy is sound here: a task's marginal gains only decrease as it
executes more slots (submodularity, Lemma 2) and its per-slot costs only
increase (rank bumps), so a cached best-candidate value is always an upper
bound and can be re-validated on pop.

MMQM (minimum quality, Problem 3) keeps tasks in a heap by current quality
and repeatedly lets the weakest task execute its best subtask.  Only the
committing task's key moves (a bump changes costs, not qualities), and a task
with no affordable candidate never gets one back, so it leaves the heap.

Both accept ``use_index=True`` (Approx*: per-task Voronoi tree index) or
``False`` (Approx: :class:`repro.core.greedy.NaiveScorer`, full
recomputation) so the paper's Fig 9(g,h) Approx-vs-Approx* comparison is
reproducible.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, Assignment, Candidate, NaiveScorer
from repro.core.quality import p_vector  # noqa: F401  (perfbench/layertrace.py patches it here)
from repro.core.quality import partial_quality, quality
from repro.core.tree_index import VoronoiTreeIndex

__all__ = [
    "ClaimLedger",
    "MultiResult",
    "solve_msqm_serial",
    "solve_single_task",
    "solve_mmqm",
    "solve_multi_rand",
]


@dataclass
class MultiResult:
    """Aggregate outcome of a multi-task solve.

    ``q_sum``, ``q_min``, ``total_cost`` and ``steps`` (the number of
    executed subtasks) are derived from ``assignments``.  ``commits`` is the
    Logging Table: every ``(task_id, slot)`` claim in commit order.
    """

    assignments: list[Assignment]
    conflicts: int
    commits: list[tuple[int, int]] = field(default_factory=list)
    q_sum: float = field(init=False)
    q_min: float = field(init=False)
    total_cost: float = field(init=False)
    steps: int = field(init=False)

    def __post_init__(self) -> None:
        qs = [a.quality for a in self.assignments]
        self.q_sum = float(sum(qs))
        self.q_min = float(min(qs)) if qs else 0.0
        self.total_cost = float(sum(a.cost for a in self.assignments))
        self.steps = sum(len(a.exec_slots) for a in self.assignments)


class ClaimLedger:
    """The paper's Conflicting Table (Sec IV-A-2), and the plan it records.

    It holds the claimed (worker, slot) pairs and each task's current rank
    per slot; a task's *current worker* at a slot is its candidate at that
    rank (−1, at cost ``inf``, past the ``top_r`` retained candidates).
    ``bumps`` counts rank advances, i.e. worker conflicts.  An index from
    (slot, worker) to the tasks whose current worker it is finds a claim's
    rivals without scanning every task.

    ``plan[i]`` is task ``i``'s claims so far — its executed slots, their
    workers and its summed cost, all in commit order — and ``commits`` is
    every claim's ``(task_id, slot)`` in commit order; :meth:`result` turns
    both into a :class:`MultiResult`.
    """

    def __init__(self, ctxs: list[TaskContext]):
        self.ctxs = ctxs
        self.ranks = np.zeros((len(ctxs), ctxs[0].m if ctxs else 0), dtype=np.int64)
        self.claimed: set[tuple[int, int]] = set()
        self.plan = [Assignment(c.task_id, [], [], 0.0, 0.0) for c in ctxs]
        self.bumps = 0
        self.commits: list[tuple[int, int]] = []
        self._holders: dict[tuple[int, int], set[int]] = {}
        for i, c in enumerate(ctxs):
            first = c.slot_workers[:, 0]
            for slot in np.flatnonzero(first >= 0).tolist():
                self._holders.setdefault((slot, int(first[slot])), set()).add(i)

    def worker(self, i: int, slot: int) -> int:
        return int(self.ctxs[i].slot_workers[slot, self.ranks[i, slot]])

    def cost(self, i: int, slot: int) -> float:
        return float(self.ctxs[i].slot_costs[slot, self.ranks[i, slot]])

    def costs(self, i: int) -> np.ndarray:
        """Task ``i``'s current cost per slot (inf past its retained workers)."""
        c = self.ctxs[i]
        return c.slot_costs[np.arange(c.m), self.ranks[i]]

    def bump(self, i: int, slot: int) -> int:
        """Advance task ``i`` at ``slot`` to its next unclaimed rank (the
        paper's k-th-NN bump); returns the new current worker."""
        workers, r = self.ctxs[i].slot_workers[slot], int(self.ranks[i, slot])
        self._holders.get((slot, int(workers[r])), set()).discard(i)
        while True:
            r += 1
            w = int(workers[r])
            if w == -1 or (w, slot) not in self.claimed:
                break
        self.ranks[i, slot] = r
        self.bumps += 1
        if w != -1:
            self._holders.setdefault((slot, w), set()).add(i)
        return w

    def record(self, i: int, slot: int) -> tuple[int, float]:
        """Claim task ``i``'s current worker at ``slot`` and add the subtask
        to its plan, without bumping rivals; returns (worker, cost)."""
        worker = self.worker(i, slot)
        if (worker, slot) in self.claimed:
            raise ValueError(f"worker {worker} at slot {slot} is already claimed")
        self.claimed.add((worker, slot))
        cost = self.cost(i, slot)
        a = self.plan[i]
        self.commits.append((a.task_id, slot))
        a.exec_slots.append(slot)
        a.workers.append(worker)
        a.cost += cost
        return worker, cost

    def claim(self, i: int, slot: int) -> tuple[int, float, list[int]]:
        """Record task ``i``'s claim and bump every other task whose current
        worker at ``slot`` it took.  Returns (worker, cost, bumped tasks)."""
        worker, cost = self.record(i, slot)
        rivals = sorted(self._holders.get((slot, worker), set()) - {i})
        for t in rivals:
            self.bump(t, slot)
        return worker, cost, rivals

    def result(self, qualities, stats: list[dict] | None = None) -> MultiResult:
        """The plan with task ``i``'s quality ``qualities[i]`` (and a copy of
        ``stats[i]``): each task's slots ascending, its workers aligned."""
        out = []
        for i, (a, q) in enumerate(zip(self.plan, qualities, strict=True)):
            picks = sorted(zip(a.exec_slots, a.workers))
            out.append(Assignment(
                task_id=a.task_id,
                exec_slots=[s for s, _ in picks],
                workers=[w for _, w in picks],
                cost=a.cost,
                quality=float(q),
                stats=dict(stats[i]) if stats else {},
            ))
        return MultiResult(out, self.bumps, self.commits)


def _scorers(ctxs: list[TaskContext], k: int, use_index: bool) -> list:
    scorer = VoronoiTreeIndex if use_index else NaiveScorer
    return [scorer(c.m, k, c.base_costs()) for c in ctxs]


def _commit(
    scorers: list, ledger: ClaimLedger, i: int, slot: int
) -> tuple[float, list[int]]:
    """Task ``i`` claims its current worker at ``slot`` and executes it;
    bumped rivals are repriced.  Returns (cost, bumped tasks)."""
    _, cost, rivals = ledger.claim(i, slot)
    for t in rivals:
        scorers[t].update_cost(slot, ledger.cost(t, slot))
    scorers[i].commit(slot)
    return cost, rivals


def _result(scorers: list, ledger: ClaimLedger) -> MultiResult:
    """The ledger's plan, each task scored, counted and timed by its scorer."""
    return ledger.result(
        [s.q_cur for s in scorers],
        [{**s.counters, "timers": dict(s.timers)} for s in scorers],
    )


def solve_msqm_serial(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    use_index: bool = True,
) -> MultiResult:
    """Serial MSQM: global lazy greedy by Δq_sum/cost with worker conflicts."""
    scorers = _scorers(ctxs, k, use_index)
    ledger = ClaimLedger(ctxs)
    spent = 0.0
    # Lazy-greedy heap of (−cached_h, task_idx, epoch); epoch invalidates.
    epochs = [0] * len(scorers)
    heap: list[tuple[float, int, int]] = []
    cached: list[Candidate | None] = [None] * len(scorers)

    def _push(i: int) -> None:
        cand = scorers[i].best_candidate(budget - spent, t_s)
        cached[i] = cand
        if cand is not None:
            heapq.heappush(heap, (-cand.heuristic, i, epochs[i]))

    for i in range(len(scorers)):
        _push(i)
    while heap:
        neg_h, i, ep = heapq.heappop(heap)
        if ep != epochs[i]:
            continue  # stale entry
        slot = cached[i].slot
        if ledger.cost(i, slot) > budget - spent:
            # Re-evaluate under the tighter remaining budget.
            epochs[i] += 1
            _push(i)
            continue
        cost, rivals = _commit(scorers, ledger, i, slot)
        spent += cost
        epochs[i] += 1
        _push(i)
        # The claim raised the cost of its bumped rivals only, and only at
        # this slot: just their candidates there may now be invalid.
        for j in rivals:
            if cached[j] is not None and cached[j].slot == slot:
                epochs[j] += 1
                _push(j)
    return _result(scorers, ledger)


def solve_mmqm(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    use_index: bool = True,
) -> MultiResult:
    """MMQM: repeatedly improve the minimum-quality task (heap-ordered)."""
    scorers = _scorers(ctxs, k, use_index)
    ledger = ClaimLedger(ctxs)
    spent = 0.0
    heap = [(s.q_cur, i) for i, s in enumerate(scorers)]
    heapq.heapify(heap)
    while heap:
        i = heap[0][1]  # the weakest task that may still act
        cand = scorers[i].best_candidate(budget - spent, t_s)
        if cand is None:
            heapq.heappop(heap)
            continue
        spent += _commit(scorers, ledger, i, cand.slot)[0]
        heapq.heapreplace(heap, (scorers[i].q_cur, i))
    return _result(scorers, ledger)


def solve_multi_rand(
    ctxs: list[TaskContext], budget: float, k: int, *, seed: int = 0
) -> MultiResult:
    """Rand baseline for the multi-task case: random (task, slot) picks with
    nearest-unclaimed-worker assignment until the budget is exhausted.
    Each task is scored once, on its final plan."""
    ledger = ClaimLedger(ctxs)
    g = np.random.default_rng(seed)
    pairs = [
        (i, int(s)) for i, c in enumerate(ctxs) for s in c.assignable_slots()
    ]
    g.shuffle(pairs)
    spent = 0.0
    for i, slot in pairs:
        cost = ledger.cost(i, slot)
        if not np.isfinite(cost) or spent + cost > budget:
            continue
        spent += ledger.claim(i, slot)[1]
    return ledger.result(
        [quality(a.exec_slots, c.m, k) for a, c in zip(ledger.plan, ctxs)]
    )


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


def solve_single_task(
    ctx: TaskContext, budget: float, k: int, *, use_index: bool, t_s: int = 4
) -> Assignment:
    """Algorithm 1 on one task: serial MSQM at |T| = 1 (lines 4–9), then
    line 10 returns the better of that plan and line 3's best single subtask
    T′ — the fallback that gives the (1−1/√e) guarantee of budgeted
    submodular greedy [Krause & Guestrin 2005]."""
    a = solve_msqm_serial([ctx], budget, k, t_s=t_s, use_index=use_index).assignments[0]
    costs = ctx.base_costs()
    best, best_q = _best_single_subtask(ctx.m, k, costs, budget)
    if best is not None and best_q > a.quality + EPS:
        worker = ctx.worker_at_rank(best, 0)
        return Assignment(ctx.task_id, [best], [worker], float(costs[best]), best_q, a.stats)
    return a
