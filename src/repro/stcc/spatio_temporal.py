"""STCC: spatiotemporal interpolation extension (paper Appendix C).

An unexecuted subtask ``τ_i^(j)`` may be interpolated *temporally* (k-NN
among task i's own executed slots, Eq 3) and *spatially* (k-NN among
subtasks executed at the same slot j by other tasks, Eq 13, normalized by
the spatial domain size — we use the domain diagonal so ρ_s ∈ [0, 1]).
The combined error ratio is the weighted sum ρ = w_s·ρ_s + w_t·ρ_t
(Eq 14, w_s + w_t = 1) and p = (1/m)(1 − ρ) (Eq 15).

``SApprox`` is the same greedy framework over q_sum with the combined
metric.  Fig 11's baselines are the multi-task solvers scored with
:func:`stcc_score`: ``Approx`` (temporal only) is the w_t = 1 special case,
i.e. serial MSQM (:func:`repro.core.multi_greedy.solve_msqm_serial`), and
Rand is :func:`repro.core.multi_greedy.solve_multi_rand`.  The paper's
appendix text says "for Approx, the w_s is set to 1" — given "it does not do
spatial interpolation", that is read as w_t = 1 (an apparent typo).

Missing spatial neighbours pad with the domain diagonal, mirroring
footnote 2's temporal padding with m.
"""
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS
from repro.core.multi_greedy import ClaimLedger, MultiResult
from repro.core.quality import knn_distances, partial_quality

__all__ = [
    "stcc_p_matrix",
    "stcc_quality",
    "stcc_score",
    "solve_stcc_greedy",
    "solve_stcc_opt",
]


def stcc_p_matrix(
    exec_sets: list[set[int]],
    locs: np.ndarray,
    m: int,
    k: int,
    w_s: float,
    w_t: float,
    diag: float,
) -> np.ndarray:
    """Finishing probabilities (|T| × m) under spatiotemporal interpolation."""
    n = len(exec_sets)
    rho_t = np.ones((n, m))
    for i, ex in enumerate(exec_sets):
        e = np.sort(np.asarray(list(ex), dtype=np.int64))
        d, _ = knn_distances(e, m, k, np.arange(m, dtype=np.int64))
        rho_t[i] = d.sum(axis=1) / (k * m)
    # Pairwise task distances, reused across slots.
    dmat = np.hypot(
        locs[:, 0][:, None] - locs[:, 0][None, :],
        locs[:, 1][:, None] - locs[:, 1][None, :],
    )
    rho_s = np.ones((n, m))
    for j in range(m):
        ej = [i for i in range(n) if j in exec_sets[i]]
        if not ej:
            continue
        d = dmat[:, ej].astype(np.float64)  # (n, |ej|)
        d_sorted = np.sort(d, axis=1)[:, :k]
        pad = max(0, k - d_sorted.shape[1])
        sums = d_sorted.sum(axis=1) + pad * diag
        rho_s[:, j] = np.clip(sums / (k * diag), 0.0, 1.0)
    rho = np.clip(w_s * rho_s + w_t * rho_t, 0.0, 1.0)
    p = (1.0 - rho) / m
    for i, ex in enumerate(exec_sets):
        if ex:
            p[i, np.asarray(sorted(ex), dtype=np.int64)] = 1.0 / m
    return np.clip(p, 0.0, None)


def stcc_quality(
    exec_sets: list[set[int]],
    locs: np.ndarray,
    m: int,
    k: int,
    w_s: float,
    w_t: float,
    diag: float,
) -> tuple[np.ndarray, float]:
    """Per-task qualities and their sum under the combined metric."""
    p = stcc_p_matrix(exec_sets, locs, m, k, w_s, w_t, diag)
    q = partial_quality(p).sum(axis=1)
    return q, float(q.sum())


def _geometry(ctxs: list[TaskContext], domain: float):
    """(m, task locations, domain diagonal) of an STCC instance."""
    m = ctxs[0].m if ctxs else 0
    locs = np.array([[c.x, c.y] for c in ctxs]).reshape(-1, 2)
    return m, locs, float(domain * np.sqrt(2))


def stcc_score(
    ctxs: list[TaskContext],
    plan: MultiResult,
    k: int,
    *,
    w_s: float = 0.3,
    w_t: float = 0.7,
    domain: float,
) -> MultiResult:
    """Score a multi-task plan under the combined metric.

    Each assignment keeps its slots, workers and cost, and gets its task's
    STCC quality; ``conflicts`` and ``commits`` are the plan's.
    """
    m, locs, diag = _geometry(ctxs, domain)
    exec_sets = [set(a.exec_slots) for a in plan.assignments]
    q, _ = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
    return MultiResult(
        [replace(a, quality=float(q_i)) for a, q_i in zip(plan.assignments, q)],
        plan.conflicts,
        plan.commits,
    )


def solve_stcc_greedy(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    w_s: float = 0.3,
    w_t: float = 0.7,
    domain: float,
) -> MultiResult:
    """SApprox: greedy Δq_sum/cost with the spatiotemporal metric."""
    n = len(ctxs)
    m, locs, diag = _geometry(ctxs, domain)
    exec_sets: list[set[int]] = [set() for _ in range(n)]
    ledger = ClaimLedger(ctxs, budget)
    _, q_cur = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
    while True:
        best = None  # (h, i, slot, q_new)
        for i in range(n):
            for slot in range(m):
                if slot in exec_sets[i] or not ledger.affordable(i, slot):
                    continue
                exec_sets[i].add(slot)
                _, q_new = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
                exec_sets[i].discard(slot)
                h = (q_new - q_cur) / ledger.cost(i, slot)
                if best is None or h > best[0] + EPS:
                    best = (h, i, slot, q_new)
        if best is None:
            break
        _, i, slot, q_cur = best
        ledger.claim(i, slot)
        exec_sets[i].add(slot)
    return ledger.result(stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)[0])


def _execute(
    ctxs: list[TaskContext], picks: list[tuple[int, int]], budget: float
) -> ClaimLedger | None:
    """Claim the (task, slot) ``picks`` in order; None if one is unaffordable."""
    ledger = ClaimLedger(ctxs, budget)
    for i, slot in picks:
        if not ledger.affordable(i, slot):
            return None
        ledger.claim(i, slot)
    return ledger


def solve_stcc_opt(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    w_s: float = 0.3,
    w_t: float = 0.7,
    domain: float,
) -> MultiResult:
    """Exact STCC optimum: enumerate all budget-feasible (task, slot) subsets.

    Worker contention is resolved in enumeration (sorted-pair) order — at the
    tiny scales this runs at, rank bumps are rare and the simplification does
    not change which plan wins (DESIGN.md §5).  Use only for |T|·m ≤ ~18; the
    subset size is naturally capped by the budget over the cheapest costs.
    """
    n = len(ctxs)
    m, locs, diag = _geometry(ctxs, domain)
    if n * m > 18:
        raise ValueError("solve_stcc_opt is exponential; n*m too large")
    pairs = [
        (i, int(s)) for i in range(n) for s in ctxs[i].assignable_slots()
    ]
    base_costs = np.array([ctxs[i].slot_costs[s, 0] for i, s in pairs])
    # Budget caps the subset size: r items cost at least the r cheapest.
    cheap = np.sort(base_costs)
    max_r = int(np.searchsorted(np.cumsum(cheap), budget, side="right"))
    best, best_q = _execute(ctxs, [], budget), 0.0
    for r in range(1, max_r + 1):
        for combo in itertools.combinations(range(len(pairs)), r):
            if base_costs[list(combo)].sum() > budget * 1.5:
                continue  # cheap reject; exact cost checked below
            ledger = _execute(ctxs, [pairs[ci] for ci in combo], budget)
            if ledger is None:
                continue
            exec_sets = [set(a.exec_slots) for a in ledger.plan]
            _, q_sum = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
            if q_sum > best_q + EPS:
                best, best_q = ledger, q_sum
    exec_sets = [set(a.exec_slots) for a in best.plan]
    return best.result(stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)[0])
