"""Approx*: tree-structured approximated order-k Voronoi index (Sec III-C).

The index accelerates Algorithm 1's inner argmax in two ways, exactly as the
paper describes:

1. **k-NN reuse (Voronoi locality).**  Current k-NN state is maintained for
   every slot (distances ``D``, neighbour identities ``IDX``, finishing
   probabilities ``p``).  The *affected region* of a tentative execution at
   slot ``x`` is ``{y : |y − x| < d_k(y)}`` — the slots whose order-k Voronoi
   cell changes — so an exact heuristic evaluation touches only that region
   instead of all ``m`` slots.

2. **Best-first search with upper-bound pruning.**  The timeline is split
   recursively into segments (the aggregated binary tree).  Each node's
   heuristic value is upper-bounded via Eq 6: an unexecuted slot's error
   ratio after any insertion in the node is at least
   ``(Σ_{S_(k−1)NN} d + 1)/(k·m)``, and since ``−p·log2 p`` is increasing on
   ``[0, 1/m]`` (m ≥ 3), that ρ lower bound yields a sound quality upper
   bound.  Nodes are popped best-first from a heap; a node splits until its
   endpoints share the same k-NN set (stopping condition 1, justified by
   Lemma 8) or its segment length drops below ``t_s`` (condition 2); leaf
   candidates are evaluated exactly; nodes whose bound cannot beat the best
   exact value found are pruned.

Affected-region bounds use two monotone arrays: ``M(y) = max_{y'≤y} (y'+d_k)``
and ``N(y) = min_{y'≥y} (y'−d_k)``, both nondecreasing, so the superset window
of any segment's influence is found by binary search.

A leaf's stale candidates are evaluated together, in one vectorized pass over
their affected windows.  The per-node bound lookups are scalar, so the state
they read (``M``, ``N``, the bound prefix sums and the range-min sparse
tables) is also kept as Python lists.
"""
from __future__ import annotations

import bisect
import heapq
import math
import time

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, Assignment, Candidate, solve_greedy
from repro.core.quality import knn_distances, partial_quality

__all__ = ["VoronoiTreeIndex", "solve_sqm_approx_star"]


def _sparse_table(values: np.ndarray) -> list[list[float]]:
    """Range-min sparse table: level ``j`` holds ``min(values[i : i + 2**j])``."""
    table = [values]
    while 2 * (half := 1 << (len(table) - 1)) <= len(values):
        prev = table[-1]
        table.append(np.minimum(prev[:-half], prev[half:]))
    return [level.tolist() for level in table]


def _range_min(table: list[list[float]], l: int, r: int) -> float:
    lvl = (r - l + 1).bit_length() - 1
    row = table[lvl]
    return min(row[l], row[r - (1 << lvl) + 1])


class VoronoiTreeIndex:
    """Incremental k-NN state + best-first pruned argmax for one task.

    The Approx* scorer of :func:`repro.core.greedy.solve_greedy`.
    ``costs`` may be updated between steps (multi-task rank bumps) via
    :meth:`update_cost`; k-NN state refreshes on :meth:`commit`.
    """

    def __init__(
        self, m: int, k: int, costs: np.ndarray, *, initial_exec=()
    ):
        if m < 3:
            raise ValueError("tree index requires m >= 3 (entropy monotonicity)")
        self.m, self.k = m, k
        self.costs = np.asarray(costs, dtype=np.float64).copy()
        self.exec_sorted = np.sort(np.asarray(list(initial_exec), dtype=np.int64))
        self.is_exec = np.zeros(m, dtype=bool)
        self.is_exec[self.exec_sorted] = True
        self.q_cur = 0.0
        # g(1/m) = −(1/m)·log2(1/m): an executed slot's entropy contribution.
        self.g_exec = float(-(1.0 / m) * np.log2(1.0 / m))
        self.timers = {"index": 0.0, "interp": 0.0, "refresh": 0.0}
        self.counters = {
            "candidates_evaluated": 0,
            "candidates_total": 0,
            "nodes_expanded": 0,
            "interp_ops": 0,
            "steps": 0,
        }
        # Cross-step reuse (the paper's incremental tree maintenance): exact
        # heuristic values survive commits whose affected window does not
        # overlap the window they were computed over.
        self.h_valid = np.zeros(m, dtype=bool)
        self.h_last = np.full(m, -np.inf)
        self.gain_last = np.zeros(m)
        self.win_lo = np.zeros(m, dtype=np.int64)
        self.win_hi = np.zeros(m, dtype=np.int64)
        self._rmq_cost = _sparse_table(self.costs)
        self._refresh()

    # ---------------------------------------------------------------- state
    def _refresh(self) -> None:
        t0 = time.perf_counter()
        m, k = self.m, self.k
        slots = np.arange(m, dtype=np.int64)
        D, IDX = knn_distances(self.exec_sorted, m, k, slots)
        self.D_sum = D.sum(axis=1)
        self.dk = D[:, -1].copy()
        # Sorted rows compare equal exactly when the k-NN sets do: every row
        # holds the same number of missing (−1) neighbours.
        self._knn = np.sort(IDX, axis=1).tolist()
        p = (1.0 - self.D_sum / (k * m)) / m
        p[self.is_exec] = 1.0 / m
        # Executed slots are never "affected" by a tentative execution.
        self.dk[self.is_exec] = 0.0
        self.p = np.clip(p, 0.0, None)
        self.g_p = partial_quality(self.p)
        s_km1 = self.D_sum - D[:, -1]
        rho_lb = (s_km1 + 1.0) / (k * m)
        pub = np.clip((1.0 - rho_lb) / m, 0.0, 1.0 / m)
        pub[self.is_exec] = 1.0 / m
        diff = np.clip(partial_quality(pub) - self.g_p, 0.0, None)
        diff[self.is_exec] = 0.0
        self._prefix_diff = [0.0] + np.cumsum(diff).tolist()
        self.M = np.maximum.accumulate(slots + self.dk)
        self.N = np.minimum.accumulate((slots - self.dk)[::-1])[::-1]
        self._M, self._N = self.M.tolist(), self.N.tolist()
        self.q_cur = float(self.g_p.sum())
        self._rmq_gp = _sparse_table(self.g_p)
        self.timers["refresh"] += time.perf_counter() - t0

    def update_cost(self, slot: int, new_cost: float) -> None:
        """Rank-bumped travel cost for ``slot`` (multi-task conflicts)."""
        self.costs[slot] = new_cost
        self.h_valid[slot] = False
        self._rmq_cost = _sparse_table(self.costs)

    def commit(self, slot: int) -> None:
        """Execute ``slot`` and refresh all k-NN state.

        Cached exact heuristics stay valid for every candidate whose
        evaluation window is disjoint from the committed slot's affected
        window (no slot they depend on changed) — the incremental-update
        rule of the paper's aggregated tree.
        """
        if self.is_exec[slot]:
            raise ValueError(f"slot {slot} already executed")
        lo_z, hi_z = self._window(slot, slot)
        self.is_exec[slot] = True
        self.exec_sorted = np.sort(np.append(self.exec_sorted, slot))
        self._refresh()
        stale = (self.win_lo <= hi_z) & (self.win_hi >= lo_z)
        self.h_valid[stale] = False
        self.h_valid[slot] = False
        self.counters["steps"] += 1

    # ------------------------------------------------------------- windows
    def _window(self, l: int, r: int) -> tuple[int, int]:
        """Superset of slots affected by executing any slot in [l, r]."""
        lo = bisect.bisect_right(self._M, l)
        hi = bisect.bisect_left(self._N, r) - 1
        return min(lo, l), max(hi, r)

    # ------------------------------------------------------------- bounds
    def _node_ub(self, l: int, r: int, rem_budget: float) -> float:
        min_cost = _range_min(self._rmq_cost, l, r)
        if not math.isfinite(min_cost) or min_cost > rem_budget:
            return -math.inf
        own = self.g_exec - _range_min(self._rmq_gp, l, r)
        lo, hi = self._window(l, r)
        nb = self._prefix_diff[hi + 1] - self._prefix_diff[lo]
        gain = max(0.0, own) + nb
        return gain / max(min_cost, EPS)

    # --------------------------------------------------------------- exact
    def exact_heuristic(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact Δq/cost and Δq of tentatively executing each slot of ``xs``.

        Each candidate gets one row of ``w`` consecutive slots covering its
        affected window, ``w`` being the widest window; a mask keeps the slots
        whose k-NN set the candidate changes, and one masked row sum gives
        every Δq.
        """
        t0 = time.perf_counter()
        m, k = self.m, self.k
        lo = np.minimum(self.M.searchsorted(xs, side="right"), xs)
        hi = np.maximum(self.N.searchsorted(xs, side="left") - 1, xs)
        span = hi - lo
        w = int(span.max()) + 1
        # Rows start early enough to end inside the timeline.  Slots a row
        # holds outside its own window are unaffected (|y − x| ≥ d_k(y)), and
        # executed slots have d_k = 0, so ``d < dk`` masks both out.
        ys = np.minimum(lo, m - w)[:, None] + np.arange(w)
        d = np.abs(ys - xs[:, None])
        dk = self.dk[ys]
        mask = (d < dk) & (ys != xs[:, None])
        # Under the mask new_sum < D_sum ≤ k·m, so new_p > 0; 1.0 fills the
        # rest to keep log2 finite.
        new_p = np.where(mask, (1.0 - (self.D_sum[ys] - dk + d) / (k * m)) / m, 1.0)
        terms = np.where(mask, -new_p * np.log2(new_p) - self.g_p[ys], 0.0)
        gain = terms.sum(axis=1) + (self.g_exec - self.g_p[xs])
        self.counters["interp_ops"] += int(span.sum()) + len(xs)
        self.timers["interp"] += time.perf_counter() - t0
        h = gain / self.costs[xs]
        self.h_valid[xs] = True
        self.h_last[xs] = h
        self.gain_last[xs] = gain
        self.win_lo[xs], self.win_hi[xs] = lo, hi
        return h, gain

    def _same_knn_endpoints(self, l: int, r: int) -> bool:
        """Stopping condition 1: knn(l) == knn(r) ⇒ whole segment is one
        order-k Voronoi cell (Lemma 8)."""
        return self._knn[l] == self._knn[r]

    # -------------------------------------------------------------- search
    def best_candidate(self, rem_budget: float, t_s: int) -> Candidate | None:
        """Best-first argmax of Δq/cost over affordable unexecuted slots."""
        m = self.m
        afford = (~self.is_exec) & np.isfinite(self.costs) & (self.costs <= rem_budget)
        n_afford = int(afford.sum())
        self.counters["candidates_total"] += n_afford
        if n_afford == 0:
            return None
        t0 = time.perf_counter()
        best: Candidate | None = None
        # Seed θ with still-valid exact heuristics from earlier steps —
        # candidates untouched by recent commits need no re-evaluation.
        cached = afford & self.h_valid
        if cached.any():
            hs = np.where(cached, self.h_last, -np.inf)
            h_max = float(hs.max())
            near = np.nonzero(hs >= h_max - EPS)[0]
            x0 = int(near.min())
            best = Candidate(slot=x0, heuristic=float(self.h_last[x0]),
                             gain=float(self.gain_last[x0]))
        # Subtrees holding no stale affordable candidate are skipped outright
        # (the paper's "otherwise, the entire subtree is skipped"), so every
        # node on the heap holds at least one.
        stale = afford & ~self.h_valid
        stale_ps = [0] + np.cumsum(stale).tolist()

        def _has_stale(l: int, r: int) -> bool:
            return stale_ps[r + 1] > stale_ps[l]

        heap: list[tuple[float, int, int, int]] = []
        tie = 0
        root_ub = self._node_ub(0, m - 1, rem_budget)
        if (
            math.isfinite(root_ub)
            and _has_stale(0, m - 1)
            and (best is None or root_ub >= best.heuristic - EPS)
        ):
            heapq.heappush(heap, (-root_ub, tie, 0, m - 1))
        while heap:
            neg_ub, _, l, r = heapq.heappop(heap)
            ub = -neg_ub
            if best is not None and ub < best.heuristic - EPS:
                break  # heap is UB-ordered: nothing below can win
            self.counters["nodes_expanded"] += 1
            is_leaf = (r - l + 1) <= t_s or self._same_knn_endpoints(l, r)
            if is_leaf:
                self.timers["index"] += time.perf_counter() - t0
                xs = l + np.flatnonzero(stale[l : r + 1])
                hs, gains = self.exact_heuristic(xs)
                self.counters["candidates_evaluated"] += len(xs)
                # Slot order, as a sequential scan: within EPS the lower slot wins.
                for x, h, gain in zip(xs.tolist(), hs.tolist(), gains.tolist()):
                    if (
                        best is None
                        or h > best.heuristic + EPS
                        or (abs(h - best.heuristic) <= EPS and x < best.slot)
                    ):
                        best = Candidate(slot=x, heuristic=h, gain=gain)
                t0 = time.perf_counter()
            else:
                mid = (l + r) // 2
                for cl, cr in ((l, mid), (mid + 1, r)):
                    if not _has_stale(cl, cr):
                        continue
                    ub_c = self._node_ub(cl, cr, rem_budget)
                    if math.isfinite(ub_c) and (
                        best is None or ub_c >= best.heuristic - EPS
                    ):
                        tie += 1
                        heapq.heappush(heap, (-ub_c, tie, cl, cr))
        self.timers["index"] += time.perf_counter() - t0
        return best


def solve_sqm_approx_star(
    ctx: TaskContext, budget: float, k: int, *, t_s: int = 4
) -> Assignment:
    """Approx*: Algorithm 1 driven by the Voronoi tree index."""
    idx = VoronoiTreeIndex(ctx.m, k, ctx.base_costs())
    a = solve_greedy(ctx, idx, budget, t_s=t_s)
    a.stats["timers"] = dict(idx.timers)
    total = max(1, a.stats["candidates_total"])
    a.stats["pruned_frac"] = 1.0 - a.stats["candidates_evaluated"] / total
    return a
