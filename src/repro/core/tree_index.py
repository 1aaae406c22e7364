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
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, Assignment, Candidate, solve_greedy
from repro.core.quality import knn_distances, partial_quality

__all__ = ["VoronoiTreeIndex", "solve_sqm_approx_star"]


def _g(p: np.ndarray | float) -> np.ndarray | float:
    """Entropy contribution −p·log2 p (0 at p ≤ 0)."""
    arr = np.asarray(p, dtype=np.float64)
    out = partial_quality(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


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
        self._refresh()

    # ---------------------------------------------------------------- state
    def _refresh(self) -> None:
        t0 = time.perf_counter()
        m, k = self.m, self.k
        slots = np.arange(m, dtype=np.int64)
        D, IDX = knn_distances(self.exec_sorted, m, k, slots)
        self.D_sum = D.sum(axis=1)
        self.dk = D[:, -1].copy()
        self.IDX = IDX
        p = (1.0 - self.D_sum / (k * m)) / m
        p[self.is_exec] = 1.0 / m
        # Executed slots are never "affected" by a tentative execution.
        self.dk[self.is_exec] = 0.0
        self.p = np.clip(p, 0.0, None)
        self.g_p = _g(self.p)
        s_km1 = self.D_sum - D[:, -1]
        rho_lb = (s_km1 + 1.0) / (k * m)
        pub = np.clip((1.0 - rho_lb) / m, 0.0, 1.0 / m)
        pub[self.is_exec] = 1.0 / m
        diff = np.clip(_g(pub) - self.g_p, 0.0, None)
        diff[self.is_exec] = 0.0
        self.prefix_diff = np.concatenate([[0.0], np.cumsum(diff)])
        self.M = np.maximum.accumulate(slots + self.dk)
        self.N = np.minimum.accumulate((slots - self.dk)[::-1])[::-1]
        self.q_cur = float(self.g_p.sum())
        self._build_rmq()
        self.timers["refresh"] += time.perf_counter() - t0

    def _build_rmq(self) -> None:
        """Sparse tables for range-min of g_p and of costs."""
        m = self.m
        levels = max(1, m.bit_length())
        self._rmq_gp = [self.g_p.copy()]
        self._rmq_cost = [self.costs.copy()]
        for lvl in range(1, levels):
            half = 1 << (lvl - 1)
            prev_g, prev_c = self._rmq_gp[-1], self._rmq_cost[-1]
            if half >= len(prev_g):
                break
            self._rmq_gp.append(np.minimum(prev_g[:-half], prev_g[half:]))
            self._rmq_cost.append(np.minimum(prev_c[:-half], prev_c[half:]))

    def _range_min(self, table: list[np.ndarray], l: int, r: int) -> float:
        span = r - l + 1
        lvl = span.bit_length() - 1
        lvl = min(lvl, len(table) - 1)
        half = 1 << lvl
        return float(min(table[lvl][l], table[lvl][r - half + 1]))

    def update_cost(self, slot: int, new_cost: float) -> None:
        """Rank-bumped travel cost for ``slot`` (multi-task conflicts)."""
        self.costs[slot] = new_cost
        self.h_valid[slot] = False
        self._build_rmq()

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
        lo = int(np.searchsorted(self.M, l, side="right"))
        hi = int(np.searchsorted(self.N, r, side="left")) - 1
        return min(lo, l), max(hi, r)

    # ------------------------------------------------------------- bounds
    def _node_ub(self, l: int, r: int, rem_budget: float) -> float:
        min_cost = self._range_min(self._rmq_cost, l, r)
        if not np.isfinite(min_cost) or min_cost > rem_budget:
            return -np.inf
        own = _g(1.0 / self.m) - self._range_min(self._rmq_gp, l, r)
        lo, hi = self._window(l, r)
        nb = float(self.prefix_diff[hi + 1] - self.prefix_diff[lo])
        gain = max(0.0, own) + nb
        return gain / max(min_cost, EPS)

    # --------------------------------------------------------------- exact
    def exact_heuristic(self, x: int) -> Candidate:
        """Exact Δq/cost of tentatively executing ``x`` (affected-region only)."""
        t0 = time.perf_counter()
        m, k = self.m, self.k
        lo, hi = self._window(x, x)
        ys = np.arange(lo, hi + 1)
        d = np.abs(ys - x).astype(np.float64)
        mask = (~self.is_exec[ys]) & (ys != x) & (d < self.dk[ys])
        ys, d = ys[mask], d[mask]
        new_sum = self.D_sum[ys] - self.dk[ys] + d
        new_p = np.clip((1.0 - new_sum / (k * m)) / m, 0.0, None)
        gain = float((_g(new_p) - self.g_p[ys]).sum())
        gain += _g(1.0 / m) - float(self.g_p[x])
        self.counters["interp_ops"] += hi - lo + 1
        self.timers["interp"] += time.perf_counter() - t0
        h = gain / float(self.costs[x])
        self.h_valid[x] = True
        self.h_last[x] = h
        self.gain_last[x] = gain
        self.win_lo[x], self.win_hi[x] = lo, hi
        return Candidate(slot=x, heuristic=h, gain=gain)

    def _same_knn_endpoints(self, l: int, r: int) -> bool:
        """Stopping condition 1: knn(l) == knn(r) ⇒ whole segment is one
        order-k Voronoi cell (Lemma 8)."""
        return set(self.IDX[l].tolist()) == set(self.IDX[r].tolist())

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
        # (the paper's "otherwise, the entire subtree is skipped").
        stale_ps = np.concatenate(
            [[0], np.cumsum(afford & ~self.h_valid)]
        )

        def _has_stale(l: int, r: int) -> bool:
            return stale_ps[r + 1] > stale_ps[l]

        heap: list[tuple[float, int, int, int]] = []
        tie = 0
        root_ub = self._node_ub(0, m - 1, rem_budget)
        if (
            np.isfinite(root_ub)
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
                for x in range(l, r + 1):
                    if not afford[x]:
                        continue
                    if self.h_valid[x]:
                        continue  # already counted via the cached seed
                    cand = self.exact_heuristic(x)
                    self.counters["candidates_evaluated"] += 1
                    if (
                        best is None
                        or cand.heuristic > best.heuristic + EPS
                        or (
                            abs(cand.heuristic - best.heuristic) <= EPS
                            and cand.slot < best.slot
                        )
                    ):
                        best = cand
                t0 = time.perf_counter()
            else:
                mid = (l + r) // 2
                for cl, cr in ((l, mid), (mid + 1, r)):
                    if not _has_stale(cl, cr):
                        continue
                    ub_c = self._node_ub(cl, cr, rem_budget)
                    if np.isfinite(ub_c) and (
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
