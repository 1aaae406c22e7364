"""Approx*: tree-structured approximated order-k Voronoi index (Sec III-C).

The index is a scorer for Algorithm 1's one driver, serial MSQM
(:mod:`repro.core.multi_greedy`); single-task Approx*
(:func:`solve_sqm_approx_star`) is that driver at |T| = 1 plus line 3's
single-subtask fallback.  It accelerates the inner argmax in two ways,
exactly as the paper describes:

1. **k-NN reuse (Voronoi locality).**  Current k-NN state is maintained for
   every slot (distance sums ``D_sum``, k-th distances ``dk``, neighbour
   identities, finishing probabilities ``p``).  The *affected region* of a
   tentative execution at slot ``x`` is ``{y : |y − x| < d_k(y)}`` — the
   slots whose order-k Voronoi cell changes — so an exact heuristic
   evaluation touches only that region instead of all ``m`` slots.

2. **Best-first search with upper-bound pruning.**  The timeline is split
   recursively at ``(l + r) // 2`` into segments (the aggregated binary
   tree).  Each node's heuristic value is upper-bounded via Eq 6: an
   unexecuted slot's error ratio after any insertion in the node is at least
   ``(Σ_{S_(k−1)NN} d + 1)/(k·m)``, and since ``−p·log2 p`` is increasing on
   ``[0, 1/m]`` (m ≥ 3), that ρ lower bound yields a sound quality upper
   bound.  Below m = 3 there is no such bound: every node bound is ``+inf``,
   so nothing is pruned and the search evaluates every candidate exactly.
   Nodes are popped best-first from a heap; a node splits until its
   endpoints share the same k-NN set (stopping condition 1, justified by
   Lemma 8) or its segment length drops below ``t_s`` (condition 2); leaf
   candidates are evaluated exactly; nodes whose bound cannot beat the best
   exact value found are pruned.

Affected-region bounds use two monotone arrays: ``M(y) = max_{y'≤y} (y'+d_k)``
and ``N(y) = min_{y'≥y} (y'−d_k)``, both nondecreasing, so the superset window
of any segment's influence is found by binary search.

The tree is real per-node state.  Its skeleton (node ranges, children,
parents) depends only on ``m`` and is built once per ``m``.  Each node holds
its minimum cost and its bound; a commit recomputes every node's bound in one
vectorized pass, and a rank bump (:meth:`VoronoiTreeIndex.update_cost`)
updates the minimum cost and bound on one leaf-to-root path.

A commit changes the k-NN state only inside the committed slot's affected
window, so it recomputes that window alone (plus the rows of the executed
neighbours whose k-NN sets now include the new slot), then ``M``, ``N``, the
Eq-6 prefix sums and the node bounds, each in one whole-array pass.
Construction runs the same refresh over the whole timeline.

A leaf's stale candidates are evaluated together, in one vectorized pass over
their affected windows.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, Assignment, Candidate
from repro.core.quality import knn_distances, partial_quality

__all__ = ["VoronoiTreeIndex", "solve_sqm_approx_star"]


@dataclass(frozen=True)
class _Tree:
    """The search's node skeleton over ``m`` slots.

    Node ``i`` covers slots ``l[i]..r[i]``.  The ``m − 1`` internal nodes
    come first, breadth first from the root (node 0); the single-slot node of
    slot ``y`` is ``m − 1 + y``.  An internal node splits at
    ``mid = (l + r) // 2`` into ``left[i]`` (``l..mid``) and ``right[i]``
    (``mid+1..r``).  ``reduce_at`` interleaves the internal nodes' ``l`` and
    ``r + 1``, so every other entry of a ``ufunc.reduceat`` over a
    length-``m + 1`` array reduces one internal node's slots.
    """

    l: list[int]
    r: list[int]
    left: list[int]
    right: list[int]
    parent: list[int]
    l_arr: np.ndarray
    r_arr: np.ndarray
    reduce_at: np.ndarray


@functools.cache
def _tree(m: int) -> _Tree:
    n = 2 * m - 1
    l, r = [0] * n, [m - 1] * n
    left, right, parent = [-1] * n, [-1] * n, [-1] * n
    l[m - 1 :], r[m - 1 :] = range(m), range(m)
    n_internal = 1
    for i in range(m - 1):  # breadth first: children are numbered on sight
        mid = (l[i] + r[i]) // 2
        for side, (a, b) in ((left, (l[i], mid)), (right, (mid + 1, r[i]))):
            if a == b:
                c = m - 1 + a
            else:
                c, n_internal = n_internal, n_internal + 1
                l[c], r[c] = a, b
            side[i], parent[c] = c, i
    l_arr, r_arr = np.array(l), np.array(r)
    reduce_at = np.column_stack((l_arr[: m - 1], r_arr[: m - 1] + 1)).ravel()
    return _Tree(l, r, left, right, parent, l_arr, r_arr, reduce_at)


def _node_min(tree: _Tree, ext: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-node minimum of ``ext[:m]`` (``ext`` has one spare entry)."""
    m = len(ext) - 1
    out[: m - 1] = np.minimum.reduceat(ext, tree.reduce_at)[::2]
    out[m - 1 :] = ext[:m]
    return out


class VoronoiTreeIndex:
    """Incremental k-NN state + best-first pruned argmax for one task.

    The Approx* scorer of :func:`repro.core.multi_greedy.solve_msqm_serial`,
    the one Algorithm-1 driver (single-task Approx* is its |T| = 1 case).
    ``costs`` may be updated between steps (multi-task rank bumps) via
    :meth:`update_cost`; k-NN state refreshes on :meth:`commit`.
    """

    def __init__(
        self, m: int, k: int, costs: np.ndarray, *, initial_exec=()
    ):
        self.m, self.k = m, k
        self._tree = tree = _tree(m)
        # Slot-indexed state, allocated in blocks.  The three rows of m + 1
        # entries: costs and g_p take the first m (the spare one ends the
        # last per-node range of a reduceat, see _Tree.reduce_at), and
        # _prefix[j] is the sum of the Eq-6 terms of slots below j.
        self._cost_ext, self._gp_ext, self._prefix = np.zeros((3, m + 1))
        self.costs, self.g_p = self._cost_ext[:m], self._gp_ext[:m]
        self.costs[:] = costs
        # D_sum, d_k, p, Eq-6 terms, and the cached exact Δq/cost and Δq:
        # cross-step reuse (the paper's incremental tree maintenance) keeps a
        # candidate's exact heuristic valid across commits whose affected
        # window does not overlap the window it was computed over.
        self.D_sum, self.dk, self.p, self._diff, self.h_last, self.gain_last = np.zeros((6, m))
        # Cached windows, and each k-NN set's last executed slot.
        self.win_lo, self.win_hi, self._knn_last = np.zeros((3, m), dtype=np.int64)
        self.is_exec, self.h_valid = np.zeros((2, m), dtype=bool)
        self._slots = np.arange(m)
        # Executed slots in order, then −1s: indexed by knn_distances' −1
        # (missing neighbour), it reads −1.
        exec_sorted = np.sort(np.asarray(list(initial_exec), dtype=np.int64))
        self._exec_buf = np.full(m + 1, -1)
        self._exec_buf[: len(exec_sorted)] = exec_sorted
        self.exec_sorted = self._exec_buf[: len(exec_sorted)]
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
        # Per-node state: max(min cost, EPS), Eq-6 gain bound, heuristic bound.
        self._den, self._gain = np.empty((2, 2 * m - 1))
        np.maximum(_node_min(tree, self._cost_ext, self._den), EPS, out=self._den)
        self._ub: list[float] = []
        self._refresh(0, m - 1, self._slots)

    # ---------------------------------------------------------------- state
    def _refresh(self, lo: int, hi: int, rows: np.ndarray) -> None:
        """Recompute the k-NN state of ``rows`` and the Eq-6 terms of
        ``[lo, hi]``, then everything derived from them.

        ``rows`` must hold every slot whose k-NN set may have changed, and
        ``[lo, hi]`` every slot whose k-NN distances may have changed.
        """
        t0 = time.perf_counter()
        m, k = self.m, self.k
        D, IDX = knn_distances(self.exec_sorted, m, k, rows)
        # An executed slot has no interpolation error: it keeps D_sum = 0
        # (so p = 1/m below) and d_k = 0 (it is never "affected").
        unexec = ~self.is_exec[rows]
        self.D_sum[rows] = D.sum(axis=1) * unexec
        self.dk[rows] = D[:, -1] * unexec
        # A k-NN set is a run of min(|executed|, k) consecutive executed
        # slots, so its last slot (−1 for none) identifies it.
        self._knn_last[rows] = self._exec_buf[IDX].max(axis=1)
        # p (Eq 2, row 0) and its Eq-6 upper bound (row 1) over the window,
        # both within [0, 1/m].  An executed slot's Eq-6 term is 0, since
        # g = −p·log2 p is increasing on [0, 1/m] (below m = 3 the terms go
        # unused).
        win = slice(lo, hi + 1)
        P = np.empty((2, hi + 1 - lo))
        P[0] = self.D_sum[win]
        np.subtract(P[0], self.dk[win], out=P[1])
        P[1] += 1.0
        P /= k * m
        np.subtract(1.0, P, out=P)
        P /= m
        G = partial_quality(P)
        self.p[win] = P[0]
        self.g_p[win] = G[0]
        np.maximum(G[1] - G[0], 0.0, out=self._diff[win])
        self._diff.cumsum(out=self._prefix[1:])
        # M and N in one pass: N reversed and negated is a running max too.
        S = np.empty((2, m))
        np.add(self._slots, self.dk, out=S[0])
        np.subtract(self.dk[::-1], self._slots[::-1], out=S[1])
        np.maximum.accumulate(S, axis=1, out=S)
        self.M, self.N = S[0], -S[1, ::-1]
        # Each slot's affected window (see _window).
        self._lo = np.minimum(self.M.searchsorted(self._slots, side="right"), self._slots)
        self._hi = np.maximum(self.N.searchsorted(self._slots, side="left") - 1, self._slots)
        self._knn = self._knn_last.tolist()
        self.q_cur = float(self.g_p.sum())
        self._node_bounds()
        self.timers["refresh"] += time.perf_counter() - t0

    def _node_bounds(self) -> None:
        """Every node's Eq-6 heuristic bound, in one vectorized pass.

        The gain bound of node ``[l, r]`` is the best own gain,
        ``g(1/m) − min g_p``, plus the Eq-6 terms over the node's window; its
        heuristic bound divides that by the node's minimum cost.  The bound
        ignores the budget: a node the search visits holds an affordable
        slot, so its minimum cost is affordable too.
        """
        tree = self._tree
        gain = _node_min(tree, self._gp_ext, self._gain)
        np.subtract(self.g_exec, gain, out=gain)
        np.maximum(gain, 0.0, out=gain)
        gain += self._prefix[1:][self._hi[tree.r_arr]] - self._prefix[self._lo[tree.l_arr]]
        ub = gain / self._den
        if self.m < 3:  # Eq 6 needs −p·log2 p increasing on [0, 1/m]
            gain[:] = ub[:] = np.inf
        self._ub = ub.tolist()

    def update_cost(self, slot: int, new_cost: float) -> None:
        """Rank-bumped travel cost for ``slot`` (multi-task conflicts).

        Updates the minimum cost and bound of the nodes on the slot's
        leaf-to-root path, stopping at the first whose minimum is unchanged.
        """
        self.costs[slot] = new_cost
        self.h_valid[slot] = False
        tree, den, gain, ub = self._tree, self._den, self._gain, self._ub
        node, d = self.m - 1 + slot, max(float(new_cost), EPS)
        while node >= 0 and d != den[node]:
            den[node] = d
            ub[node] = float(gain[node] / d)
            node = tree.parent[node]
            if node >= 0:
                d = float(min(den[tree.left[node]], den[tree.right[node]]))

    def commit(self, slot: int) -> None:
        """Execute ``slot`` and refresh the k-NN state it changes.

        Cached exact heuristics stay valid for every candidate whose
        evaluation window is disjoint from the committed slot's affected
        window (no slot they depend on changed) — the incremental-update
        rule of the paper's aggregated tree.
        """
        if self.is_exec[slot]:
            raise ValueError(f"slot {slot} already executed")
        lo_z, hi_z = self._window(slot, slot)
        # Slots at distance exactly d_k can swap a tied neighbour for the
        # new slot: their k-NN sets change, their distances do not.
        lo = bisect.bisect_left(self.M, slot)
        hi = bisect.bisect_right(self.N, slot) - 1
        self.is_exec[slot] = True
        n, buf = len(self.exec_sorted), self._exec_buf
        pos = bisect.bisect_left(self.exec_sorted, slot)
        buf[pos + 1 : n + 1] = buf[pos:n]
        buf[pos] = slot
        self.exec_sorted = buf[: n + 1]
        # An executed slot's k-NN set is itself plus its k − 1 nearest
        # executed slots, so the new slot joins the sets of up to k − 1
        # executed neighbours on each side, wherever they are.
        near = self.exec_sorted[max(pos - self.k + 1, 0) : pos + self.k]
        self._refresh(lo, hi, np.concatenate((np.arange(lo, hi + 1), near)))
        stale = (self.win_lo <= hi_z) & (self.win_hi >= lo_z)
        self.h_valid[stale] = False
        self.h_valid[slot] = False
        self.counters["steps"] += 1

    # ------------------------------------------------------------- windows
    def _window(self, l: int, r: int) -> tuple[int, int]:
        """Superset of slots affected by executing any slot in [l, r]."""
        return int(self._lo[l]), int(self._hi[r])

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
        lo, hi = self._lo[xs], self._hi[xs]
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
        floor = -math.inf if best is None else best.heuristic - EPS
        # Subtrees holding no stale affordable candidate are skipped outright
        # (the paper's "otherwise, the entire subtree is skipped"), so every
        # node on the heap holds at least one — and so an affordable slot.
        stale = afford & ~self.h_valid
        stale_ps = [0] + np.cumsum(stale).tolist()
        tree, ub, knn = self._tree, self._ub, self._knn
        L, R, left, right = tree.l, tree.r, tree.left, tree.right
        heap: list[tuple[float, int, int]] = []
        tie = expanded = 0
        if stale_ps[m] and ub[0] >= floor:
            heap.append((-ub[0], tie, 0))
        while heap:
            neg_ub, _, node = heapq.heappop(heap)
            if -neg_ub < floor:
                break  # heap is UB-ordered: nothing below can win
            expanded += 1
            l, r = L[node], R[node]
            if r - l + 1 <= t_s or knn[l] == knn[r]:
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
                        floor = h - EPS
                t0 = time.perf_counter()
            else:
                for child in (left[node], right[node]):
                    if stale_ps[R[child] + 1] > stale_ps[L[child]] and ub[child] >= floor:
                        tie += 1
                        heapq.heappush(heap, (-ub[child], tie, child))
        self.counters["nodes_expanded"] += expanded
        self.timers["index"] += time.perf_counter() - t0
        return best


def solve_sqm_approx_star(
    ctx: TaskContext, budget: float, k: int, *, t_s: int = 4
) -> Assignment:
    """Approx*: Algorithm 1 driven by the Voronoi tree index."""
    # multi_greedy imports this module, so the import is local.
    from repro.core.multi_greedy import solve_single_task

    a = solve_single_task(ctx, budget, k, use_index=True, t_s=t_s)
    # Nothing affordable means nothing was considered, so nothing pruned.
    total = a.stats["candidates_total"]
    a.stats["pruned_frac"] = 1.0 - a.stats["candidates_evaluated"] / total if total else 0.0
    return a
