"""Tests for the Voronoi tree index and Approx* (Section III-C)."""
import itertools

import numpy as np
import pytest

from repro.core.assignment import build_task_contexts, average_task_cost
from repro.core.greedy import solve_sqm_approx
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.quality import p_vector, quality_from_p
from repro.core.tree_index import VoronoiTreeIndex, solve_sqm_approx_star
from repro.workloads import Workload, gen_workload


def _index_with(m, k, exec_slots, costs=None):
    costs = np.ones(m) if costs is None else costs
    return VoronoiTreeIndex(m, k, costs, initial_exec=exec_slots)


class TestIndexState:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_p_matches_reference(self, k, seed):
        rng = np.random.default_rng(seed)
        m = 30
        ex = sorted(rng.choice(m, size=6, replace=False).tolist())
        idx = _index_with(m, k, ex)
        np.testing.assert_allclose(idx.p, p_vector(np.array(ex), m, k))
        assert idx.q_cur == pytest.approx(
            quality_from_p(p_vector(np.array(ex), m, k))
        )

    def test_commit_updates_quality(self):
        idx = _index_with(20, 2, [3, 10])
        q0 = idx.q_cur
        idx.commit(15)
        assert idx.q_cur > q0
        assert idx.is_exec[15]

    def test_commit_twice_raises(self):
        idx = _index_with(10, 2, [3])
        with pytest.raises(ValueError):
            idx.commit(3)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_m_below_3_matches_naive(self, m, seed):
        """Below m = 3 Eq 6 gives no bound: Approx* prunes nothing and
        plans as Approx does, single-task and in serial MSQM."""
        wl = gen_workload(n_tasks=4, n_workers=40, m=m, seed=seed)
        ctxs = build_task_contexts(wl)
        executed = 0
        for k, frac in itertools.product((1, 2, 3), (0.6, 1.0)):
            for ctx in ctxs:
                b = frac * average_task_cost([ctx])
                a, s = solve_sqm_approx(ctx, b, k), solve_sqm_approx_star(ctx, b, k)
                assert (s.exec_slots, s.workers) == (a.exec_slots, a.workers)
                assert s.quality == pytest.approx(a.quality, rel=1e-12)
                assert s.stats["candidates_evaluated"] == s.stats["candidates_total"]
                executed += len(s.exec_slots)
            b = frac * average_task_cost(ctxs) * len(ctxs)
            star = solve_msqm_serial(ctxs, b, k)
            naive = solve_msqm_serial(ctxs, b, k, use_index=False)
            assert [(x.exec_slots, x.workers) for x in star.assignments] == [
                (x.exec_slots, x.workers) for x in naive.assignments
            ]
            assert star.conflicts == naive.conflicts
            assert star.q_sum == pytest.approx(naive.q_sum, rel=1e-12)
            executed += star.steps
        assert executed > 0

    @pytest.mark.parametrize(
        "seed,n_exec",
        [pytest.param(seed, 7, id=str(seed)) for seed in range(5)]
        # Fewer executed slots than k = 3: missing neighbours sit at distance
        # m, so windows span the whole timeline and rows differ in width.
        + [pytest.param(0, n, id=f"exec{n}") for n in (0, 1, 2)],
    )
    def test_exact_heuristic_matches_full_recompute(self, seed, n_exec):
        """Locality-based Δq must equal the full q(T∪{x}) − q(T) recompute,
        for every unexecuted slot evaluated in one batch."""
        rng = np.random.default_rng(seed)
        m, k = 40, 3
        ex = sorted(rng.choice(m, size=n_exec, replace=False).tolist())
        costs = rng.uniform(1, 10, m)
        idx = _index_with(m, k, ex, costs)
        q0 = quality_from_p(p_vector(np.array(ex, dtype=np.int64), m, k))
        xs = np.array([x for x in range(m) if x not in ex])
        hs, gains = idx.exact_heuristic(xs)
        assert len(hs) == len(gains) == len(xs)
        for x, h, gain in zip(xs, hs, gains):
            q1 = quality_from_p(p_vector(np.array(sorted(ex + [x])), m, k))
            assert gain == pytest.approx(q1 - q0, abs=1e-9)
            assert h == pytest.approx((q1 - q0) / costs[x], abs=1e-9)
        assert idx.h_valid[xs].all()


def _nodes(idx):
    """(node, l, r) for every node of the search's fixed tree."""
    tree = idx._tree
    return [(i, tree.l[i], tree.r[i]) for i in range(2 * idx.m - 1)]


class TestUpperBounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_node_ub_dominates_exact(self, seed):
        """Eq-6-derived node bounds must upper-bound every exact heuristic
        inside the node — soundness of best-first pruning — on every node
        of the tree, the only ranges the search bounds."""
        rng = np.random.default_rng(seed + 3)
        m, k = 32, 2
        ex = sorted(rng.choice(m, size=5, replace=False).tolist())
        costs = rng.uniform(1, 5, m)
        idx = _index_with(m, k, ex, costs)
        xs = np.array([x for x in range(m) if x not in ex])
        h = dict(zip(xs.tolist(), idx.exact_heuristic(xs)[0].tolist()))
        for node, l, r in _nodes(idx):
            ub = idx._ub[node]
            for x in range(l, r + 1):
                if x in h:
                    assert ub >= h[x] - 1e-9, (l, r, x, ub, h[x])

    @pytest.mark.parametrize("seed", range(4))
    def test_node_ub_after_update_cost_matches_fresh_index(self, seed):
        """``update_cost`` leaves the bounds and minimum costs a fresh index
        with the new costs and the same executed slots would compute."""
        rng = np.random.default_rng(seed + 31)
        m, k = 48, 3
        ex = sorted(rng.choice(m, size=4, replace=False).tolist())
        costs = rng.uniform(1, 5, m)
        idx = _index_with(m, k, ex, costs)
        for x in rng.choice(np.setdiff1d(np.arange(m), ex), size=2, replace=False):
            idx.commit(int(x))
        for slot in rng.choice(m, size=6, replace=False):
            costs[slot] = rng.uniform(0.1, 8)  # below and above the rest
            idx.update_cost(int(slot), float(costs[slot]))
        fresh = _index_with(m, k, idx.exec_sorted.tolist(), costs)
        for node, l, r in _nodes(idx):
            assert idx._ub[node] == fresh._ub[node], (l, r)
            assert idx._den[node] == fresh._den[node], (l, r)

    def test_tree_splits_at_midpoints(self):
        """The node skeleton is the search's recursion: every internal node
        splits at (l + r) // 2, and slot y's single-slot node is m − 1 + y."""
        for m in (1, 2, 3, 7, 50):
            tree = _index_with(m, 1, [])._tree
            assert (tree.l[0], tree.r[0]) == (0, m - 1)
            for i in range(m - 1):
                mid = (tree.l[i] + tree.r[i]) // 2
                lc, rc = tree.left[i], tree.right[i]
                assert (tree.l[lc], tree.r[lc]) == (tree.l[i], mid)
                assert (tree.l[rc], tree.r[rc]) == (mid + 1, tree.r[i])
                assert tree.parent[lc] == tree.parent[rc] == i
            for y in range(m):
                assert tree.l[m - 1 + y] == tree.r[m - 1 + y] == y

    @pytest.mark.parametrize("seed", range(5))
    def test_window_superset_of_affected(self, seed):
        """The binary-search window must contain every slot whose k-NN set
        changes when a slot inside the segment is executed."""
        rng = np.random.default_rng(seed + 11)
        m, k = 40, 2
        ex = sorted(rng.choice(m, size=6, replace=False).tolist())
        idx = _index_with(m, k, ex)
        for x in range(m):
            if idx.is_exec[x]:
                continue
            lo, hi = idx._window(x, x)
            p_before = p_vector(np.array(ex), m, k)
            p_after = p_vector(np.array(sorted(ex + [x])), m, k)
            changed = np.nonzero(~np.isclose(p_before, p_after))[0]
            assert all(lo <= c <= hi for c in changed)


def _search_state(idx):
    """Every array the search reads, as bytes (bit-for-bit comparison)."""
    arrays = {
        "p": idx.p, "g_p": idx.g_p, "dk": idx.dk,
        "D_sum_unexec": idx.D_sum[~idx.is_exec], "knn": np.array(idx._knn),
        "M": idx.M, "N": idx.N, "win_lo": idx._lo, "win_hi": idx._hi,
        "prefix": idx._prefix, "node_min_cost": idx._den,
        "node_gain": idx._gain, "node_ub": np.array(idx._ub),
        "q_cur": np.array(idx.q_cur),
    }
    return {name: a.tobytes() for name, a in arrays.items()}


class TestIncrementalState:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ["random", "evenly_spaced"])
    def test_matches_fresh_index_after_every_call(self, k, seed, order):
        """``commit`` and ``update_cost`` keep the state a fresh index on the
        same executed slots and costs computes.  Evenly spaced executions
        put slots at equal distance from two executed neighbours (k-NN
        ties)."""
        rng = np.random.default_rng(100 * k + seed)
        m = int(rng.integers(3, 65))
        costs = rng.uniform(0.5, 5, m)
        costs[rng.random(m) < 0.1] = np.inf  # slots without workers
        if order == "random":
            slots = rng.permutation(m).tolist()
        else:
            step = int(rng.integers(2, 6))
            slots = list(range(0, m, step)) + list(range(step // 2, m, step))
            slots += [x for x in range(m) if x not in slots]
        idx = VoronoiTreeIndex(m, k, costs)

        def check():
            fresh = VoronoiTreeIndex(m, k, costs, initial_exec=idx.exec_sorted.tolist())
            assert _search_state(idx) == _search_state(fresh)

        for x in slots[: int(rng.integers(m // 2, m + 1))]:
            if rng.random() < 0.5:
                y = int(rng.integers(m))
                costs[y] = np.inf if rng.random() < 0.1 else rng.uniform(0.5, 5)
                idx.update_cost(y, float(costs[y]))
                check()
            idx.commit(x)
            check()


class TestBestCandidate:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("t_s", [2, 4, 8])
    def test_matches_exhaustive_argmax(self, seed, t_s):
        rng = np.random.default_rng(seed + 21)
        m, k = 36, 2
        ex = sorted(rng.choice(m, size=5, replace=False).tolist())
        costs = rng.uniform(1, 8, m)
        idx = _index_with(m, k, ex, costs)
        cand = idx.best_candidate(np.inf, t_s)
        # Exhaustive argmax on a fresh index (no cache interference).
        ref = _index_with(m, k, ex, costs)
        best_h = -np.inf
        for x in range(m):
            if ref.is_exec[x]:
                continue
            h = ref.exact_heuristic(np.array([x]))[0][0]
            best_h = max(best_h, h)
        assert cand.heuristic == pytest.approx(best_h, rel=1e-9)

    @pytest.mark.parametrize("t_s", [2, 20])
    @pytest.mark.parametrize("ex", [[], [0, 19], [4, 15]])
    def test_ties_go_to_lowest_slot(self, t_s, ex):
        """Mirror-symmetric instances tie pairwise; as in Approx, the lowest
        slot within EPS wins, inside one leaf (t_s = m) and across leaves."""
        m = 20
        cand = _index_with(m, 2, ex).best_candidate(np.inf, t_s)
        ref = _index_with(m, 2, ex)
        xs = np.array([x for x in range(m) if x not in ex])
        hs, _ = ref.exact_heuristic(xs)
        assert cand.slot == int(xs[np.flatnonzero(hs >= hs.max() - 1e-12)[0]])
        assert cand.slot < m - 1 - cand.slot

    def test_no_affordable_candidates_returns_none(self):
        idx = _index_with(10, 2, [4], costs=np.full(10, 100.0))
        assert idx.best_candidate(1.0, 4) is None

    def test_budget_excludes_expensive_slots(self):
        costs = np.ones(12)
        costs[5] = 50.0
        idx = _index_with(12, 2, [0], costs)
        cand = idx.best_candidate(10.0, 4)
        assert cand.slot != 5

    def test_update_cost_invalidates_cache(self):
        idx = _index_with(16, 2, [2, 9], costs=np.ones(16))
        first = idx.best_candidate(np.inf, 4)
        idx.update_cost(first.slot, 1000.0)
        second = idx.best_candidate(np.inf, 4)
        assert second.slot != first.slot or second.heuristic < first.heuristic


EQUIVALENCE_CASES = [
    pytest.param(dist, seed, 150, 24, 2, 0.3, id=f"{dist}-{seed}")
    for dist in ("uniform", "gaussian", "zipf")
    for seed in range(6)
] + [
    # The budget affords single subtasks only, so the line-3 fallback
    # decides; mirror slots 29 and 30 tie to within one ulp.
    pytest.param("gaussian", 3, 300, 60, 3, 0.005, id="gaussian-3-fallback-tie"),
    pytest.param("gaussian", 1, 600, 120, 3, 0.25, id="gaussian-1-m120"),
]


class TestApproxStarSolver:
    @pytest.mark.parametrize("dist,seed,n_workers,m,k,frac", EQUIVALENCE_CASES)
    def test_equivalent_to_naive_approx(self, dist, seed, n_workers, m, k, frac):
        """Approx* must deliver the same greedy plan and quality as the
        no-index Algorithm 1."""
        wl = gen_workload(n_tasks=1, n_workers=n_workers, m=m, dist=dist,
                          seed=seed)
        ctx = build_task_contexts(wl)[0]
        b = frac * average_task_cost([ctx])
        a = solve_sqm_approx(ctx, b, k)
        s = solve_sqm_approx_star(ctx, b, k)
        assert s.quality == pytest.approx(a.quality, rel=1e-9)
        assert s.exec_slots == a.exec_slots
        assert s.cost == pytest.approx(a.cost, rel=1e-9)

    @pytest.mark.parametrize("t_s", [2, 4, 8, 16])
    def test_t_s_does_not_change_result(self, t_s):
        wl = gen_workload(n_tasks=1, n_workers=200, m=30, seed=4)
        ctx = build_task_contexts(wl)[0]
        b = 0.25 * average_task_cost([ctx])
        base = solve_sqm_approx_star(ctx, b, 3, t_s=4)
        other = solve_sqm_approx_star(ctx, b, 3, t_s=t_s)
        assert other.quality == pytest.approx(base.quality, rel=1e-9)

    def test_budget_respected(self):
        wl = gen_workload(n_tasks=1, n_workers=200, m=40, seed=5)
        ctx = build_task_contexts(wl)[0]
        b = 0.2 * average_task_cost([ctx])
        s = solve_sqm_approx_star(ctx, b, 3)
        assert s.cost <= b + 1e-9

    def test_pruning_stats_populated(self):
        wl = gen_workload(n_tasks=1, n_workers=300, m=60, seed=6)
        ctx = build_task_contexts(wl)[0]
        b = 0.25 * average_task_cost([ctx])
        s = solve_sqm_approx_star(ctx, b, 3)
        assert 0.0 <= s.stats["pruned_frac"] <= 1.0
        assert s.stats["candidates_evaluated"] > 0
        assert s.stats["steps"] == len(s.exec_slots) or s.stats["steps"] >= 1

    @pytest.mark.parametrize("drop_workers", [False, True],
                             ids=["zero-budget", "no-workers"])
    def test_nothing_affordable_prunes_nothing(self, drop_workers):
        """With no affordable candidate nothing is considered, so the
        pruned share is 0, not 1 (perfbench's ``pruned_share`` rule)."""
        wl = gen_workload(n_tasks=1, n_workers=200, m=30, seed=5)
        if drop_workers:
            wl = Workload(wl.tasks, wl.workers.iloc[:0], wl.m, wl.domain)
        ctx = build_task_contexts(wl)[0]
        s = solve_sqm_approx_star(ctx, 1e9 if drop_workers else 0.0, 3)
        assert (s.exec_slots, s.stats["candidates_total"]) == ([], 0)
        assert s.stats["pruned_frac"] == 0.0

    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            (dict(n_workers=300, m=60, seed=6), (563, 1237, 294, 18775, 27)),
            (dict(n_workers=1000, m=200, seed=0), (2662, 13711, 3071, 193742, 89)),
            (dict(n_workers=600, m=120, seed=1, dist="gaussian"),
             (1383, 4632, 810, 71664, 49)),
        ],
        ids=["m60", "m200", "gaussian-m120"],
    )
    def test_search_counters_pinned(self, kwargs, expected):
        """The search visits the same nodes and evaluates the same
        candidates as the one-candidate-at-a-time evaluation did (the
        counters behind Fig 8(c)/8(d))."""
        ctx = build_task_contexts(gen_workload(n_tasks=1, **kwargs))[0]
        s = solve_sqm_approx_star(ctx, 0.25 * average_task_cost([ctx]), 3)
        keys = ("candidates_evaluated", "candidates_total", "nodes_expanded",
                "interp_ops", "steps")
        assert tuple(s.stats[k] for k in keys) == expected

    def test_larger_m_prunes_more(self):
        """The paper's Fig 8(d) shape: pruning ratio grows with m."""
        fracs = []
        for m in (40, 120):
            wl = gen_workload(n_tasks=1, n_workers=400, m=m, seed=7)
            ctx = build_task_contexts(wl)[0]
            b = 0.25 * average_task_cost([ctx])
            fracs.append(solve_sqm_approx_star(ctx, b, 3).stats["pruned_frac"])
        assert fracs[1] > fracs[0]
