"""Tests for the conflict graph (Fig 4 expansion + components)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import assignment
from repro.core.assignment import build_task_contexts
from repro.sparkpar.conflict_graph import (
    _shared_instances,
    build_groups,
    conflict_edges,
    connected_components,
)
from repro.workloads import DISTRIBUTIONS, Workload, gen_workload


#: Fig 4 expansions recorded from the Spark-joined implementation this
#: driver-side one replaced: (dist, |T|, |W|, m, seed) -> edges as ``a-b``,
#: each task's final bound, and the number of rounds.  That implementation
#: stopped after 8 rounds; uniform-8 reaches its fixpoint (the complete
#: graph) only at round 10, and its values are the fixpoint's.
PINNED = {
    ("uniform", 8, 300, 20, 3): dict(
        rounds=10,
        bounds=[8, 8, 8, 8, 8, 8, 8, 8],
        edges=(
            "0-1 0-2 0-3 0-4 0-5 0-6 0-7 1-2 1-3 1-4 1-5 1-6 1-7 2-3 2-4 2-5 "
            "2-6 2-7 3-4 3-5 3-6 3-7 4-5 4-6 4-7 5-6 5-7 6-7"
        ),
    ),
    ("gaussian", 16, 4000, 50, 0): dict(
        rounds=8,
        bounds=[14, 15, 15, 4, 13, 15, 10, 12, 15, 11, 11, 15, 14, 13, 15, 14],
        edges=(
            "0-1 0-2 0-4 0-5 0-7 0-8 0-9 0-10 0-11 0-12 0-13 0-14 0-15 1-2 1-3 "
            "1-4 1-5 1-7 1-8 1-9 1-10 1-11 1-12 1-13 1-14 1-15 2-4 2-5 2-6 2-7 "
            "2-8 2-9 2-10 2-11 2-12 2-13 2-14 2-15 3-9 3-12 4-5 4-6 4-7 4-8 "
            "4-11 4-12 4-13 4-14 4-15 5-6 5-7 5-8 5-9 5-10 5-11 5-12 5-13 5-14 "
            "5-15 6-7 6-8 6-11 6-13 6-14 6-15 7-8 7-11 7-13 7-14 7-15 8-9 8-10 "
            "8-11 8-12 8-13 8-14 8-15 9-10 9-11 9-12 9-14 10-11 10-12 10-14 "
            "10-15 11-12 11-13 11-14 11-15 12-13 12-14 12-15 13-14 13-15 14-15"
        ),
    ),
    ("uniform", 16, 4000, 50, 1): dict(
        rounds=2,
        bounds=[2, 2, 2, 2, 2, 1, 1, 2, 1, 1, 2, 2, 1, 1, 2, 2],
        edges="0-11 1-14 2-7 3-10 4-15",
    ),
}


def _toy_workload() -> Workload:
    """Fig 4-style scenario: τ2, τ3 share their nearest worker w1, and τ1
    starts alone at its own nearest worker w0.  With only two workers, each
    task's 2-NN is the other one, so the bound expansion pulls τ1 in too."""
    tasks = pd.DataFrame(
        {"task_id": [0, 1, 2],
         "x": [900.0, 100.0, 120.0],
         "y": [900.0, 100.0, 100.0],
         "m": [4, 4, 4]}
    )
    workers = pd.DataFrame(
        {"worker_id": [0, 1],
         "slot": [0, 0],
         "x": [890.0, 110.0],
         "y": [890.0, 100.0]}
    )
    return Workload(tasks=tasks, workers=workers, m=4, domain=1000.0)


def _edges(wl: Workload):
    return conflict_edges(build_task_contexts(wl))


class TestRankedCandidates:
    """The ranked (task, slot, worker) instances the expansion reads: each
    context's top-r list, with a shared instance's rank its 1-based
    position in that list."""

    def test_ranks_by_distance(self, monkeypatch):
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", 3)
        wl = gen_workload(n_tasks=3, n_workers=40, m=8, seed=0)
        ctxs = build_task_contexts(wl)
        for c in ctxs:
            for workers, costs in zip(c.slot_workers, c.slot_costs):
                assert (np.diff(costs[workers >= 0]) >= -1e-9).all()
        pairs = _shared_instances(ctxs)
        assert len(pairs) > 0
        for r in pairs.itertuples(index=False):
            for t, rank in ((r.task_a, r.rank_a), (r.task_b, r.rank_b)):
                assert ctxs[t].slot_workers[r.slot, rank - 1] == r.worker

    def test_top_r_enforced(self, monkeypatch):
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", 2)
        wl = gen_workload(n_tasks=2, n_workers=40, m=8, seed=1)
        ctxs = build_task_contexts(wl)
        assert max((w >= 0).sum() for c in ctxs for w in c.slot_workers) <= 2
        pairs = _shared_instances(ctxs)
        assert len(pairs) > 0
        assert pairs[["rank_a", "rank_b"]].to_numpy().max() <= 2

    def test_distance_is_euclidean(self):
        ctx = build_task_contexts(_toy_workload())[0]
        assert ctx.slot_workers[0, 0] == 0
        assert ctx.slot_costs[0, 0] == pytest.approx(np.hypot(10, 10))


class TestConflictEdges:
    def test_fig4_shared_nearest_worker(self):
        """Round 1 links τ2–τ3 over w1; at bound 2 both reach w0 and link to
        τ1; round 3 adds nothing."""
        edges, bounds, rounds = _edges(_toy_workload())
        assert edges == {(0, 1), (0, 2), (1, 2)}
        assert bounds == {0: 3, 1: 3, 2: 3}
        assert rounds == 3
        groups, _, stats = build_groups(build_task_contexts(_toy_workload()))
        assert groups.group_id.nunique() == 1
        assert stats["n_groups"] == 1

    def test_no_workers_no_edges(self):
        tasks = pd.DataFrame(
            {"task_id": [0, 1], "x": [0.0, 10.0], "y": [0.0, 10.0],
             "m": [4, 4]}
        )
        workers = pd.DataFrame(
            {"worker_id": pd.Series(dtype="int64"),
             "slot": pd.Series(dtype="int64"),
             "x": pd.Series(dtype="float64"),
             "y": pd.Series(dtype="float64")}
        )
        wl = Workload(tasks=tasks, workers=workers, m=4, domain=100.0)
        edges, bounds, rounds = _edges(wl)
        assert edges == set()
        assert bounds == {0: 1, 1: 1}
        assert rounds == 1

    def test_far_apart_tasks_independent(self, monkeypatch):
        """Tasks in opposite corners with their own worker pools never
        conflict."""
        tasks = pd.DataFrame(
            {"task_id": [0, 1], "x": [0.0, 1000.0], "y": [0.0, 1000.0],
             "m": [2, 2]}
        )
        workers = pd.DataFrame(
            {"worker_id": [0, 1, 2, 3],
             "slot": [0, 0, 0, 0],
             "x": [5.0, 8.0, 995.0, 998.0],
             "y": [5.0, 8.0, 995.0, 998.0]}
        )
        wl = Workload(tasks=tasks, workers=workers, m=2, domain=1000.0)
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", 2)
        edges, _, _ = conflict_edges(build_task_contexts(wl))
        assert edges == set()

    @pytest.mark.parametrize(
        "case", list(PINNED), ids=lambda c: "-".join(map(str, c))
    )
    def test_expansion_pinned(self, case):
        """Edges, final bounds and round counts are those of the Spark-joined
        expansion, run on to the fixpoint."""
        dist, n, w, m, seed = case
        wl = gen_workload(n_tasks=n, n_workers=w, m=m, dist=dist, seed=seed)
        edges, bounds, rounds = _edges(wl)
        want = PINNED[case]
        assert sorted(edges) == [
            tuple(map(int, e.split("-"))) for e in want["edges"].split()
        ]
        assert [bounds[t] for t in range(n)] == want["bounds"]
        assert rounds == want["rounds"]

    @pytest.mark.parametrize(
        "case",
        list(PINNED) + [
            (dist, n, w, m, seed)
            for dist in DISTRIBUTIONS
            for n, w, m in [(8, 300, 20), (32, 4000, 50)]
            for seed in (0, 1)
        ],
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_fixpoint(self, case):
        """At the returned bounds one more expansion round adds no edge:
        the groups are independent."""
        dist, n, w, m, seed = case
        ctxs = build_task_contexts(
            gen_workload(n_tasks=n, n_workers=w, m=m, dist=dist, seed=seed))
        edges, bounds, _ = conflict_edges(ctxs)
        pairs = _shared_instances(ctxs)
        live = (pairs.rank_a <= pairs.task_a.map(bounds)) & (
            pairs.rank_b <= pairs.task_b.map(bounds))
        assert set(zip(pairs.task_a[live], pairs.task_b[live])) <= edges


class TestConnectedComponents:
    def test_no_edges_all_singletons(self):
        g = connected_components(4, set())
        assert g.group_id.nunique() == 4

    def test_chain_merges(self):
        g = connected_components(4, {(0, 1), (1, 2)})
        gid = g.set_index("task_id").group_id
        assert gid[0] == gid[1] == gid[2]
        assert gid[3] != gid[0]

    def test_two_components(self):
        g = connected_components(5, {(0, 1), (2, 3)})
        assert g.group_id.nunique() == 3

    def test_group_ids_dense(self):
        g = connected_components(6, {(0, 5)})
        assert set(g.group_id) == set(range(g.group_id.nunique()))


class TestBuildGroups:
    def test_toy_grouping(self):
        groups, edges, stats = build_groups(build_task_contexts(_toy_workload()))
        gid = groups.set_index("task_id").group_id
        assert gid[1] == gid[2]
        assert stats["n_groups"] == groups.group_id.nunique()
        assert stats["n_edges"] == len(edges)

    def test_random_workload_covers_all_tasks(self):
        wl = gen_workload(n_tasks=6, n_workers=100, m=10, seed=2)
        groups, _, stats = build_groups(build_task_contexts(wl))
        assert sorted(groups.task_id) == list(range(6))
        assert stats["max_group"] <= 6

    def test_no_tasks(self):
        groups, edges, stats = build_groups([])
        assert groups.empty and edges == set()
        assert stats == {"n_edges": 0, "n_groups": 0, "max_group": 0,
                         "expansion_rounds": 0}

    def test_one_task(self):
        wl = gen_workload(n_tasks=1, n_workers=50, m=10, seed=0)
        groups, edges, stats = build_groups(build_task_contexts(wl))
        assert groups.group_id.tolist() == [0] and edges == set()
        assert stats == {"n_edges": 0, "n_groups": 1, "max_group": 1,
                         "expansion_rounds": 1}
