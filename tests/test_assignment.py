"""Tests for the worker/cost context (Section II cost model)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import assignment
from repro.core.assignment import (
    average_task_cost,
    build_task_contexts,
    DEFAULT_TOP_R,
)
from repro.workloads import DISTRIBUTIONS, Workload, gen_workload


@pytest.fixture(scope="module")
def wl():
    return gen_workload(n_tasks=5, n_workers=200, m=30, seed=0)


@pytest.fixture(scope="module")
def ctxs(wl):
    return build_task_contexts(wl)


def _retained(ctx, j):
    """Slot ``j``'s candidates without the ``-1`` / ``inf`` padding."""
    keep = ctx.slot_workers[j] >= 0
    return ctx.slot_workers[j][keep], ctx.slot_costs[j][keep]


class TestTaskContext:
    def test_one_context_per_task(self, wl, ctxs):
        assert len(ctxs) == wl.n_tasks
        assert [c.task_id for c in ctxs] == list(range(wl.n_tasks))

    def test_costs_ascending_per_slot(self, ctxs):
        for ctx in ctxs:
            for j in range(ctx.m):
                _, c = _retained(ctx, j)
                assert (np.diff(c) >= -1e-12).all()

    def test_costs_are_euclidean_distances(self, wl, ctxs):
        """Paper cost model: travel cost = Euclidean distance from the task
        location to the assigned worker's position at that slot."""
        ctx = ctxs[0]
        w = wl.workers
        for j in range(ctx.m):
            for r in range(min(2, len(_retained(ctx, j)[0]))):
                wid = ctx.slot_workers[j, r]
                row = w[(w.worker_id == wid) & (w.slot == j)].iloc[0]
                d = np.hypot(row.x - ctx.x, row.y - ctx.y)
                assert ctx.slot_costs[j, r] == pytest.approx(d)

    def test_rank0_is_nearest(self, wl, ctxs):
        ctx = ctxs[1]
        w = wl.workers
        for j in range(ctx.m):
            grp = w[w.slot == j]
            if grp.empty:
                assert len(_retained(ctx, j)[0]) == 0
                continue
            d = np.hypot(grp.x - ctx.x, grp.y - ctx.y)
            assert ctx.slot_costs[j, 0] == pytest.approx(float(d.min()))

    def test_out_of_range_rank_is_inf_and_minus1(self, ctxs):
        """A bump past the retained candidates lands on the pad column."""
        for ctx in ctxs:
            assert ctx.slot_workers.shape == ctx.slot_costs.shape == (ctx.m, DEFAULT_TOP_R + 1)
            assert (ctx.slot_workers[:, -1] == -1).all()
            assert (ctx.slot_costs[:, -1] == np.inf).all()

    def test_top_r_truncation(self, wl, monkeypatch):
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", 2)
        ctxs = build_task_contexts(wl)
        for ctx in ctxs:
            for j in range(ctx.m):
                assert len(_retained(ctx, j)[0]) <= 2

    def test_equal_distance_ties_rank_lower_worker_id_first(self):
        """Workers at (3, 4) and (4, 3) are both exactly 5 from (0, 0): the
        lower worker id takes the lower rank, wherever it sits in the frame."""
        tasks = pd.DataFrame({"task_id": [0], "x": [0.0], "y": [0.0], "m": [1]})
        workers = pd.DataFrame(
            {"worker_id": [5, 7, 2], "slot": [0, 0, 0],
             "x": [6.0, 3.0, 4.0], "y": [8.0, 4.0, 3.0]}
        )
        wl = Workload(tasks=tasks, workers=workers, m=1, domain=10.0)
        ctx = build_task_contexts(wl)[0]
        workers, costs = _retained(ctx, 0)
        assert workers.tolist() == [2, 7, 5]
        assert costs.tolist() == [5.0, 5.0, 10.0]

    def test_tie_at_top_r_cut_keeps_lower_worker_ids(self, monkeypatch):
        """Twelve workers exactly 5 from the task compete for the last three
        of top_r = 4 places: the three lowest ids win, wherever they sit in
        the frame."""
        tasks = pd.DataFrame({"task_id": [0], "x": [0.0], "y": [0.0], "m": [1]})
        ring = [(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3),
                (-3, -4), (-4, -3), (5, 0), (0, 5), (-5, 0), (0, -5)]
        workers = pd.DataFrame(
            {"worker_id": [40 - 3 * i for i in range(12)] + [99],
             "slot": [0] * 13,
             "x": [float(x) for x, _ in ring] + [1.0],
             "y": [float(y) for _, y in ring] + [0.0]}
        )
        wl = Workload(tasks=tasks, workers=workers, m=1, domain=10.0)
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", 4)
        ctx = build_task_contexts(wl)[0]
        workers, costs = _retained(ctx, 0)
        assert workers.tolist() == [99, 7, 10, 13]
        assert costs.tolist() == [1.0, 5.0, 5.0, 5.0]

    def test_empty_slot_handling(self):
        """Slots with no active worker must be unassignable."""
        wl = gen_workload(n_tasks=1, n_workers=3, m=50, seed=1)
        ctx = build_task_contexts(wl)[0]
        base = ctx.base_costs()
        # 3 workers × ≤5 active slots each can cover at most 15 slots.
        assert np.isinf(base).sum() >= 50 - 15
        assert set(ctx.assignable_slots()) == set(np.nonzero(np.isfinite(base))[0])

    def test_average_task_cost_positive(self, ctxs):
        assert average_task_cost(ctxs) > 0

    def test_average_task_cost_empty(self):
        assert average_task_cost([]) == 0.0


def _brute_force(wl, top_r):
    """Per (task, slot): the workers ``sorted`` by (rounded distance, id),
    cut to ``top_r`` and padded with -1 / inf to ``top_r + 1`` columns."""
    W = np.full((wl.n_tasks, wl.m, top_r + 1), -1, dtype=np.int64)
    C = np.full((wl.n_tasks, wl.m, top_r + 1), np.inf)
    for i, t in enumerate(wl.tasks.itertuples(index=False)):
        for j in range(wl.m):
            grp = wl.workers[wl.workers.slot == j]
            d = np.hypot(grp.x.to_numpy() - t.x, grp.y.to_numpy() - t.y)
            ranked = sorted(zip(np.round(d, 12), grp.worker_id.tolist(), d))[:top_r]
            W[i, j, :len(ranked)] = [w for _, w, _ in ranked]
            C[i, j, :len(ranked)] = [c for _, _, c in ranked]
    return W, C


def _assert_matches_brute_force(wl, top_r=DEFAULT_TOP_R):
    ctxs = build_task_contexts(wl)
    W, C = _brute_force(wl, top_r)
    assert len(ctxs) == wl.n_tasks
    for i, ctx in enumerate(ctxs):
        assert ctx.slot_workers.shape == ctx.slot_costs.shape == (wl.m, top_r + 1)
        assert ctx.slot_workers.tolist() == W[i].tolist()
        assert ctx.slot_costs.tobytes() == C[i].tobytes()


def _ring_workload():
    """Two tasks: one at the origin, where twelve workers exactly 5 away tie
    at the top-4 cut, and one at (9, 9), whose cut has no tie."""
    tasks = pd.DataFrame({"task_id": [0, 1], "x": [0.0, 9.0], "y": [0.0, 9.0],
                          "m": [1, 1]})
    ring = [(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3),
            (-3, -4), (-4, -3), (5, 0), (0, 5), (-5, 0), (0, -5)]
    workers = pd.DataFrame(
        {"worker_id": [40 - 3 * i for i in range(12)] + [99],
         "slot": [0] * 13,
         "x": [float(x) for x, _ in ring] + [1.0],
         "y": [float(y) for _, y in ring] + [0.0]}
    )
    return Workload(tasks=tasks, workers=workers, m=1, domain=10.0)


class TestRankingReference:
    """Every context row equals a brute-force per-(task, slot) ranking, ids
    and cost bits alike."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_workers", [25, 1500], ids=["sparse", "dense"])
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_generated(self, dist, n_workers, seed):
        _assert_matches_brute_force(
            gen_workload(n_tasks=6, n_workers=n_workers, m=10, dist=dist, seed=seed))

    def test_tie_at_top_r_cut(self, monkeypatch):
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", 4)
        _assert_matches_brute_force(_ring_workload(), top_r=4)

    def test_no_tasks(self):
        wl = gen_workload(n_tasks=0, n_workers=100, m=10, seed=0)
        assert build_task_contexts(wl) == []

    def test_no_workers(self):
        wl = gen_workload(n_tasks=3, n_workers=0, m=10, seed=0)
        _assert_matches_brute_force(wl)
        assert all(len(c.assignable_slots()) == 0 for c in build_task_contexts(wl))

    def test_worker_rows_outside_the_slot_range_are_ignored(self):
        """Hand-built rows at slot −1 and slot m change no context: neither
        an ``IndexError`` nor a wrap of slot −1 onto the last slot."""
        wl = gen_workload(n_tasks=4, n_workers=60, m=6, seed=2)
        stray = pd.DataFrame({"worker_id": [1000, 1001], "slot": [-1, wl.m],
                              "x": [wl.tasks.x[0]] * 2, "y": [wl.tasks.y[0]] * 2})
        wl_stray = Workload(tasks=wl.tasks, m=wl.m, domain=wl.domain,
                            workers=pd.concat([wl.workers, stray], ignore_index=True))
        for a, b in zip(build_task_contexts(wl), build_task_contexts(wl_stray),
                        strict=True):
            assert a.slot_workers.tolist() == b.slot_workers.tolist()
            assert a.slot_costs.tobytes() == b.slot_costs.tobytes()
