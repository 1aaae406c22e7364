"""Tests for the worker/cost context (Section II cost model)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.assignment import (
    average_task_cost,
    build_task_contexts,
    DEFAULT_TOP_R,
)
from repro.workloads import Workload, gen_workload


@pytest.fixture(scope="module")
def wl():
    return gen_workload(n_tasks=5, n_workers=200, m=30, seed=0)


@pytest.fixture(scope="module")
def ctxs(wl):
    return build_task_contexts(wl)


class TestTaskContext:
    def test_one_context_per_task(self, wl, ctxs):
        assert len(ctxs) == wl.n_tasks
        assert [c.task_id for c in ctxs] == list(range(wl.n_tasks))

    def test_costs_ascending_per_slot(self, ctxs):
        for ctx in ctxs:
            for j in range(ctx.m):
                c = ctx.slot_costs[j]
                assert (np.diff(c) >= -1e-12).all()

    def test_costs_are_euclidean_distances(self, wl, ctxs):
        """Paper cost model: travel cost = Euclidean distance from the task
        location to the assigned worker's position at that slot."""
        ctx = ctxs[0]
        w = wl.workers
        for j in range(ctx.m):
            for r in range(min(2, len(ctx.slot_workers[j]))):
                wid = ctx.worker_at_rank(j, r)
                row = w[(w.worker_id == wid) & (w.slot == j)].iloc[0]
                d = np.hypot(row.x - ctx.x, row.y - ctx.y)
                assert ctx.cost_at_rank(j, r) == pytest.approx(d)

    def test_rank0_is_nearest(self, wl, ctxs):
        ctx = ctxs[1]
        w = wl.workers
        for j in range(ctx.m):
            grp = w[w.slot == j]
            if grp.empty:
                assert len(ctx.slot_workers[j]) == 0
                continue
            d = np.hypot(grp.x - ctx.x, grp.y - ctx.y)
            assert ctx.cost_at_rank(j, 0) == pytest.approx(float(d.min()))

    def test_out_of_range_rank_is_inf_and_minus1(self, ctxs):
        ctx = ctxs[0]
        assert ctx.cost_at_rank(0, DEFAULT_TOP_R + 5) == np.inf
        assert ctx.worker_at_rank(0, DEFAULT_TOP_R + 5) == -1

    def test_top_r_truncation(self, wl):
        ctxs = build_task_contexts(wl, top_r=2)
        for ctx in ctxs:
            for j in range(ctx.m):
                assert len(ctx.slot_workers[j]) <= 2

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
        assert ctx.slot_workers[0].tolist() == [2, 7, 5]
        assert ctx.slot_costs[0].tolist() == [5.0, 5.0, 10.0]

    def test_tie_at_top_r_cut_keeps_lower_worker_ids(self):
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
        ctx = build_task_contexts(wl, top_r=4)[0]
        assert ctx.slot_workers[0].tolist() == [99, 7, 10, 13]
        assert ctx.slot_costs[0].tolist() == [1.0, 5.0, 5.0, 5.0]

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
