"""Tests for group-level parallelization on Spark (Section IV-A-1)."""
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.quality import quality
from repro.sparkpar.group_parallel import solve_msqm_group_parallel
from repro.workloads import gen_workload


def _instance(n_tasks=6, n_workers=300, m=20, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


class TestGroupParallel:
    @pytest.mark.parametrize("seed", range(3))
    def test_budget_respected(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_all_tasks_reported(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3)
        assert sorted(a.task_id for a in r.assignments) == list(range(wl.n_tasks))

    @pytest.mark.parametrize("seed", range(3))
    def test_quality_consistent_with_exec_sets(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3)
        for a in r.assignments:
            assert a.quality == pytest.approx(
                quality(a.exec_slots, wl.m, 3), abs=1e-9
            )

    def test_no_double_worker_claims(self, spark):
        """Independence of groups: no (worker, slot) serves two subtasks."""
        wl, _, b = _instance(n_tasks=8, n_workers=80, m=12, seed=1,
                             dist="gaussian")
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(2))
    def test_close_to_serial_quality(self, spark, seed):
        """Group-parallel must land near the serial plan (the proportional
        budget split is the only divergence)."""
        wl, ctxs, b = _instance(seed=seed)
        rs = solve_msqm_serial(ctxs, b, 3)
        rg, _ = solve_msqm_group_parallel(spark, wl, b, 3)
        assert rg.q_sum >= 0.9 * rs.q_sum

    def test_conflicts_match_serial_on_one_group(self, spark):
        """With every task in one conflict group, group-parallel runs serial
        MSQM on the whole budget and must report its rank bumps."""
        wl, ctxs, b = _instance(n_tasks=6, n_workers=60, m=12, seed=0,
                                dist="gaussian")
        rg, gstats = solve_msqm_group_parallel(spark, wl, b, 3)
        assert gstats["n_groups"] == 1
        rs = solve_msqm_serial(ctxs, b, 3)
        assert rs.conflicts > 0
        assert rg.conflicts == rs.conflicts

    def test_stats_populated(self, spark):
        wl, _, b = _instance(seed=2)
        r, gstats = solve_msqm_group_parallel(spark, wl, b, 3)
        for key in ("n_edges", "n_groups", "max_group", "expansion_rounds"):
            assert key in gstats

    def test_partitions_knob_accepted(self, spark):
        wl, _, b = _instance(n_tasks=4, seed=3)
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3, num_partitions=2)
        assert len(r.assignments) == 4
