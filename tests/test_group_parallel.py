"""Tests for group-level parallelization on Spark (Section IV-A-1)."""
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.quality import quality
from repro.sparkpar.conflict_graph import build_groups
from repro.sparkpar.group_parallel import solve_msqm_group_parallel
from repro.workloads import DISTRIBUTIONS, gen_workload
from tests.plans import assert_valid_plan, temporal_quality


#: Group-parallel output on ``_instance(dist="poi")`` (6 tasks, 300 workers,
#: m=20, seed 0, 25 % budget; two conflict groups), recorded when each group
#: re-ranked its workers on the executor.  ``plan`` is each task's
#: ``slot:worker`` pairs.
PINNED = dict(
    conflicts=34,
    gstats={"n_edges": 7, "n_groups": 2, "max_group": 4, "expansion_rounds": 2},
    plan=[
        "2:18 3:18 5:269 8:68 9:72 13:22 17:104 18:104",
        "1:28 2:74 6:257 8:127 10:111 11:111 12:45 15:32 17:32",
        "2:299 3:299 6:127 7:127 8:250 11:8 14:11 15:11 19:0",
        "1:276 2:174 5:257 9:127 10:66 11:94 13:185 15:20",
        "2:277 3:277 4:269 7:152 9:68 11:48 15:103 16:103 18:103",
        "1:299 4:110 7:236 10:236 11:236 12:160 16:108",
    ],
)


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

    @pytest.mark.parametrize("dist", ["gaussian", "poi"])
    def test_plan_valid(self, spark, dist):
        wl, ctxs, b = _instance(n_tasks=8, n_workers=80, m=12, seed=2, dist=dist)
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3)
        assert r.steps > 0
        assert_valid_plan(wl, ctxs, r, b, temporal_quality(wl.m, 3))

    def test_stats_populated(self, spark):
        wl, _, b = _instance(seed=2)
        r, gstats = solve_msqm_group_parallel(spark, wl, b, 3)
        for key in ("n_edges", "n_groups", "max_group", "expansion_rounds"):
            assert key in gstats

    def test_partitions_knob_accepted(self, spark):
        wl, _, b = _instance(n_tasks=4, seed=3)
        r, _ = solve_msqm_group_parallel(spark, wl, b, 3, num_partitions=2)
        assert len(r.assignments) == 4

    @pytest.mark.parametrize("num_partitions", [None, 2], ids=["default", "part2"])
    def test_output_pinned(self, spark, num_partitions):
        wl, _, b = _instance(dist="poi")
        r, gstats = solve_msqm_group_parallel(spark, wl, b, 3,
                                              num_partitions=num_partitions)
        plan = [
            " ".join(f"{s}:{w}" for s, w in zip(a.exec_slots, a.workers))
            for a in sorted(r.assignments, key=lambda a: a.task_id)
        ]
        assert plan == PINNED["plan"]
        assert r.conflicts == PINNED["conflicts"]
        assert gstats == PINNED["gstats"]

    def test_no_tasks(self, spark):
        wl = gen_workload(n_tasks=0, n_workers=50, m=10, seed=0)
        r, gstats = solve_msqm_group_parallel(spark, wl, 100.0, 3)
        assert r.assignments == []
        assert (r.conflicts, r.q_sum, r.steps) == (0, 0.0, 0)
        assert gstats == {"n_edges": 0, "n_groups": 0, "max_group": 0,
                          "expansion_rounds": 0}

    def test_one_task_equals_serial(self, spark):
        wl, ctxs, b = _instance(n_tasks=1, seed=0)
        rs = solve_msqm_serial(ctxs, b, 3)
        rg, gstats = solve_msqm_group_parallel(spark, wl, b, 3)
        assert (gstats["n_groups"], gstats["max_group"]) == (1, 1)
        assert rg.steps > 0
        assert [sorted(zip(a.exec_slots, a.workers)) for a in rg.assignments] == [
            sorted(zip(a.exec_slots, a.workers)) for a in rs.assignments
        ]


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_groups_keep_their_serial_plans_on_split_instances(spark, dist):
    """Dense supply splits the graph.  Each group's tasks get exactly the
    plan serial MSQM gives that group alone on its share of the budget, and
    the replayed claims bump only within groups."""
    wl, ctxs, b = _instance(n_tasks=32, n_workers=16_000, m=50, dist=dist)
    r, gstats = solve_msqm_group_parallel(spark, wl, b, 3)
    groups, _, _ = build_groups(ctxs)
    assert gstats["n_groups"] > 1
    conflicts = 0
    for _, tasks in groups.groupby("group_id")["task_id"]:
        rs = solve_msqm_serial([ctxs[t] for t in tasks], b * len(tasks) / 32, 3)
        conflicts += rs.conflicts
        for t, a in zip(tasks, rs.assignments, strict=True):
            got = r.assignments[t]
            assert list(zip(got.exec_slots, got.workers)) == list(
                zip(a.exec_slots, a.workers))
            assert (repr(got.cost), repr(got.quality)) == (
                repr(a.cost), repr(a.quality))
    assert r.conflicts == conflicts
    assert_valid_plan(wl, ctxs, r, b, temporal_quality(wl.m, 3))
