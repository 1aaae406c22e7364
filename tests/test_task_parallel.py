"""Tests for task-level parallelization on Spark (Section IV-A-2)."""
import math

import pytest

from repro.core.assignment import (
    DEFAULT_TOP_R,
    average_task_cost,
    build_task_contexts,
)
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.quality import quality
from repro.core.tree_index import solve_sqm_approx_star
from repro.sparkpar import task_parallel
from repro.sparkpar.group_parallel import solve_msqm_group_parallel
from repro.sparkpar.task_parallel import solve_msqm_task_parallel
from repro.workloads import DISTRIBUTIONS, Workload, gen_workload
from tests.plans import (
    assert_maximal,
    assert_valid_plan,
    replay_commits,
    temporal_quality,
)

#: Task-parallel output on two dense instances (8 tasks, 80 workers, m=12,
#: seed 1, 50 % budget), recorded from the chain merge that sorted every
#: chain head on each commit.  ``plan`` is each task's ``slot:worker`` pairs;
#: ``log`` is the Logging Table's ``task:slot`` sequence, suffixed ``c`` for a
#: conflict and ``b`` for a budget miss (uncommitted), bare when committed.
PINNED = {
    ("gaussian", "default"): dict(
        conflicts=29,
        rounds=1,
        plan=[
            "2:56 3:71 4:56 5:56 8:15 9:15",
            "0:7 2:34 4:26 5:60 6:60 7:60 8:77 9:77",
            "1:74 2:74 5:65 7:20 8:20 9:20",
            "0:23 3:2 4:24 5:24 7:51 9:3 10:67",
            "0:9 2:38 4:65 7:65 8:19 9:19",
            "0:44 4:71 5:11 7:77 9:51",
            "1:23 2:23 4:69 5:69 8:51 10:51 11:51",
            "0:28 3:24 5:71 7:58 10:15",
        ],
        log=(
            "1:7 6:11 3:5 2:8 4:7 7:5c 1:6 6:5 0:5 2:9 3:7 5:4 1:5 4:8c 6:2 "
            "0:4c 7:5 7:7c 3:3 5:7c 7:7 7:3c 2:7c 2:7 0:4 0:9c 5:7c 4:8 4:0 5:7 "
            "5:5c 6:8 5:5 7:3 0:9 6:1 2:2 1:9 4:9c 1:2 0:3 4:9 7:10 3:10c 6:10 "
            "5:0c 4:2 3:10c 2:5c 1:0 0:8c 7:0c 3:10 3:0c 6:4 2:5 2:1 4:4c 3:0 "
            "5:0 5:9c 5:9 7:0c 1:8 3:9c 4:4 0:8 0:2 5:8c 6:7c 0:7c 1:4 7:0 7:9c "
            "3:9 3:4 1:10b 7:9c 2:3b 7:9b 4:5c 3:11c 3:11b 0:7b 5:8b 6:7b 4:5b "
        ),
    ),
    ("gaussian", "nopri"): dict(
        conflicts=10,
        rounds=1,
        plan=[
            "0:9 1:9 2:56 3:71 4:71 5:56 6:11 7:65 8:20 9:20 10:15 11:51",
            "0:7 1:29 2:34 3:46 4:26 5:60 6:60 7:60 8:77 9:77 10:77 11:52",
            "0:44 1:74 2:74 3:65 4:65 5:11 6:65 7:20 8:19 9:19 10:13 11:39",
            "0:23 3:2 4:24 5:24 7:51 9:15 10:51 11:3",
            "",
            "",
            "",
            "",
        ],
        log=(
            "0:5 0:4 0:9 0:3 0:8 0:2 0:7 0:0 0:10 0:11 0:6 0:1 1:7 1:6 1:5 1:9 "
            "1:2 1:0 1:8 1:4 1:10 1:1 1:3 1:11 2:8c 2:8 2:9c 2:9 2:7c 2:7 2:2 "
            "2:5 2:1 2:3 2:10 2:0 2:6 2:11 2:4 3:5 3:7 3:3 3:10c 3:10 3:0c 3:0 "
            "3:9 3:4 3:11c 3:11 3:1b 4:7c 4:7b 5:4c 5:4b 6:11c 6:11b 7:5c 7:5b "
        ),
    ),
    ("gaussian", "chain1"): dict(
        conflicts=24,
        rounds=6,
        plan=[
            "2:56 3:71 4:56 5:56 8:15 9:15",
            "0:7 2:34 5:60 6:60 7:60 9:77",
            "1:74 2:74 5:65 7:30 8:20 9:20",
            "0:23 3:2 5:24 7:51 9:3 10:51",
            "0:9 2:38 4:65 7:65 8:19 9:19",
            "0:44 4:71 5:11 7:20 9:51",
            "1:23 2:23 5:69 8:51 10:67 11:51",
            "0:28 3:24 5:71 7:58 9:67 10:15",
        ],
        log=(
            "1:7 6:11 3:5 2:8 4:7 7:5c 0:5 5:4 7:5 1:6 6:5 2:9 3:7 7:7c 4:8c "
            "0:4c 5:7c 7:7 0:4 5:7 4:8 1:5 6:2 3:3 7:3c 2:7c 4:0 0:9c 5:5c 5:5 "
            "7:3 0:9 2:7 6:8 2:2 1:9 4:9c 0:3 4:9 7:10 3:10c 5:0c 3:10 5:0 6:1 "
            "1:2 4:2 2:5c 5:9c 0:8c 7:0c 3:0c 2:5 5:9 3:0 7:0c 0:8 7:0 6:10c "
            "1:0 2:1 4:4c 7:9c 3:9c 0:2 4:4 5:8c 6:10 3:9 7:9c 7:9 5:8b "
        ),
    ),
    ("poi", "default"): dict(
        conflicts=27,
        rounds=1,
        plan=[
            "0:23 1:23 2:23 4:68 5:68 6:68 8:51 9:51 11:67",
            "0:5 1:5 2:29 3:29 4:46 5:12 7:0 8:73 9:73 10:73",
            "1:71 3:25 6:15 7:15 10:3",
            "0:53 1:53 2:64 4:25 5:64 7:66",
            "1:28 2:53 5:25 6:72 7:25",
            "0:28 2:28 3:28 6:11 7:58 10:15",
            "1:14 2:16 4:64 6:25 7:27 10:27",
            "0:16 1:16 2:4 4:78 6:4 7:31 10:61",
        ],
        log=(
            "7:6 3:1 0:11 6:6c 0:2 1:8 3:7 7:4 4:1c 0:6 5:3 1:0 2:3c 2:3 3:0 "
            "2:7c 7:1 1:2 4:1 4:7c 5:7c 6:6 6:1c 0:5 6:1 6:4c 4:7 4:2 6:4 2:7c "
            "1:9 5:7c 5:7 5:6 2:7c 3:5 2:7 2:1c 2:1 1:4 7:7 0:1 4:5c 3:2c 2:6c "
            "6:7c 4:5 5:0 7:0 1:7 0:9 2:6 7:10 4:6c 6:7 0:4 3:2 3:4c 6:10c 5:10 "
            "2:10c 0:0 3:4 3:10c 5:2 6:10 6:2 7:2c 1:10 1:1 0:8 2:10c 4:6 4:0c "
            "2:10 2:0c 3:10c 1:5 6:0c 7:2 7:9b 3:10b 5:9b 1:3 0:10b 6:0b 1:6b "
            "2:0b 4:0b "
        ),
    ),
    ("poi", "nopri"): dict(
        conflicts=10,
        rounds=1,
        plan=[
            "0:23 1:23 2:23 3:69 4:68 5:68 6:68 7:63 8:51 9:51 10:51 11:67",
            "0:5 1:5 2:29 3:29 4:46 5:12 6:12 7:0 8:73 9:73 10:73 11:39",
            "0:53 1:53 2:53 3:28 4:56 5:25 6:11 7:66 8:15 9:15 10:15 11:3",
            "0:28 1:28 2:64 3:25 4:64 5:64 6:25 7:25 8:58 9:58 10:61 11:51",
            "",
            "",
            "6:4",
            "",
        ],
        log=(
            "0:11 0:2 0:6 0:5 0:1 0:9 0:4 0:0 0:8 0:10 0:3 0:7 1:8 1:0 1:2 1:9 "
            "1:4 1:7 1:10 1:1 1:5 1:3 1:6 1:11 2:3 2:7 2:1 2:6 2:10 2:0 2:5 2:9 "
            "2:2 2:4 2:8 2:11 3:1c 3:1 3:7c 3:7 3:0c 3:0 3:5 3:2c 3:2 3:4 3:10 "
            "3:9c 3:9 3:3 3:6 3:8c 3:8 3:11c 3:11 4:1c 4:1b 5:3c 5:3b 6:6 6:1b "
            "7:6c 7:6b "
        ),
    ),
    ("poi", "chain1"): dict(
        conflicts=28,
        rounds=7,
        plan=[
            "1:23 2:23 4:68 5:68 6:68 9:51 11:67",
            "0:5 2:29 4:46 7:0 8:73 9:73 10:73",
            "0:14 1:71 3:25 6:15 7:15 10:27",
            "0:53 1:53 2:64 4:25 5:64 7:66",
            "1:28 2:53 5:25 6:72 7:25",
            "0:28 2:28 3:28 6:11 7:58 10:15",
            "1:16 2:16 4:64 6:25 7:27 10:61",
            "0:16 1:14 2:4 4:78 6:4 7:31 10:3",
        ],
        log=(
            "7:6 3:1 0:11 6:6c 1:8 4:1c 5:3 2:3c 2:3 4:1 6:6 0:2 3:7 7:4 1:0 "
            "4:7c 6:1 2:7c 5:7c 4:7 2:7c 5:7c 5:7 2:7c 2:7 0:6 3:0 7:1c 1:2 "
            "6:4c 4:2 2:1c 5:6 7:1 2:1 6:4 0:5 1:9 3:5 7:7 4:5c 2:6c 6:7c 4:5 "
            "5:0 2:6 6:7 1:4 0:1 3:2c 7:0 4:6c 3:2 6:10 5:10 2:10c 2:10 4:6 1:7 "
            "0:9 7:10c 3:4c 6:2 2:0c 3:4 5:2 4:0c 7:10 2:0 4:0c 4:0b 0:4 3:10c "
            "7:2c 4:10c 1:10 6:0c 7:2 3:10b 2:5c 4:10b 5:9b 2:5b 6:0b "
        ),
    ),
}

_SETTINGS = {
    "default": {},
    "nopri": {"priority": False},
    "chain1": {},  # task_parallel.CHAIN_LEN patched to 1
    "part2": {"num_partitions": 2},
}
_LOG_CODES = {(True, "ok"): "", (False, "conflict"): "c", (False, "budget"): "b"}


def _instance(n_tasks=6, n_workers=300, m=20, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


def _stages_of(spark, group, solve):
    """Run ``solve()`` under a Spark job group: (its return, the group's
    stage infos)."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = solve()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    tracker = sc.statusTracker()
    stage_ids = {
        s
        for j in tracker.getJobIdsForGroup(group)
        for s in tracker.getJobInfo(j).stageIds
    }
    return out, [tracker.getStageInfo(s) for s in stage_ids]


class TestTaskParallel:
    @pytest.mark.parametrize("seed", range(3))
    def test_budget_respected(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_no_double_worker_claims(self, spark, seed):
        wl, _, b = _instance(n_tasks=8, n_workers=80, m=12, seed=seed,
                             dist="gaussian")
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(3))
    def test_quality_consistent_with_exec_sets(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        for a in r.assignments:
            assert a.quality == pytest.approx(
                quality(a.exec_slots, wl.m, 3), abs=1e-9
            )

    @pytest.mark.parametrize(
        "n_tasks,n_workers,m,seed",
        [(4, 400, 12, 0), (4, 400, 12, 1), (8, 1000, 50, 0), (8, 1000, 50, 1)],
        ids=["0", "1", "t8-w1000-m50-0", "t8-w1000-m50-1"],
    )
    def test_deterministic_equivalence_ample_budget(
        self, spark, n_tasks, n_workers, m, seed
    ):
        """The paper's determinism claim: with no budget pressure the
        parallel plan equals the serial plan exactly."""
        wl, ctxs, _ = _instance(n_tasks=n_tasks, n_workers=n_workers, m=m,
                                seed=seed)
        b = 1e9  # everything affordable
        rs = solve_msqm_serial(ctxs, b, 3)
        rt, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        ser = {a.task_id: sorted(a.exec_slots) for a in rs.assignments}
        par = {a.task_id: sorted(a.exec_slots) for a in rt.assignments}
        assert ser == par

    @pytest.mark.parametrize("seed", range(2))
    def test_near_serial_quality_tight_budget(self, spark, seed):
        """At budget exhaustion the paper admits small deviations; q_sum must
        stay within 2 % of serial."""
        wl, ctxs, b = _instance(seed=seed)
        rs = solve_msqm_serial(ctxs, b, 3)
        rt, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        assert rt.q_sum >= 0.98 * rs.q_sum

    @pytest.mark.parametrize("setting", ["default", "nopri", "part2"])
    def test_plan_valid(self, spark, setting):
        wl, ctxs, b = _instance(n_tasks=8, n_workers=80, m=12, seed=2,
                                dist="gaussian")
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3, **_SETTINGS[setting])
        assert r.steps > 0
        assert_valid_plan(wl, ctxs, r, b, temporal_quality(wl.m, 3))

    @pytest.mark.parametrize("setting", ["default", "nopri", "chain1"])
    @pytest.mark.parametrize("dist", ["gaussian", "poi"])
    def test_commits_replay(self, spark, monkeypatch, dist, setting):
        """Replayed through eager claims, the commit log rebuilds the plan
        that lazy bumps made: a task commits the first unclaimed worker in
        its list either way."""
        if setting == "chain1":
            monkeypatch.setattr(task_parallel, "CHAIN_LEN", 1)
        wl, ctxs, b = _instance(n_tasks=8, n_workers=80, m=12, seed=2,
                                dist=dist)
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3,
                                             **_SETTINGS[setting])
        assert r.conflicts > 0
        replay_commits(ctxs, r)
        ok = tables["logging"][tables["logging"].committed]
        assert r.commits == list(zip(ok.task_id, ok.slot))

    @pytest.mark.parametrize("setting", ["default", "nopri"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_maximal(self, spark, dist, seed, setting):
        """Under a binding budget, the master stops only when no task can
        afford another subtask, priced from the replayed Conflicting Table."""
        wl, ctxs, b = _instance(n_tasks=8, n_workers=80, m=12, seed=seed,
                                dist=dist)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3, **_SETTINGS[setting])
        assert 0 < r.steps < sum(len(c.assignable_slots()) for c in ctxs)
        assert_maximal(ctxs, r, b)

    def test_tables_populated(self, spark):
        wl, _, b = _instance(n_tasks=6, n_workers=60, m=12, seed=1,
                             dist="poi")
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3)
        assert tables["rounds"] >= 1
        assert not tables["heartbeat"].empty
        log = tables["logging"]
        assert (log.committed | (log.reason != "ok")).all()
        if r.conflicts:
            assert not tables["conflicting"].empty
            assert (tables["conflicting"].bumped_to_rank >= 2).all()

    def test_priority_flag_runs(self, spark):
        wl, _, b = _instance(n_tasks=4, seed=2)
        r1, _ = solve_msqm_task_parallel(spark, wl, b, 3, priority=True)
        r0, _ = solve_msqm_task_parallel(spark, wl, b, 3, priority=False)
        # Priority scheduling follows the greedy order; it should not lose.
        assert r1.q_sum >= r0.q_sum - 0.02 * abs(r0.q_sum)

    def test_chain_len_one_still_works(self, spark, monkeypatch):
        monkeypatch.setattr(task_parallel, "CHAIN_LEN", 1)
        wl, _, b = _instance(n_tasks=3, m=10, seed=3)
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3)
        assert r.steps > 0
        assert tables["rounds"] >= r.steps / 3

    def test_partitions_knob_accepted(self, spark):
        wl, _, b = _instance(n_tasks=4, m=10, seed=4)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3, num_partitions=2)
        assert len(r.assignments) == 4

    def test_no_tasks(self, spark):
        wl = gen_workload(n_tasks=0, n_workers=50, m=10, seed=0)
        r, tables = solve_msqm_task_parallel(spark, wl, 100.0, 3)
        assert r.assignments == []
        assert (r.conflicts, r.q_sum, r.steps, tables["rounds"]) == (0, 0.0, 0, 0)
        # The master log's views keep their columns when nothing was logged.
        assert {name: list(tables[name].columns) for name in
                ("heartbeat", "conflicting", "logging")} == {
            "heartbeat": ["task_id", "heuristic"],
            "conflicting": ["task_id", "slot", "bumped_to_rank", "round"],
            "logging": ["round", "task_id", "slot", "heuristic", "committed", "reason"],
        }
        assert all(tables[name].empty for name in ("heartbeat", "conflicting", "logging"))

    def test_one_task_equals_serial(self, spark):
        wl, ctxs, b = _instance(n_tasks=1, seed=0)
        rs = solve_msqm_serial(ctxs, b, 3)
        rt, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        assert rt.steps > 0
        assert [sorted(zip(a.exec_slots, a.workers)) for a in rt.assignments] == [
            sorted(zip(a.exec_slots, a.workers)) for a in rs.assignments
        ]

    @pytest.mark.parametrize("setting", list(_SETTINGS))
    @pytest.mark.parametrize("dist", ["gaussian", "poi"])
    def test_output_pinned(self, spark, monkeypatch, dist, setting):
        """Plans, conflicts, rounds and the Logging Table's order are those
        of the sort-based chain merge (``part2`` slices the state rows into
        two partitions and must not change the default's output)."""
        if setting == "chain1":
            monkeypatch.setattr(task_parallel, "CHAIN_LEN", 1)
        wl = gen_workload(n_tasks=8, n_workers=80, m=12, dist=dist, seed=1)
        b = 0.5 * average_task_cost(build_task_contexts(wl)) * wl.n_tasks
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3,
                                             **_SETTINGS[setting])
        want = PINNED[dist, "default" if setting == "part2" else setting]
        plan = [
            " ".join(f"{s}:{w}" for s, w in zip(a.exec_slots, a.workers))
            for a in sorted(r.assignments, key=lambda a: a.task_id)
        ]
        log = "".join(
            f"{row.task_id}:{row.slot}"
            f"{_LOG_CODES.get((row.committed, row.reason), '?')} "
            for row in tables["logging"].itertuples()
        )
        assert plan == want["plan"]
        assert r.conflicts == want["conflicts"]
        assert tables["rounds"] == want["rounds"]
        assert log == want["log"]

    @pytest.mark.parametrize("num_partitions", [None, 2, 16])
    @pytest.mark.parametrize("framework", ["task", "group"])
    def test_one_stage_per_round_on_several_cores(self, spark, framework,
                                                  num_partitions):
        """Each round is one Spark stage whose tasks spread over the cores.
        ``num_partitions`` is the ``parallelize`` slice count, capped at the
        rows and the cores, so a count above the cores runs as the cores.
        Group-parallel's instance has 9 conflict groups, so its one round
        has 9 state rows."""
        if framework == "task":
            wl, _, b = _instance(n_tasks=8, n_workers=300, m=20, seed=0)
            solve = solve_msqm_task_parallel
        else:
            wl, _, b = _instance(n_tasks=16, n_workers=4000, m=50, seed=0)
            solve = solve_msqm_group_parallel
        (_, tables), stages = _stages_of(
            spark, f"test_round_stages_{framework}_{num_partitions}",
            lambda: solve(spark, wl, b, 3, num_partitions=num_partitions),
        )
        assert len(stages) == (tables["rounds"] if framework == "task" else 1)
        cores = spark.sparkContext.defaultParallelism
        for s in stages:
            assert min(2, cores) <= s.numTasks <= min(num_partitions or cores, cores)


def _final_prices(ctxs, tables, budget):
    """Replay the Conflicting and Logging tables: each (task, slot)'s cost at
    its final rank, and the budget left after the committed proposals."""
    rank = {}
    for row in tables["conflicting"].itertuples():
        rank[row.task_id, row.slot] = row.bumped_to_rank - 1

    def cost(t, slot):
        return ctxs[t].slot_costs[slot, rank.get((t, slot), 0)]

    rem = float(budget)
    for row in tables["logging"].itertuples():
        if row.committed:
            rem -= cost(row.task_id, row.slot)
    return cost, rem


class TestStoppingRule:
    """The master stops once no task has an affordable subtask, so no Spark
    round is launched that cannot change the plan."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("frac", [0.125, None], ids=["b12.5", "ample"])
    @pytest.mark.parametrize("m", [12, 20])
    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "zipf", "poi"])
    def test_no_round_wasted(self, spark, dist, m, frac, seed):
        wl = gen_workload(n_tasks=8, n_workers=80, m=m, dist=dist, seed=seed)
        ctxs = build_task_contexts(wl)
        b = 1e9 if frac is None else frac * average_task_cost(ctxs) * 8
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3)
        log = tables["logging"]
        logged = set(log["round"]) if len(log) else set()
        assert logged == set(range(1, tables["rounds"] + 1))
        cost, rem = _final_prices(ctxs, tables, b)
        for t, a in enumerate(r.assignments):
            left = [cost(t, j) for j in range(m) if j not in a.exec_slots]
            assert not any(math.isfinite(c) and c <= rem for c in left)

    def test_partitions_capped_at_active_tasks(self, spark):
        """``num_partitions`` above the task count adds no empty Spark tasks."""
        wl, _, b = _instance(n_tasks=4, n_workers=100, m=12, seed=0)
        (_, tables), stages = _stages_of(
            spark, "test_task_parallel_partition_cap",
            lambda: solve_msqm_task_parallel(spark, wl, b, 3, num_partitions=16),
        )
        assert tables["rounds"] >= 1 and stages
        for s in stages:
            assert s.numTasks <= 4


class TestInfiniteCosts:
    """Slots with no retained worker travel in the state at cost ``inf``."""

    def test_no_worker_instances(self, spark):
        wl = gen_workload(n_tasks=5, n_workers=100, m=12, seed=0)
        wl = Workload(wl.tasks, wl.workers.iloc[:0], wl.m, wl.domain)
        ctxs = build_task_contexts(wl)
        r, tables = solve_msqm_task_parallel(spark, wl, 100.0, 3)
        assert tables["rounds"] == 0
        rg, _ = solve_msqm_group_parallel(spark, wl, 100.0, 3)
        for res in (r, rg, solve_msqm_serial(ctxs, 100.0, 3)):
            assert [a.exec_slots for a in res.assignments] == [[]] * 5
            assert (res.q_sum, res.steps, res.conflicts) == (0.0, 0, 0)
        star = solve_sqm_approx_star(ctxs[0], 100.0, 3)
        assert (star.exec_slots, star.quality, star.cost) == ([], 0.0, 0.0)

    def test_bump_past_top_r_pinned(self, spark):
        """An ample budget at |T|=16, |W|=1000, m=50 bumps one task past its
        ``top_r`` candidates, so the next round's state carries an ``inf``
        cost.  Values recorded from the protocol that shipped worker ranks
        and priced proposals on the executors."""
        wl = gen_workload(n_tasks=16, n_workers=1000, m=50, seed=0)
        r, tables = solve_msqm_task_parallel(spark, wl, 1e9, 3)
        assert (tables["conflicting"].bumped_to_rank > DEFAULT_TOP_R).sum() == 1
        assert (r.q_sum, r.steps, r.conflicts, tables["rounds"]) == (
            90.2983147102736, 799, 204, 4,
        )
