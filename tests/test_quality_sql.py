"""The quality metric in Spark SQL, cross-checked three ways:
numpy reference == Catalyst result == DuckDB oracle (same SQL text)."""
import numpy as np
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.greedy import solve_sqm_approx, solve_sqm_opt, solve_sqm_rand
from repro.core.multi_greedy import solve_mmqm, solve_msqm_serial, solve_multi_rand
from repro.core.quality import quality
from repro.core.tree_index import solve_sqm_approx_star
from repro.workloads import gen_workload
from tests.oracle import assert_equivalent
from tests.quality_sql import quality_sql, subtasks_pdf, task_quality_df


CASES = [
    {"name": "mixed", "m": 10, "k": 2,
     "exec": {0: {1, 3}, 1: set(), 2: {0, 5, 9}}},
    {"name": "single-task-empty", "m": 8, "k": 3, "exec": {0: set()}},
    {"name": "all-executed", "m": 6, "k": 2, "exec": {0: set(range(6))}},
    {"name": "one-slot", "m": 12, "k": 3, "exec": {0: {5}}},
    {"name": "k1", "m": 15, "k": 1, "exec": {0: {2, 9}, 1: {14}}},
    {"name": "adjacent", "m": 9, "k": 2, "exec": {0: {3, 4, 5}}},
]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
class TestSqlMetric:
    def test_matches_numpy_reference(self, spark, case):
        pdf = subtasks_pdf(case["exec"], case["m"])
        out = task_quality_df(spark, spark.createDataFrame(pdf),
                              case["k"], case["m"])
        got = {r.task_id: r.quality for r in out.collect()}
        for tid, ex in case["exec"].items():
            assert got[tid] == pytest.approx(
                quality(ex, case["m"], case["k"]), abs=1e-9
            )

    def test_matches_duckdb_oracle(self, spark, case):
        pdf = subtasks_pdf(case["exec"], case["m"])
        out = task_quality_df(spark, spark.createDataFrame(pdf),
                              case["k"], case["m"])
        assert_equivalent(out, quality_sql(case["k"], case["m"]),
                          subtasks=pdf)


class TestSqlMetricRandomized:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_all_three_ways(self, spark, seed):
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(6, 25)), int(rng.integers(1, 4))
        exec_sets = {
            t: set(rng.choice(m, size=rng.integers(0, m // 2),
                              replace=False).tolist())
            for t in range(4)
        }
        pdf = subtasks_pdf(exec_sets, m)
        out = task_quality_df(spark, spark.createDataFrame(pdf), k, m)
        got = {r.task_id: r.quality for r in out.collect()}
        for tid, ex in exec_sets.items():
            assert got[tid] == pytest.approx(quality(ex, m, k), abs=1e-9)
        assert_equivalent(out, quality_sql(k, m), subtasks=pdf)


class TestSubtasksPdf:
    def test_dense_relation(self):
        pdf = subtasks_pdf({0: {1}, 1: set()}, 5)
        assert len(pdf) == 10
        assert pdf.executed.sum() == 1

    def test_executed_flags_match(self):
        pdf = subtasks_pdf({3: {0, 4}}, 6)
        ex = pdf[pdf.executed].slot.tolist()
        assert sorted(ex) == [0, 4]


class TestOracle:
    """The DuckDB oracle itself: it must agree with a correct Spark result
    and reject a wrong one."""

    EXEC = {0: {1, 4}, 1: {0, 7}, 2: set()}
    M, K = 9, 2

    def test_agg_query_equivalence(self, spark):
        pdf = subtasks_pdf(self.EXEC, self.M)
        out = task_quality_df(spark, spark.createDataFrame(pdf), self.K, self.M)
        assert_equivalent(out, quality_sql(self.K, self.M), subtasks=pdf)

    def test_oracle_catches_wrong_result(self, spark):
        pdf = subtasks_pdf(self.EXEC, self.M)
        wrong = task_quality_df(
            spark, spark.createDataFrame(pdf), self.K, self.M
        ).selectExpr("task_id", "quality + 1 AS quality")
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, quality_sql(self.K, self.M), subtasks=pdf)


class TestSolverPlans:
    """Every solver's plan scored a second way: the SQL metric, run by
    Catalyst and by DuckDB, over the plan's executed slots."""

    def test_sql_quality_equals_solver_quality(self, spark):
        m, k = 12, 3
        wl = gen_workload(n_tasks=4, n_workers=60, m=m, dist="gaussian", seed=3)
        ctxs = build_task_contexts(wl)
        avg = average_task_cost(ctxs)
        ctx, b1, b = ctxs[0], 0.5 * avg, 0.5 * avg * len(ctxs)
        plans = [
            solve_sqm_approx(ctx, b1, k),
            solve_sqm_approx_star(ctx, b1, k),
            solve_sqm_rand(ctx, b1, k, seed=3),
            solve_sqm_opt(ctx, b1, k),
            *solve_msqm_serial(ctxs, b, k).assignments,
            *solve_mmqm(ctxs, b, k).assignments,
            *solve_multi_rand(ctxs, b, k, seed=3).assignments,
        ]
        assert all(a.exec_slots for a in plans)
        pdf = subtasks_pdf({i: set(a.exec_slots) for i, a in enumerate(plans)}, m)
        out = task_quality_df(spark, spark.createDataFrame(pdf), k, m)
        got = {r.task_id: r.quality for r in out.collect()}
        for i, a in enumerate(plans):
            assert abs(got[i] - a.quality) <= 1e-9, (i, a)
        assert_equivalent(out, quality_sql(k, m), subtasks=pdf)
