"""Tiny-scale integration smoke of every experiment harness function —
one per paper figure — plus shape assertions on their output tables."""
import pytest

from repro import experiments as ex


class TestSingleTaskHarness:
    def test_fig6a_shape_and_order(self):
        df = ex.fig6a(m_opt=10, m_large=20, n_workers=100, seeds=(0,))
        assert {"dist", "m", "method", "quality"} <= set(df.columns)
        # OPT ≥ Approx ≥ 0 per (dist, m_opt) block.
        for dist in df.dist.unique():
            blk = df[(df.dist == dist) & (df.m == 10)].set_index("method")
            assert blk.loc["OPT", "quality"] >= blk.loc["Approx", "quality"] - 1e-9

    def test_fig6b_quality_grows_with_budget(self):
        df = ex.fig6b(m=30, n_workers=150, seeds=(0,))
        ap = df[df.method == "Approx"].sort_values("budget_frac")
        assert ap.quality.is_monotonic_increasing

    def test_fig8a_columns(self):
        df = ex.fig8a(ms=(30, 60), n_workers=200)
        assert {"m", "approx_s", "star_s", "speedup"} <= set(df.columns)
        assert (df.approx_q - df.star_q).abs().max() < 1e-6

    def test_fig8c_breakdown(self):
        df = ex.fig8c(m=60, n_workers=200)
        comp = dict(zip(df.component, df.value))
        assert comp["interp-op reduction (x)"] > 1

    def test_fig8d_pruning_in_range(self):
        df = ex.fig8d(ms=(30, 60), n_workers=200)
        assert ((df.pruned_frac >= 0) & (df.pruned_frac <= 1)).all()

    def test_fig8e_runs(self):
        df = ex.fig8e(m=60, n_workers=200, t_s_list=(2, 8))
        assert len(df) == 2

    def test_fig8g_k_sweep(self):
        df = ex.fig8g(m=60, n_workers=200, ks=(1, 3))
        assert df.k.tolist() == [1, 3]

    def test_fig8h_budget_sweep(self):
        df = ex.fig8h(m=40, n_workers=200)
        assert len(df) == 3


class TestMultiTaskHarness:
    def test_fig7_approx_beats_rand(self):
        df = ex.fig7(n_tasks=4, m=20, n_workers=300, seeds=(0,))
        for (dist, frac), blk in df.groupby(["dist", "budget_frac"]):
            b = blk.set_index("method")
            assert (
                b.loc["Approx-sum", "q_sum"] >= b.loc["Rand", "q_sum"] - 1e-9
            )

    def test_fig9a_methods_present(self, spark):
        df = ex.fig9a(spark, n_tasks=4, m=20, n_workers=200,
                      partitions=(2,))
        assert set(df.method) == {"serial", "group-parallel", "task-parallel"}

    def test_fig9c_conflicts_grow_with_tasks(self, spark):
        df = ex.fig9c(spark, n_tasks_list=(2, 8), m=16, n_workers=100)
        assert (
            df.static_conflict_edges.iloc[1] >= df.static_conflict_edges.iloc[0]
        )

    def test_fig9d_columns(self, spark):
        df = ex.fig9d(spark, n_tasks_list=(2, 4), m=12, n_workers=100)
        assert list(df.columns) == ["n_tasks", "serial_s", "task_parallel_s"]
        assert df.n_tasks.tolist() == [2, 4]
        assert (df[["serial_s", "task_parallel_s"]] > 0).all().all()

    def test_fig9e_columns(self, spark):
        df = ex.fig9e(spark, n_tasks=2, ms=(10, 14), n_workers=100)
        assert list(df.columns) == ["m", "serial_s", "task_parallel_s"]
        assert df.m.tolist() == [10, 14]
        assert (df[["serial_s", "task_parallel_s"]] > 0).all().all()

    def test_fig9f_priority_rows(self, spark):
        df = ex.fig9f(spark, n_tasks=4, m=16, n_workers=200)
        assert set(df.priority) == {True, False}

    def test_fig9g_speedup_positive(self):
        df = ex.fig9g(n_tasks_list=(4,), m=24, n_workers=300)
        assert list(df.columns) == ["n_tasks", "approx_s", "star_s", "speedup",
                                    "approx_q_min", "star_q_min"]
        assert (df.speedup > 0).all()
        assert (
            (df.approx_q_min - df.star_q_min).abs() < 0.05 * df.star_q_min.abs() + 1e-6
        ).all()

    def test_fig9h_runs(self):
        df = ex.fig9h(n_tasks=3, ms=(16, 24), n_workers=300)
        assert len(df) == 2
        assert list(df.columns) == ["m", "approx_s", "star_s", "speedup"]
        assert df.m.tolist() == [16, 24]


class TestStccHarness:
    def test_fig11_tables(self):
        tables = ex.fig11(n_tasks=3, m=10, n_workers=150, seeds=(0,))
        assert set(tables) == {"fig11a", "fig11b", "fig11c"}
        a = tables["fig11a"]
        # OPT(tiny) must dominate SApprox(tiny) per distribution.
        for dist, blk in a.groupby("dist"):
            b = blk.set_index("method")
            assert (
                b.loc["OPT(tiny)", "q_sum"]
                >= b.loc["SApprox(tiny)", "q_sum"] - 1e-9
            )
        c = tables["fig11c"]
        assert len(c) == 5
