"""Tests for Algorithm 1 (Approx), OPT, and Rand (Section III)."""
import numpy as np
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.greedy import (
    solve_sqm_approx,
    solve_sqm_opt,
    solve_sqm_rand,
)
from repro.core.multi_greedy import MultiResult
from repro.core.quality import quality
from repro.core.tree_index import solve_sqm_approx_star
from repro.workloads import DISTRIBUTIONS, gen_workload
from tests.plans import assert_valid_plan, temporal_quality

APPROX_RATIO = 1 - 1 / np.sqrt(np.e)  # ≈ 0.3935


def _ctx(m=20, n_workers=150, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=1, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctx = build_task_contexts(wl)[0]
    return ctx, average_task_cost([ctx])


class TestApprox:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("frac", [0.125, 0.25, 0.5])
    def test_budget_respected(self, seed, frac):
        ctx, avg = _ctx(seed=seed)
        b = frac * avg
        a = solve_sqm_approx(ctx, b, 3)
        assert a.cost <= b + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_quality_matches_executed_set(self, seed):
        ctx, avg = _ctx(seed=seed)
        a = solve_sqm_approx(ctx, 0.25 * avg, 3)
        assert a.quality == pytest.approx(
            quality(a.exec_slots, ctx.m, 3), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_workers_are_rank0(self, seed):
        ctx, avg = _ctx(seed=seed)
        a = solve_sqm_approx(ctx, 0.25 * avg, 3)
        for slot, w in zip(a.exec_slots, a.workers):
            assert w == ctx.worker_at_rank(slot, 0)

    def test_zero_budget_executes_nothing(self):
        ctx, _ = _ctx()
        a = solve_sqm_approx(ctx, 0.0, 3)
        assert a.exec_slots == []
        assert a.quality == 0.0

    def test_huge_budget_executes_all_assignable(self):
        ctx, avg = _ctx()
        a = solve_sqm_approx(ctx, 100 * avg, 3)
        assert a.exec_slots == sorted(ctx.assignable_slots().tolist())

    def test_single_subtask_fallback(self):
        """Line 3/10: if the budget only affords one (expensive, high-value)
        subtask, it is still returned."""
        ctx, _ = _ctx(m=10, n_workers=30, seed=3)
        costs = ctx.base_costs()
        finite = costs[np.isfinite(costs)]
        b = float(finite.min())  # affords exactly the cheapest slot
        a = solve_sqm_approx(ctx, b, 2)
        assert len(a.exec_slots) == 1


class TestApproximationRatio:
    @pytest.mark.parametrize("seed", range(8))
    def test_ratio_vs_opt(self, seed):
        """Approx must reach at least (1 − 1/√e) of OPT [22]; in practice it
        is nearly optimal."""
        ctx, avg = _ctx(m=12, n_workers=60, seed=seed)
        b = 0.3 * avg
        opt = solve_sqm_opt(ctx, b, 3)
        app = solve_sqm_approx(ctx, b, 3)
        if opt.quality > 0:
            assert app.quality >= APPROX_RATIO * opt.quality - 1e-9
        assert app.quality <= opt.quality + 1e-9


class TestOpt:
    def test_rejects_large_m(self):
        ctx, _ = _ctx(m=30)
        with pytest.raises(ValueError):
            solve_sqm_opt(ctx, 10.0, 3)

    def test_budget_respected(self):
        ctx, avg = _ctx(m=10, n_workers=50, seed=1)
        o = solve_sqm_opt(ctx, 0.3 * avg, 2)
        assert o.cost <= 0.3 * avg + 1e-9

    def test_opt_dominates_rand(self):
        ctx, avg = _ctx(m=10, n_workers=50, seed=2)
        b = 0.3 * avg
        o = solve_sqm_opt(ctx, b, 2)
        for seed in range(5):
            r = solve_sqm_rand(ctx, b, 2, seed=seed)
            assert o.quality >= r.quality - 1e-9


class TestRand:
    @pytest.mark.parametrize("seed", range(5))
    def test_budget_respected(self, seed):
        ctx, avg = _ctx(seed=seed)
        r = solve_sqm_rand(ctx, 0.25 * avg, 3, seed=seed)
        assert r.cost <= 0.25 * avg + 1e-9

    def test_deterministic_in_seed(self):
        ctx, avg = _ctx()
        r1 = solve_sqm_rand(ctx, 0.25 * avg, 3, seed=9)
        r2 = solve_sqm_rand(ctx, 0.25 * avg, 3, seed=9)
        assert r1.exec_slots == r2.exec_slots

    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "zipf", "poi"])
    def test_approx_beats_rand_on_average(self, dist):
        """Fig 6 shape: Approx > Rand, especially at small budgets."""
        diffs = []
        for seed in range(4):
            ctx, avg = _ctx(m=30, n_workers=200, seed=seed, dist=dist)
            b = 0.125 * avg
            a = solve_sqm_approx(ctx, b, 3)
            r = solve_sqm_rand(ctx, b, 3, seed=seed)
            diffs.append(a.quality - r.quality)
        assert np.mean(diffs) > 0


#: The single-task solvers, each read as a one-task multi-task plan.
_SINGLE_SOLVERS = {
    "approx": lambda c, b, k, seed: solve_sqm_approx(c, b, k),
    "approx-star": lambda c, b, k, seed: solve_sqm_approx_star(c, b, k),
    "opt": lambda c, b, k, seed: solve_sqm_opt(c, b, k),
    "rand": lambda c, b, k, seed: solve_sqm_rand(c, b, k, seed=seed),
}


@pytest.mark.parametrize("solver", list(_SINGLE_SOLVERS))
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("seed", range(2))
def test_single_task_plan_valid(solver, dist, seed):
    """Workers active at their slots, cost their summed distances, budget
    kept and quality the metric of the executed slots — the checks every
    multi-task plan passes (m = 12 keeps OPT's enumeration small)."""
    wl = gen_workload(n_tasks=1, n_workers=100, m=12, dist=dist, seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs)
    a = _SINGLE_SOLVERS[solver](ctxs[0], b, 3, seed)
    res = MultiResult([a], 0)
    assert res.steps > 0
    assert_valid_plan(wl, ctxs, res, b, temporal_quality(wl.m, 3))
