"""Tests for the spatiotemporal STCC extension (paper Appendix C)."""
import numpy as np
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.multi_greedy import solve_msqm_serial, solve_multi_rand
from repro.core.quality import p_vector
from repro.stcc.spatio_temporal import (
    solve_stcc_greedy,
    solve_stcc_opt,
    stcc_p_matrix,
    stcc_quality,
    stcc_score,
)
from repro.workloads import DISTRIBUTIONS, gen_workload
from tests.plans import assert_valid_plan


def _instance(n_tasks=4, n_workers=200, m=16, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


def _rand(wl, ctxs, b, k, seed):
    """Fig 11's Rand: the multi-task Rand plan under the combined metric."""
    return stcc_score(ctxs, solve_multi_rand(ctxs, b, k, seed=seed), k,
                      domain=wl.domain)


def _approx(wl, ctxs, b, k):
    """Fig 11's temporal-only Approx: serial MSQM under the combined metric."""
    return stcc_score(ctxs, solve_msqm_serial(ctxs, b, k), k, domain=wl.domain)


def _assert_valid_plan(wl, ctxs, res, budget, k, w_s=0.3, w_t=0.7):
    """The shared plan check, with the STCC metric as the quality."""
    locs = np.array([[c.x, c.y] for c in ctxs]).reshape(-1, 2)
    diag = wl.domain * np.sqrt(2)
    assert_valid_plan(
        wl, ctxs, res, budget,
        lambda exec_sets: stcc_quality(exec_sets, locs, wl.m, k, w_s, w_t, diag)[0],
    )


class TestStccMetric:
    def test_temporal_only_matches_base_metric(self):
        """w_t = 1 must reproduce the purely temporal p of Eqs 2–3."""
        m, k = 20, 2
        exec_sets = [{2, 7}, {11}, set()]
        locs = np.array([[0.0, 0.0], [50.0, 10.0], [99.0, 99.0]])
        p = stcc_p_matrix(exec_sets, locs, m, k, w_s=0.0, w_t=1.0, diag=140.0)
        for i, ex in enumerate(exec_sets):
            ref = p_vector(np.sort(np.array(list(ex), dtype=np.int64)), m, k)
            np.testing.assert_allclose(p[i], ref, atol=1e-12)

    def test_executed_probability_is_1_over_m(self):
        p = stcc_p_matrix([{3}, set()], np.zeros((2, 2)), 10, 2, 0.3, 0.7,
                          diag=100.0)
        assert p[0, 3] == pytest.approx(1 / 10)

    def test_nothing_executed_gives_zero(self):
        p = stcc_p_matrix([set(), set()], np.zeros((2, 2)), 10, 2, 0.3, 0.7,
                          diag=100.0)
        assert (p == 0).all()

    def test_spatial_neighbour_raises_probability(self):
        """A near task executed at the same slot lifts p above temporal-only
        interpolation; a far one helps less."""
        m, k = 12, 2
        locs_near = np.array([[0.0, 0.0], [1.0, 0.0]])
        locs_far = np.array([[0.0, 0.0], [999.0, 999.0]])
        exec_sets = [set(), {5}]
        diag = 1000 * np.sqrt(2)
        p_near = stcc_p_matrix(exec_sets, locs_near, m, k, 0.5, 0.5, diag)
        p_far = stcc_p_matrix(exec_sets, locs_far, m, k, 0.5, 0.5, diag)
        assert p_near[0, 5] > p_far[0, 5]

    def test_weights_interpolate_between_extremes(self):
        m, k = 12, 2
        locs = np.array([[0.0, 0.0], [10.0, 0.0]])
        exec_sets = [{2}, {5}]
        diag = 100.0
        qs = []
        for wt in (0.0, 0.5, 1.0):
            _, q = stcc_quality(exec_sets, locs, m, k, 1 - wt, wt, diag)
            qs.append(q)
        assert min(qs) <= qs[1] <= max(qs) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_executions(self, seed):
        """Appendix: the combined metric stays non-decreasing."""
        rng = np.random.default_rng(seed)
        m, k, n = 14, 2, 3
        locs = rng.uniform(0, 100, size=(n, 2))
        exec_sets = [set() for _ in range(n)]
        _, prev = stcc_quality(exec_sets, locs, m, k, 0.3, 0.7, 150.0)
        for _ in range(10):
            i = int(rng.integers(0, n))
            free = [s for s in range(m) if s not in exec_sets[i]]
            if not free:
                continue
            exec_sets[i].add(int(rng.choice(free)))
            _, cur = stcc_quality(exec_sets, locs, m, k, 0.3, 0.7, 150.0)
            assert cur >= prev - 1e-9
            prev = cur

    @pytest.mark.parametrize("seed", range(4))
    def test_submodular_marginals(self, seed):
        rng = np.random.default_rng(seed + 40)
        m, k, n = 10, 2, 3
        locs = rng.uniform(0, 100, size=(n, 2))
        base = [set() for _ in range(n)]
        base[0] = {1, 6}
        i, s = 1, 4
        z_i, z_s = 2, 7

        def q(sets):
            return stcc_quality(sets, locs, m, k, 0.3, 0.7, 150.0)[1]

        small = [set(x) for x in base]
        large = [set(x) for x in base]
        large[z_i].add(z_s)
        g_small = q([x | ({s} if j == i else set())
                     for j, x in enumerate(small)]) - q(small)
        g_large = q([x | ({s} if j == i else set())
                     for j, x in enumerate(large)]) - q(large)
        assert g_small >= g_large - 1e-9


class TestStccSolvers:
    @pytest.mark.parametrize("seed", range(3))
    def test_budgets_respected(self, seed):
        wl, ctxs, b = _instance(seed=seed)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        ra = _rand(wl, ctxs, b, 2, seed)
        ap = _approx(wl, ctxs, b, 2)
        assert sa.total_cost <= b + 1e-6
        assert ra.total_cost <= b + 1e-6
        assert ap.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_sapprox_beats_rand(self, seed):
        wl, ctxs, b = _instance(seed=seed)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        ra = _rand(wl, ctxs, b, 2, seed)
        assert sa.q_sum >= ra.q_sum - 1e-9

    @pytest.mark.parametrize("seed", range(2))
    def test_sapprox_beats_temporal_only_under_combined_metric(self, seed):
        """Fig 11 shape: under the combined metric, optimizing with spatial
        interpolation is at least as good as temporal-only planning."""
        wl, ctxs, b = _instance(n_tasks=4, m=14, seed=seed)
        sa = solve_stcc_greedy(ctxs, b, 2, w_s=0.3, w_t=0.7, domain=wl.domain)
        ap = _approx(wl, ctxs, b, 2)
        assert sa.q_sum >= ap.q_sum - 0.05 * abs(ap.q_sum)

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    @pytest.mark.parametrize("seed", range(2))
    def test_temporal_only_sapprox_is_serial_msqm(self, dist, seed):
        """Appendix C: with w_t = 1 SApprox is the temporal-only Approx,
        which is serial MSQM — the reduction Fig 11's Approx rows rely on."""
        wl, ctxs, b = _instance(n_tasks=3, n_workers=150, m=10, seed=seed,
                                dist=dist)
        tw = solve_stcc_greedy(ctxs, b, 3, w_s=0.0, w_t=1.0, domain=wl.domain)
        ms = solve_msqm_serial(ctxs, b, 3)
        assert [a.exec_slots for a in tw.assignments] == [
            sorted(a.exec_slots) for a in ms.assignments
        ]

    def test_opt_rejects_large_instances(self):
        _, ctxs, _ = _instance(n_tasks=4, m=16)
        with pytest.raises(ValueError):
            solve_stcc_opt(ctxs, 10.0, 2, domain=1000.0)

    @pytest.mark.parametrize("seed", range(2))
    def test_greedy_within_ratio_of_opt(self, seed):
        wl = gen_workload(n_tasks=3, n_workers=150, m=6, seed=seed)
        ctxs = build_task_contexts(wl)
        b = 0.25 * average_task_cost(ctxs) * 3
        op = solve_stcc_opt(ctxs, b, 2, domain=wl.domain)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        assert sa.q_sum <= op.q_sum + 1e-9
        if op.q_sum > 0:
            ratio = 1 - 1 / np.sqrt(np.e)
            assert sa.q_sum >= ratio * op.q_sum - 1e-9

    def test_no_double_claims(self):
        wl, ctxs, b = _instance(n_tasks=5, n_workers=60, m=10, seed=1)
        plans = {
            "SApprox": solve_stcc_greedy(ctxs, b, 2, domain=wl.domain),
            "Rand": _rand(wl, ctxs, b, 2, seed=1),
            "Approx": _approx(wl, ctxs, b, 2),
        }
        wl3, ctxs3, b3 = _instance(n_tasks=3, n_workers=60, m=6, seed=1)
        opt = solve_stcc_opt(ctxs3, b3, 2, domain=wl3.domain)
        _assert_valid_plan(wl3, ctxs3, opt, b3, 2)
        assert opt.steps > 0
        for name, res in plans.items():
            _assert_valid_plan(wl, ctxs, res, b, 2)
            assert res.steps > 0, name

    @pytest.mark.parametrize("solve", [solve_stcc_greedy, solve_stcc_opt])
    def test_no_tasks(self, solve):
        res = solve([], 10.0, 3, domain=1000.0)
        assert res.assignments == []
        assert res.q_sum == res.q_min == 0.0

    @pytest.mark.parametrize("solve", [solve_stcc_greedy, solve_stcc_opt])
    def test_one_task(self, solve):
        wl, ctxs, b = _instance(n_tasks=1, n_workers=100, m=6, seed=0)
        res = solve(ctxs, b, 2, domain=wl.domain)
        assert res.steps > 0
        _assert_valid_plan(wl, ctxs, res, b, 2)
