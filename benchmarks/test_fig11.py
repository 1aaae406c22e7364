"""Fig 11 benchmarks: the STCC solvers behind each row of Fig 11(a, b).

SApprox is the spatiotemporal greedy; Approx (temporal only) is serial MSQM
and Rand is the multi-task Rand, each scored under the combined metric.
"""
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.multi_greedy import solve_msqm_serial, solve_multi_rand
from repro.stcc.spatio_temporal import (
    solve_stcc_greedy,
    solve_stcc_opt,
    stcc_score,
)
from repro.workloads import gen_workload


def _instance(n_tasks, n_workers, m):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, seed=0)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


@pytest.fixture(scope="module")
def stcc_instance():
    return _instance(4, 400, 20)


def test_fig11_sapprox(benchmark, stcc_instance):
    wl, ctxs, b = stcc_instance
    r = benchmark.pedantic(
        lambda: solve_stcc_greedy(ctxs, b, 3, domain=wl.domain),
        rounds=1, iterations=1,
    )
    assert r.q_sum > 0


def test_fig11_approx_temporal_only(benchmark, stcc_instance):
    wl, ctxs, b = stcc_instance
    r = benchmark(
        lambda: stcc_score(ctxs, solve_msqm_serial(ctxs, b, 3), 3,
                           domain=wl.domain)
    )
    assert r.q_sum > 0


def test_fig11_rand(benchmark, stcc_instance):
    wl, ctxs, b = stcc_instance
    r = benchmark(
        lambda: stcc_score(ctxs, solve_multi_rand(ctxs, b, 3, seed=0), 3,
                           domain=wl.domain)
    )
    assert r.q_sum >= 0


def test_fig11_opt_tiny(benchmark):
    wl, ctxs, b = _instance(3, 200, 6)
    r = benchmark.pedantic(
        lambda: solve_stcc_opt(ctxs, b, 3, domain=wl.domain),
        rounds=1, iterations=1,
    )
    assert r.q_sum > 0
