"""Experiment harness: one function per evaluation figure of the paper.

Each ``figX`` function runs the workload sweep behind the corresponding
figure and returns a tidy ``pandas.DataFrame`` — the "table of numbers" the
figure plots.  ``jobs/`` entrypoints print these tables;
EXPERIMENTS.md records paper-vs-measured.

Scales follow DESIGN.md §2: the paper's m ∈ {300, 500, 1000} and
|T| ∈ {100, 300, 500} shrink to m ∈ {100..400} and |T| ∈ {8..40} (Python
constant factors), with budgets at the paper's *fractions* of the average
task cost (12.5 / 25 / 50 %) and the paper's defaults k = 3, t_s = 4.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.greedy import solve_sqm_approx, solve_sqm_opt, solve_sqm_rand
from repro.core.multi_greedy import (
    solve_mmqm,
    solve_msqm_serial,
    solve_multi_rand,
)
from repro.core.tree_index import solve_sqm_approx_star
from repro.sparkpar.conflict_graph import build_groups
from repro.sparkpar.group_parallel import solve_msqm_group_parallel
from repro.sparkpar.task_parallel import solve_msqm_task_parallel
from repro.stcc.spatio_temporal import (
    solve_stcc_greedy,
    solve_stcc_opt,
    stcc_score,
)
from repro.workloads import DISTRIBUTIONS, gen_workload

DEFAULT_K = 3
DEFAULT_TS = 4
BUDGET_FRACS = (0.125, 0.25, 0.50)  # the paper's $50 / $100 / $200


def _instance(n_tasks: int, m: int, n_workers: int, seed: int, *,
              dist: str = "uniform", frac: float = 0.25):
    """A multi-task instance and its budget, ``frac`` of the average task
    cost per task: (workload, contexts, budget)."""
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m,
                      dist=dist, seed=seed)
    ctxs = build_task_contexts(wl)
    return wl, ctxs, frac * average_task_cost(ctxs) * n_tasks


# --------------------------------------------------------------- Figure 6
def fig6a(*, m_opt: int = 15, m_large: int = 100, n_workers: int = 400,
          seeds=(0, 1, 2), frac: float = 0.25) -> pd.DataFrame:
    """Single-task quality by task-location distribution: OPT/Approx/Rand."""
    rows = []
    for dist in DISTRIBUTIONS:
        for seed in seeds:
            _, (ctx,), b = _instance(1, m_opt, n_workers, seed, dist=dist, frac=frac)
            rows.append((dist, seed, m_opt, "OPT", solve_sqm_opt(ctx, b, DEFAULT_K).quality))
            rows.append((dist, seed, m_opt, "Approx", solve_sqm_approx(ctx, b, DEFAULT_K).quality))
            rows.append((dist, seed, m_opt, "Rand", solve_sqm_rand(ctx, b, DEFAULT_K, seed=seed).quality))
            _, (ctx,), b = _instance(1, m_large, n_workers, seed, dist=dist, frac=frac)
            rows.append((dist, seed, m_large, "Approx", solve_sqm_approx_star(ctx, b, DEFAULT_K).quality))
            rows.append((dist, seed, m_large, "Rand", solve_sqm_rand(ctx, b, DEFAULT_K, seed=seed).quality))
    df = pd.DataFrame(rows, columns=["dist", "seed", "m", "method", "quality"])
    return (
        df.groupby(["dist", "m", "method"])["quality"].mean().reset_index()
    )


def fig6b(*, m: int = 100, n_workers: int = 400, seeds=(0, 1, 2)) -> pd.DataFrame:
    """Single-task quality vs budget fraction (uniform tasks)."""
    rows = []
    for frac in BUDGET_FRACS:
        for seed in seeds:
            _, (ctx,), b = _instance(1, m, n_workers, seed, frac=frac)
            rows.append((frac, seed, "Approx", solve_sqm_approx_star(ctx, b, DEFAULT_K).quality))
            rows.append((frac, seed, "Rand", solve_sqm_rand(ctx, b, DEFAULT_K, seed=seed).quality))
    df = pd.DataFrame(rows, columns=["budget_frac", "seed", "method", "quality"])
    return df.groupby(["budget_frac", "method"])["quality"].mean().reset_index()


# --------------------------------------------------------------- Figure 7
def fig7(*, n_tasks: int = 10, m: int = 60, n_workers: int = 1500,
         seeds=(0, 1)) -> pd.DataFrame:
    """Multi-task quality (q_sum and q_min): Approx vs Rand, by distribution
    and by budget fraction."""
    rows = []
    for dist in DISTRIBUTIONS:
        for frac in BUDGET_FRACS:
            for seed in seeds:
                _, ctxs, b = _instance(n_tasks, m, n_workers, seed,
                                       dist=dist, frac=frac)
                rs = solve_msqm_serial(ctxs, b, DEFAULT_K)
                rm = solve_mmqm(ctxs, b, DEFAULT_K)
                rr = solve_multi_rand(ctxs, b, DEFAULT_K, seed=seed)
                rows += [
                    (dist, frac, seed, "Approx-sum", rs.q_sum, rs.q_min),
                    (dist, frac, seed, "Approx-min", rm.q_sum, rm.q_min),
                    (dist, frac, seed, "Rand", rr.q_sum, rr.q_min),
                ]
    df = pd.DataFrame(
        rows, columns=["dist", "budget_frac", "seed", "method", "q_sum", "q_min"]
    )
    return (
        df.groupby(["dist", "budget_frac", "method"])[["q_sum", "q_min"]]
        .mean()
        .reset_index()
    )


# --------------------------------------------------------------- Figure 8
def _timed_single(dist: str, m: int, n_workers: int, frac: float, seed: int,
                  k: int = DEFAULT_K, t_s: int = DEFAULT_TS,
                  run_naive: bool = True) -> dict:
    _, (ctx,), b = _instance(1, m, n_workers, seed, dist=dist, frac=frac)
    out = {"dist": dist, "m": m, "n_workers": n_workers, "budget_frac": frac,
           "k": k, "t_s": t_s, "seed": seed}
    if run_naive:
        t0 = time.perf_counter()
        a1 = solve_sqm_approx(ctx, b, k)
        out["approx_s"] = time.perf_counter() - t0
        out["approx_q"] = a1.quality
        out["approx_interp_ops"] = a1.stats["interp_ops"]
    t0 = time.perf_counter()
    a2 = solve_sqm_approx_star(ctx, b, k, t_s=t_s)
    out["star_s"] = time.perf_counter() - t0
    out["star_q"] = a2.quality
    out["star_interp_ops"] = a2.stats["interp_ops"]
    out["pruned_frac"] = a2.stats["pruned_frac"]
    out["tree_index_s"] = a2.stats["timers"]["index"] + a2.stats["timers"]["refresh"]
    out["star_interp_s"] = a2.stats["timers"]["interp"]
    if run_naive:
        out["speedup"] = out["approx_s"] / out["star_s"]
    return out


def fig8a(*, ms=(100, 200, 300, 400), n_workers: int = 1000,
          seed: int = 0) -> pd.DataFrame:
    """Single-task time vs m: Approx vs Approx*."""
    rows = [_timed_single("uniform", m, n_workers, 0.25, seed) for m in ms]
    return pd.DataFrame(rows)[["m", "approx_s", "star_s", "speedup",
                               "approx_q", "star_q"]]


def fig8b(*, m: int = 200, n_workers_list=(1000, 2000, 4000),
          seed: int = 0) -> pd.DataFrame:
    """Time vs number of workers."""
    rows = [_timed_single("uniform", m, n, 0.25, seed) for n in n_workers_list]
    return pd.DataFrame(rows)[["n_workers", "approx_s", "star_s", "speedup"]]


def fig8c(*, m: int = 300, n_workers: int = 1000, seed: int = 0) -> pd.DataFrame:
    """Cost breakdown: interpolation ops and component times."""
    r = _timed_single("uniform", m, n_workers, 0.25, seed)
    return pd.DataFrame(
        [
            ("Approx total (s)", r["approx_s"]),
            ("Approx interp ops", r["approx_interp_ops"]),
            ("Approx* total (s)", r["star_s"]),
            ("Approx* interp ops", r["star_interp_ops"]),
            ("Approx* interp time (s)", r["star_interp_s"]),
            ("Approx* tree time (s)", r["tree_index_s"]),
            ("interp-op reduction (x)",
             r["approx_interp_ops"] / max(1, r["star_interp_ops"])),
        ],
        columns=["component", "value"],
    )


def fig8d(*, ms=(100, 200, 300), n_workers: int = 1000,
          seed: int = 0) -> pd.DataFrame:
    """Pruning ratio vs m, by distribution."""
    rows = []
    for dist in DISTRIBUTIONS:
        for m in ms:
            r = _timed_single(dist, m, n_workers, 0.25, seed, run_naive=False)
            rows.append((dist, m, r["pruned_frac"]))
    return pd.DataFrame(rows, columns=["dist", "m", "pruned_frac"])


def fig8e(*, m: int = 300, n_workers: int = 1000, t_s_list=(2, 4, 8, 16),
          seed: int = 0) -> pd.DataFrame:
    """Tree-structure time vs t_s."""
    rows = []
    for t_s in t_s_list:
        r = _timed_single("uniform", m, n_workers, 0.25, seed,
                          t_s=t_s, run_naive=False)
        rows.append((t_s, r["tree_index_s"], r["star_s"]))
    return pd.DataFrame(rows, columns=["t_s", "tree_time_s", "total_s"])


def fig8f(*, m: int = 300, n_workers: int = 1000, seed: int = 0) -> pd.DataFrame:
    """Time vs task-location distribution."""
    rows = [_timed_single(d, m, n_workers, 0.25, seed) for d in DISTRIBUTIONS]
    return pd.DataFrame(rows)[["dist", "approx_s", "star_s", "speedup"]]


def fig8g(*, m: int = 300, n_workers: int = 1000, ks=(1, 2, 3, 4, 5),
          seed: int = 0) -> pd.DataFrame:
    """Time vs interpolation parameter k."""
    rows = [
        _timed_single("uniform", m, n_workers, 0.25, seed, k=k,
                      run_naive=False)
        for k in ks
    ]
    return pd.DataFrame(rows)[["k", "star_s", "pruned_frac"]]


def fig8h(*, m: int = 300, n_workers: int = 1000, seed: int = 0) -> pd.DataFrame:
    """Time vs budget fraction."""
    rows = [
        _timed_single("uniform", m, n_workers, frac, seed)
        for frac in BUDGET_FRACS
    ]
    return pd.DataFrame(rows)[["budget_frac", "approx_s", "star_s", "speedup"]]


# --------------------------------------------------------------- Figure 9
def fig9a(spark, *, n_tasks: int = 16, m: int = 100, n_workers: int = 2000,
          partitions=(1, 2, 4, 8, 16), seed: int = 0) -> pd.DataFrame:
    """MSQM: serial vs group-parallel vs task-parallel, vs parallelism.
    Every method's time includes worker ranking (``build_task_contexts``)."""
    wl, _, b = _instance(n_tasks, m, n_workers, seed)
    # One untimed solve per framework, so that no timed cell pays the
    # session's Spark and Python-worker start-up.
    solve_msqm_group_parallel(spark, wl, b, DEFAULT_K)
    solve_msqm_task_parallel(spark, wl, b, DEFAULT_K)
    rows = []
    t0 = time.perf_counter()
    rs = solve_msqm_serial(build_task_contexts(wl), b, DEFAULT_K)
    rows.append(("serial", 1, time.perf_counter() - t0, rs.q_sum))
    for p in partitions:
        t0 = time.perf_counter()
        rg, _ = solve_msqm_group_parallel(spark, wl, b, DEFAULT_K,
                                          num_partitions=p)
        rows.append(("group-parallel", p, time.perf_counter() - t0, rg.q_sum))
        t0 = time.perf_counter()
        rt, _ = solve_msqm_task_parallel(spark, wl, b, DEFAULT_K,
                                         num_partitions=p)
        rows.append(("task-parallel", p, time.perf_counter() - t0, rt.q_sum))
    return pd.DataFrame(rows, columns=["method", "partitions", "time_s", "q_sum"])


def fig9b(spark, *, n_tasks: int = 16, m: int = 100, n_workers: int = 2000,
          seed: int = 0) -> pd.DataFrame:
    """Parallel methods vs task-location distribution."""
    rows = []
    for dist in DISTRIBUTIONS:
        wl, _, b = _instance(n_tasks, m, n_workers, seed, dist=dist)
        t0 = time.perf_counter()
        rg, gstats = solve_msqm_group_parallel(spark, wl, b, DEFAULT_K)
        t_g = time.perf_counter() - t0
        t0 = time.perf_counter()
        rt, _ = solve_msqm_task_parallel(spark, wl, b, DEFAULT_K)
        t_t = time.perf_counter() - t0
        rows.append((dist, t_g, t_t, rt.conflicts, gstats["max_group"]))
    return pd.DataFrame(
        rows, columns=["dist", "group_s", "task_s", "conflicts", "max_group"]
    )


def fig9c(spark, *, n_tasks_list=(8, 16, 32), m: int = 100,
          n_workers: int = 2000, seed: int = 0) -> pd.DataFrame:
    """Number of worker conflicts vs number of tasks."""
    rows = []
    for n in n_tasks_list:
        wl, ctxs, b = _instance(n, m, n_workers, seed)
        _, _, gstats = build_groups(ctxs)
        rt, _ = solve_msqm_task_parallel(spark, wl, b, DEFAULT_K)
        rows.append((n, gstats["n_edges"], rt.conflicts))
    return pd.DataFrame(
        rows, columns=["n_tasks", "static_conflict_edges", "runtime_conflicts"]
    )


def _serial_vs_task_parallel(spark, sizes, n_workers: int,
                             seed: int) -> pd.DataFrame:
    """Serial and task-parallel MSQM wall time per (|T|, m) of ``sizes``,
    worker ranking included on both sides."""
    rows = []
    for n, m in sizes:
        wl, _, b = _instance(n, m, n_workers, seed)
        t0 = time.perf_counter()
        solve_msqm_serial(build_task_contexts(wl), b, DEFAULT_K)
        t1 = time.perf_counter()
        solve_msqm_task_parallel(spark, wl, b, DEFAULT_K)
        rows.append((n, m, t1 - t0, time.perf_counter() - t1))
    return pd.DataFrame(
        rows, columns=["n_tasks", "m", "serial_s", "task_parallel_s"]
    )


def fig9d(spark, *, n_tasks_list=(8, 16, 32), m: int = 100,
          n_workers: int = 2000, seed: int = 0) -> pd.DataFrame:
    """MSQM time vs number of tasks (serial vs task-parallel)."""
    return _serial_vs_task_parallel(
        spark, [(n, m) for n in n_tasks_list], n_workers, seed
    ).drop(columns="m")


def fig9e(spark, *, n_tasks: int = 16, ms=(60, 100, 200),
          n_workers: int = 2000, seed: int = 0) -> pd.DataFrame:
    """MSQM time vs m (serial vs task-parallel)."""
    return _serial_vs_task_parallel(
        spark, [(n_tasks, m) for m in ms], n_workers, seed
    ).drop(columns="n_tasks")


def fig9f(spark, *, n_tasks: int = 16, m: int = 100, n_workers: int = 2000,
          seed: int = 0) -> pd.DataFrame:
    """Effect of the thread-priority module (priority on vs off)."""
    wl, _, b = _instance(n_tasks, m, n_workers, seed)
    rows = []
    for prio in (True, False):
        t0 = time.perf_counter()
        r, tables = solve_msqm_task_parallel(spark, wl, b, DEFAULT_K,
                                             priority=prio)
        rows.append((prio, time.perf_counter() - t0, r.q_sum,
                     tables["rounds"], r.conflicts))
    return pd.DataFrame(
        rows, columns=["priority", "time_s", "q_sum", "rounds", "conflicts"]
    )


def _mmqm_approx_vs_star(sizes, n_workers: int, seed: int) -> pd.DataFrame:
    """MMQM wall time and q_min, Approx vs Approx*, per (|T|, m) of
    ``sizes``."""
    rows = []
    for n, m in sizes:
        _, ctxs, b = _instance(n, m, n_workers, seed)
        t0 = time.perf_counter()
        ra = solve_mmqm(ctxs, b, DEFAULT_K, use_index=False)
        t1 = time.perf_counter()
        rs = solve_mmqm(ctxs, b, DEFAULT_K, use_index=True)
        t_a, t_s = t1 - t0, time.perf_counter() - t1
        rows.append((n, m, t_a, t_s, t_a / t_s, ra.q_min, rs.q_min))
    return pd.DataFrame(
        rows,
        columns=["n_tasks", "m", "approx_s", "star_s", "speedup",
                 "approx_q_min", "star_q_min"],
    )


def fig9g(*, n_tasks_list=(8, 16, 32), m: int = 60, n_workers: int = 2000,
          seed: int = 0) -> pd.DataFrame:
    """MMQM time vs |T|: Approx vs Approx*."""
    return _mmqm_approx_vs_star(
        [(n, m) for n in n_tasks_list], n_workers, seed
    ).drop(columns="m")


def fig9h(*, n_tasks: int = 8, ms=(60, 100, 200), n_workers: int = 2000,
          seed: int = 0) -> pd.DataFrame:
    """MMQM time vs m: Approx vs Approx*."""
    df = _mmqm_approx_vs_star([(n_tasks, m) for m in ms], n_workers, seed)
    return df[["m", "approx_s", "star_s", "speedup"]]


# -------------------------------------------------------------- Figure 11
def fig11(*, n_tasks: int = 4, m: int = 20, n_workers: int = 400,
          seeds=(0, 1), w_s: float = 0.3, w_t: float = 0.7) -> dict:
    """STCC quality: (a) by distribution incl. tiny-OPT, (b) vs budget,
    (c) vs w_t.  Approx (temporal-only, i.e. serial MSQM) and Rand plans are
    scored under the combined metric, matching the paper's comparison."""
    rows_a, rows_b, rows_c = [], [], []

    def _methods(wl, ctxs, b, seed):
        def score(plan):
            return stcc_score(ctxs, plan, DEFAULT_K, w_s=w_s, w_t=w_t,
                              domain=wl.domain).q_sum

        sa = solve_stcc_greedy(ctxs, b, DEFAULT_K, w_s=w_s, w_t=w_t,
                               domain=wl.domain)
        return [
            ("SApprox", sa.q_sum),
            ("Approx", score(solve_msqm_serial(ctxs, b, DEFAULT_K))),
            ("Rand", score(solve_multi_rand(ctxs, b, DEFAULT_K, seed=seed))),
        ]

    for dist in DISTRIBUTIONS:
        for seed in seeds:
            wl, ctxs, b = _instance(n_tasks, m, n_workers, seed, dist=dist)
            rows_a += [(dist, seed, *r) for r in _methods(wl, ctxs, b, seed)]
            # Tiny-OPT block (|T|*m <= 18).
            wl2, ctxs2, b2 = _instance(3, 6, 200, seed, dist=dist)
            op = solve_stcc_opt(ctxs2, b2, DEFAULT_K, w_s=w_s, w_t=w_t,
                                domain=wl2.domain)
            sa2 = solve_stcc_greedy(ctxs2, b2, DEFAULT_K, w_s=w_s, w_t=w_t,
                                    domain=wl2.domain)
            rows_a += [
                (dist, seed, "OPT(tiny)", op.q_sum),
                (dist, seed, "SApprox(tiny)", sa2.q_sum),
            ]
    for frac in BUDGET_FRACS:
        for seed in seeds:
            wl, ctxs, b = _instance(n_tasks, m, n_workers, seed, frac=frac)
            rows_b += [(frac, seed, *r) for r in _methods(wl, ctxs, b, seed)]
    for wt in (0.1, 0.3, 0.5, 0.7, 0.9):
        for seed in seeds:
            wl, ctxs, b = _instance(n_tasks, m, n_workers, seed)
            sa = solve_stcc_greedy(ctxs, b, DEFAULT_K, w_s=1 - wt, w_t=wt,
                                   domain=wl.domain)
            rows_c.append((wt, seed, sa.q_sum))
    a = (
        pd.DataFrame(rows_a, columns=["dist", "seed", "method", "q_sum"])
        .groupby(["dist", "method"])["q_sum"].mean().reset_index()
    )
    b = (
        pd.DataFrame(rows_b, columns=["budget_frac", "seed", "method", "q_sum"])
        .groupby(["budget_frac", "method"])["q_sum"].mean().reset_index()
    )
    c = (
        pd.DataFrame(rows_c, columns=["w_t", "seed", "q_sum"])
        .groupby("w_t")["q_sum"].mean().reset_index()
    )
    return {"fig11a": a, "fig11b": b, "fig11c": c}
