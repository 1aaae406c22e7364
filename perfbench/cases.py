"""The benchmark's workloads: instance sizes, budgets and the timed solve.

Every workload uses k=3, t_s=4, uniform task locations and a 25 % budget,
and reaches the program only through its public entry points.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core import assignment
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.tree_index import solve_sqm_approx_star
from repro.sparkpar.group_parallel import solve_msqm_group_parallel
from repro.sparkpar.task_parallel import solve_msqm_task_parallel
from repro.workloads import Workload, gen_workload

K = 3
T_S = 4
BUDGET_SHARE = 0.25


@dataclass(frozen=True)
class Case:
    name: str
    n_tasks: int
    n_workers: int
    m: int
    uses_spark: bool


CASES = {
    c.name: c
    for c in [
        Case("single_star", 8, 1000, 200, False),
        Case("msqm_conflict", 32, 1000, 50, False),
        Case("spark_task", 32, 1000, 50, True),
    ]
}

#: Group-parallel instance, solved once per traced spark_task run.  It is no
#: timed workload: its conflict-graph expansion takes 2 to 7 Spark rounds
#: depending on the seed, so its solve time is too uneven to gate on.  Its
#: worker density per slot keeps the tasks in several conflict groups.
GROUP_CASE = Case("spark_group", 16, 4000, 50, True)


@dataclass
class Instance:
    """One generated workload and its budget (one per task for single_star)."""

    wl: Workload
    budget: float | dict[int, float]
    ctxs: list | None = None  # single_star ranks workers during set-up


@dataclass
class Outcome:
    """A solve's plan plus the counts the program returned alongside it."""

    plan: list  # one repro.core.greedy.Assignment per task
    steps: int
    conflicts: int = 0
    tables: dict | None = None


def make_instance(case: Case, seed: int) -> Instance:
    wl = gen_workload(n_tasks=case.n_tasks, n_workers=case.n_workers, m=case.m, seed=seed)
    ctxs = assignment.build_task_contexts(wl)
    if case.name == "single_star":
        budget = {c.task_id: BUDGET_SHARE * assignment.average_task_cost([c]) for c in ctxs}
        return Instance(wl, budget, ctxs)
    return Instance(wl, BUDGET_SHARE * assignment.average_task_cost(ctxs) * wl.n_tasks)


def solve(case: Case, inst: Instance, spark) -> Outcome:
    """One timed operation: the instance and its budget to a complete plan."""
    if case.name == "single_star":
        plan = [solve_sqm_approx_star(c, inst.budget[c.task_id], K, t_s=T_S) for c in inst.ctxs]
        return Outcome(plan, sum(len(a.exec_slots) for a in plan))
    if case.name == "msqm_conflict":
        # Looked up on the module so that tracing sees the ranking call.
        ctxs = assignment.build_task_contexts(inst.wl)
        res = solve_msqm_serial(ctxs, inst.budget, K, t_s=T_S)
        return Outcome(res.assignments, res.steps, res.conflicts)
    res, tables = solve_msqm_task_parallel(spark, inst.wl, inst.budget, K, t_s=T_S)
    return Outcome(res.assignments, res.steps, res.conflicts, tables)


def solve_serial_msqm(inst: Instance):
    """Serial MSQM on a multi-task instance (the task-parallel reference)."""
    return solve_msqm_serial(assignment.build_task_contexts(inst.wl), inst.budget, K, t_s=T_S)


def solve_group_parallel(inst: Instance, spark):
    """Group-parallel MSQM on a multi-task instance."""
    return solve_msqm_group_parallel(spark, inst.wl, inst.budget, K, t_s=T_S)
