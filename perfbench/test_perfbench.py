"""Self-tests of the benchmark's plan check and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``.  They sit
outside the repository's test paths, so the main suite does not collect them.
"""
import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import Tracer, installed  # noqa: E402
from plancheck import check_plan, plan_digest, worker_positions  # noqa: E402
from repro.core import assignment  # noqa: E402
from repro.core.multi_greedy import solve_msqm_serial  # noqa: E402
from repro.core.tree_index import solve_sqm_approx_star  # noqa: E402
from repro.workloads import gen_workload  # noqa: E402

M, K = 24, 3


@pytest.fixture(scope="module")
def instance():
    wl = gen_workload(n_tasks=6, n_workers=120, m=M, seed=3)
    ctxs = assignment.build_task_contexts(wl)
    budget = 0.25 * assignment.average_task_cost(ctxs) * wl.n_tasks
    res = solve_msqm_serial(ctxs, budget, K)
    return wl, ctxs, budget, res.assignments


def _check(wl, plan, budget):
    return check_plan(wl.tasks, worker_positions(wl.workers), plan, m=M, k=K, budget=budget)


def _busiest(plan):
    return max(plan, key=lambda a: len(a.exec_slots))


def test_valid_plan_passes(instance):
    wl, _, budget, plan = instance
    assert sum(len(a.exec_slots) for a in plan) > 0
    assert _check(wl, plan, budget) == []


def test_doubled_claim_is_caught(instance):
    wl, _, budget, plan = instance
    bad = copy.deepcopy(plan)
    a = _busiest(bad)
    b = next(t for t in bad if t is not a)
    # Task b also claims a's first worker at a's slot.
    slot, worker = a.exec_slots[0], a.workers[0]
    if slot in b.exec_slots:
        i = b.exec_slots.index(slot)
        b.exec_slots.pop(i), b.workers.pop(i)
    b.exec_slots.append(slot)
    b.workers.append(worker)
    errors = _check(wl, bad, budget * 10)
    assert any("claimed by tasks" in e for e in errors)


def test_inactive_worker_is_caught(instance):
    wl, _, budget, plan = instance
    bad = copy.deepcopy(plan)
    a = _busiest(bad)
    active = set(wl.workers.loc[wl.workers["slot"] == a.exec_slots[0], "worker_id"])
    a.workers[0] = next(w for w in range(wl.workers["worker_id"].max() + 1) if w not in active)
    assert any("is not active at slot" in e for e in _check(wl, bad, budget))


def test_perturbed_cost_is_caught(instance):
    wl, _, budget, plan = instance
    bad = copy.deepcopy(plan)
    _busiest(bad).cost *= 1 + 1e-6
    assert any("reported cost" in e for e in _check(wl, bad, budget))


def test_over_budget_is_caught(instance):
    wl, _, budget, plan = instance
    spent = sum(a.cost for a in plan)
    assert _check(wl, plan, spent) == []
    assert any("exceeds the budget" in e for e in _check(wl, plan, spent * 0.99))


def test_wrong_quality_is_caught(instance):
    wl, _, budget, plan = instance
    bad = copy.deepcopy(plan)
    _busiest(bad).quality += 1e-6
    assert any("reported quality" in e for e in _check(wl, bad, budget))


def test_changed_plan_changes_digest(instance):
    wl, ctxs, _, plan = instance
    bad = copy.deepcopy(plan)
    a = _busiest(bad)
    slot = a.exec_slots[0]
    ctx = next(c for c in ctxs if c.task_id == a.task_id)
    a.workers[0] = next(int(w) for w in ctx.slot_workers[slot] if w != a.workers[0])
    assert plan_digest(bad) != plan_digest(plan)
    assert plan_digest(list(reversed(plan))) == plan_digest(plan)


def test_per_task_budgets(instance):
    wl, ctxs, _, _ = instance
    budgets = {c.task_id: 0.25 * assignment.average_task_cost([c]) for c in ctxs}
    plan = [solve_sqm_approx_star(c, budgets[c.task_id], K) for c in ctxs]
    # Independent tasks may share a worker; each task's own budget binds.
    assert _check(wl, plan, budgets) == []
    a = _busiest(plan)
    tight = {**budgets, a.task_id: a.cost * 0.99}
    assert any(f"task {a.task_id}: cost" in e for e in _check(wl, plan, tight))


def test_tracer_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    tr.enter("solve", span=True)  # 0.0
    tr.enter("index")  # 1.0
    tr.enter("quality")  # 3.0
    tr.exit()  # 4.0: quality took 1.0
    tr.exit()  # 4.5: index took 3.5, 2.5 of it its own
    tr.exit()  # 10.0: solve took 10.0, 6.5 of it its own
    assert tr.total("quality") == tr.self_time("quality") == 1.0
    assert (tr.total("index"), tr.self_time("index")) == (3.5, 2.5)
    assert (tr.total("solve"), tr.self_time("solve")) == (10.0, 6.5)
    assert tr.self_time("solve") + tr.self_time("index") + tr.self_time("quality") == tr.total("solve")
    assert tr.spans == [{"id": 0, "name": "solve", "parent": None, "start": 0.0, "end": 10.0, "self": 6.5}]


def test_spans_record_their_parent():
    tr = Tracer()
    with tr.span("solve"):
        with tr.span("spark.toPandas"):
            pass
        with tr.span("conflict_graph.conflict_edges"):
            with tr.span("spark.toPandas"):
                pass
    assert len(tr.child_spans("solve", "spark.toPandas")) == 1
    assert len(tr.child_spans("conflict_graph.conflict_edges", "spark.toPandas")) == 1


def test_installed_wraps_and_restores(instance):
    wl, _, _, _ = instance
    original = assignment.build_task_contexts
    tr = Tracer()
    with installed(tr, [("repro.core.assignment", "build_task_contexts", "ranking", True)]):
        assert assignment.build_task_contexts is not original
        assignment.build_task_contexts(wl)
    assert assignment.build_task_contexts is original
    assert tr.calls("ranking") == 1 and tr.spans[0]["name"] == "ranking"
