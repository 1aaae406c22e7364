"""The validity check every multi-task plan must pass."""
import numpy as np
import pytest

from repro.core.multi_greedy import ClaimLedger
from repro.core.quality import quality


def temporal_quality(m, k):
    """The base metric (Eqs 1–3) of each task's executed slots."""
    return lambda exec_sets: [quality(e, m, k) for e in exec_sets]


def assert_valid_plan(wl, ctxs, res, budget, quality_of, *, tol=1e-12):
    """Check a :class:`repro.core.multi_greedy.MultiResult` against the
    workload itself.

    One assignment per task, in task order; each task's slots ascending and
    unique, with their workers aligned and active at those slots; no
    (worker, slot) claimed twice across tasks; each cost the sum of the
    distances from the task to its workers at their slots; the total within
    ``budget``; and the reported qualities equal to ``quality_of``
    (executed-slot sets → per-task qualities) of the executed slots.
    """
    pos = {
        (int(w), int(s)): (x, y)
        for w, s, x, y in wl.workers[["worker_id", "slot", "x", "y"]]
        .itertuples(index=False)
    }
    used = set()
    for ctx, a in zip(ctxs, res.assignments, strict=True):
        assert a.task_id == ctx.task_id
        assert all(s < t for s, t in zip(a.exec_slots, a.exec_slots[1:]))
        assert len(a.workers) == len(a.exec_slots)
        dist = 0.0
        for slot, worker in zip(a.exec_slots, a.workers):
            assert (worker, slot) not in used
            assert (worker, slot) in pos
            used.add((worker, slot))
            x, y = pos[(worker, slot)]
            dist += np.hypot(x - ctx.x, y - ctx.y)
        assert a.cost == pytest.approx(dist, rel=1e-9, abs=1e-9)
    assert res.total_cost <= budget + 1e-6
    q = quality_of([set(a.exec_slots) for a in res.assignments])
    np.testing.assert_allclose([a.quality for a in res.assignments], q,
                               rtol=tol, atol=tol)
    assert res.q_sum == pytest.approx(float(np.sum(q)), rel=tol, abs=tol)
    assert res.steps == len(used)


def replay_commits(ctxs, res, budget=np.inf):
    """Replay ``res.commits`` through a fresh
    :class:`repro.core.multi_greedy.ClaimLedger` holding ``budget`` and check
    that it rebuilds every task's (slot, worker) pairs and the bits of its
    cost; returns the replayed ledger."""
    ledger = ClaimLedger(ctxs, budget)
    for t, slot in res.commits:
        ledger.claim(t, slot)
    assert len(res.commits) == res.steps
    for got, want in zip(ledger.plan, res.assignments, strict=True):
        assert sorted(zip(got.exec_slots, got.workers)) == list(
            zip(want.exec_slots, want.workers))
        assert repr(got.cost) == repr(want.cost)
    return ledger


def assert_maximal(ctxs, res, budget):
    """Check that the plan is maximal under ``budget``: once its commits are
    replayed, no task has an unexecuted slot whose current worker it can
    still afford — the greedy's own stopping rule.

    Group-parallel plans are not checked: each group stops at its own share
    of the budget, so the leftovers of one group are never offered to the
    others, and most instances that split end non-maximal."""
    ledger = replay_commits(ctxs, res, budget)
    assert [t for t in range(len(ctxs)) if ledger.any_affordable(t)] == []
