"""Tests for serial MSQM / MMQM and the multi-task Rand baseline (Sec IV)."""
import numpy as np
import pytest

from repro.core.assignment import (
    DEFAULT_TOP_R,
    TaskContext,
    average_task_cost,
    build_task_contexts,
)
from repro.core import assignment, multi_greedy
from repro.core.greedy import EPS, NaiveScorer
from repro.core.multi_greedy import (
    ClaimLedger,
    solve_mmqm,
    solve_msqm_serial,
    solve_multi_rand,
)
from repro.core.quality import partial_quality, quality
from repro.workloads import DISTRIBUTIONS, gen_workload
from tests.plans import (
    assert_maximal,
    assert_valid_plan,
    replay_commits,
    temporal_quality,
)


def _instance(n_tasks=6, n_workers=300, m=24, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


def _float_best_single_subtask(m, k, costs, budget):
    """Algorithm 1 line 3 by the float formula it used before the entropy
    table: p (Eq 2) and −p·log2 p computed per (candidate, slot) cell."""
    cand = np.nonzero(np.isfinite(costs) & (costs <= budget))[0]
    if len(cand) == 0:
        return None, -np.inf
    ys = np.arange(m)
    dist = np.abs(ys[None, :] - cand[:, None]).astype(np.float64)
    sums = dist + (k - 1) * m
    p = np.clip((1.0 - sums / (k * m)) / m, 0.0, None)
    gp = partial_quality(p)
    gp[np.arange(len(cand)), cand] = float(partial_quality(1.0 / m))
    q = gp.sum(axis=1)
    i = int(np.flatnonzero(q >= q.max() - EPS)[0])
    return int(cand[i]), float(q[i])


class TestBestSingleSubtask:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 50, 200, 500])
    def test_bits_equal_float_formula(self, m, k):
        """Line 3's (slot, q) has the float formula's bits, at a zero, a
        tight and an ample budget, on costs with zero and ``inf`` entries."""
        rng = np.random.default_rng(1000 * k + m)
        costs = rng.uniform(0.5, 5.0, m)
        costs[rng.random(m) < 0.2] = np.inf
        costs[rng.random(m) < 0.05] = 0.0
        finite = costs[np.isfinite(costs)]
        tight = float(np.quantile(finite, 0.25)) if len(finite) else 1.0
        for budget in (0.0, tight, 10.0):
            got = multi_greedy._best_single_subtask(m, k, costs, budget)
            want = _float_best_single_subtask(m, k, costs, budget)
            assert got[0] == want[0]
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


class TestMsqmSerial:
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_respected(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_quality_consistent_with_exec_sets(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        for a in r.assignments:
            assert a.quality == pytest.approx(
                quality(a.exec_slots, ctxs[0].m, 3), abs=1e-9
            )
        assert r.q_sum == pytest.approx(sum(a.quality for a in r.assignments))
        assert r.q_min == pytest.approx(min(a.quality for a in r.assignments))

    @pytest.mark.parametrize("seed", range(4))
    def test_no_double_worker_claims(self, seed):
        """A (worker, slot) instance serves at most one subtask (Sec IV)."""
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(3))
    def test_index_and_naive_agree(self, seed):
        _, ctxs, b = _instance(n_tasks=4, m=16, seed=seed)
        ri = solve_msqm_serial(ctxs, b, 2, use_index=True)
        rn = solve_msqm_serial(ctxs, b, 2, use_index=False)
        assert ri.q_sum == pytest.approx(rn.q_sum, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_beats_rand(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        rr = solve_multi_rand(ctxs, b, 3, seed=seed)
        assert r.q_sum >= rr.q_sum - 1e-9

    def test_conflicts_counted_with_shared_workers(self):
        """Co-located tasks competing for scarce workers must record bumps."""
        wl, ctxs, b = _instance(n_tasks=8, n_workers=60, m=16, seed=1,
                                dist="poi")
        r = solve_msqm_serial(ctxs, b, 3)
        assert r.conflicts >= 0  # structural; value asserted below
        # With this much contention at least one bump is expected.
        wl2, ctxs2, b2 = _instance(n_tasks=10, n_workers=40, m=12, seed=2,
                                   dist="gaussian")
        r2 = solve_msqm_serial(ctxs2, b2, 3)
        assert r2.conflicts > 0

    def test_claim_reevaluates_only_bumped_rivals(self, monkeypatch):
        """Task 0's claim of worker 10 bumps task 2, whose current worker it
        also is, but not task 1, which wants the same slot through worker 11:
        only task 2's cached candidate is searched again."""
        scorers, calls = [], []

        class Spy(NaiveScorer):
            def __init__(self, *args):
                super().__init__(*args)
                self.i = len(scorers)
                scorers.append(self)

            def best_candidate(self, rem_budget, t_s=0):
                calls.append(self.i)
                return super().best_candidate(rem_budget, t_s)

        monkeypatch.setattr(multi_greedy, "NaiveScorer", Spy)
        ctxs = [_ctx(0, [10, 12], [1.0, 2.0], m=1),
                _ctx(1, [11, 14], [1.0, 2.0], m=1),
                _ctx(2, [10, 13], [1.0, 2.0], m=1)]
        r = solve_msqm_serial(ctxs, 1e9, 3, use_index=False)
        assert [a.workers for a in r.assignments] == [[10], [11], [13]]
        assert r.conflicts == 1
        # Each task's first search and the one after its own commit, plus
        # task 2's search after its bump.
        assert [calls.count(i) for i in range(3)] == [2, 2, 3]


class TestMmqm:
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_respected(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_mmqm(ctxs, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_qmin_at_least_rand(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_mmqm(ctxs, b, 3)
        rr = solve_multi_rand(ctxs, b, 3, seed=seed)
        assert r.q_min >= rr.q_min - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_qmin_at_least_msqm(self, seed):
        """Maximizing the minimum should not do worse on q_min than the
        q_sum-greedy (typical case; both are heuristics)."""
        _, ctxs, b = _instance(seed=seed)
        rm = solve_mmqm(ctxs, b, 3)
        rs = solve_msqm_serial(ctxs, b, 3)
        assert rm.q_min >= rs.q_min - 0.15 * max(rs.q_min, 1e-9)

    def test_no_double_worker_claims(self):
        _, ctxs, b = _instance(n_tasks=8, n_workers=60, m=16, seed=3)
        r = solve_mmqm(ctxs, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(3))
    def test_index_and_naive_agree_approximately(self, seed):
        _, ctxs, b = _instance(n_tasks=4, m=16, seed=seed)
        ri = solve_mmqm(ctxs, b, 2, use_index=True)
        rn = solve_mmqm(ctxs, b, 2, use_index=False)
        assert ri.q_min == pytest.approx(rn.q_min, rel=1e-6)


class TestMultiRand:
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_respected(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_multi_rand(ctxs, b, 3, seed=seed)
        assert r.total_cost <= b + 1e-6

    def test_deterministic_in_seed(self):
        _, ctxs, b = _instance()
        r1 = solve_multi_rand(ctxs, b, 3, seed=5)
        r2 = solve_multi_rand(ctxs, b, 3, seed=5)
        assert [a.exec_slots for a in r1.assignments] == [
            a.exec_slots for a in r2.assignments
        ]


#: The serial multi-task solvers, each with the scorer it runs on.
_SOLVERS = {
    "msqm-index": lambda c, b, k: solve_msqm_serial(c, b, k),
    "msqm-naive": lambda c, b, k: solve_msqm_serial(c, b, k, use_index=False),
    "mmqm-index": lambda c, b, k: solve_mmqm(c, b, k),
    "mmqm-naive": lambda c, b, k: solve_mmqm(c, b, k, use_index=False),
    "rand": lambda c, b, k: solve_multi_rand(c, b, k, seed=1),
}


@pytest.mark.parametrize("solver", list(_SOLVERS))
class TestEverySerialPlan:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_valid_under_contention(self, solver, dist):
        wl, ctxs, b = _instance(n_tasks=8, n_workers=60, m=12, seed=1,
                                dist=dist)
        r = _SOLVERS[solver](ctxs, b, 3)
        assert r.steps > 0
        assert_valid_plan(wl, ctxs, r, b, temporal_quality(wl.m, 3))

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_commits_replay(self, solver, dist):
        """``commits`` is the Logging Table: replayed claim by claim, it
        rebuilds the plan, its cost bits and its conflict count."""
        _, ctxs, b = _instance(n_tasks=8, n_workers=60, m=12, seed=1,
                               dist=dist)
        r = _SOLVERS[solver](ctxs, b, 3)
        assert r.conflicts > 0
        assert replay_commits(ctxs, r).bumps == r.conflicts

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_maximal(self, solver, dist, seed):
        """Under a binding budget, the solver stops only when no task can
        afford another subtask."""
        _, ctxs, b = _instance(n_tasks=8, n_workers=60, m=12, seed=seed,
                               dist=dist)
        r = _SOLVERS[solver](ctxs, b, 3)
        assert 0 < r.steps < sum(len(c.assignable_slots()) for c in ctxs)
        assert_maximal(ctxs, r, b)

    def test_no_tasks(self, solver):
        wl = gen_workload(n_tasks=0, n_workers=50, m=10, seed=0)
        r = _SOLVERS[solver](build_task_contexts(wl), 100.0, 3)
        assert r.assignments == []
        assert (r.conflicts, r.q_sum, r.q_min, r.steps) == (0, 0.0, 0.0, 0)

    def test_one_task(self, solver):
        wl, ctxs, b = _instance(n_tasks=1, seed=0)
        r = _SOLVERS[solver](ctxs, b, 3)
        assert r.steps > 0
        assert r.conflicts == 0
        assert_valid_plan(wl, ctxs, r, b, temporal_quality(wl.m, 3))

    def test_zero_budget(self, solver):
        wl, ctxs, _ = _instance(seed=0)
        r = _SOLVERS[solver](ctxs, 0.0, 3)
        assert (r.steps, r.total_cost, r.q_sum, r.conflicts) == (0, 0.0, 0.0, 0)
        assert_valid_plan(wl, ctxs, r, 0.0, temporal_quality(wl.m, 3))


def _ctx(task_id, workers, costs, m=2):
    """A task whose candidates at every slot are ``workers`` (ascending cost),
    padded with ``-1`` / ``inf`` to ``DEFAULT_TOP_R + 1`` columns."""
    pad = DEFAULT_TOP_R + 1 - len(workers)
    return TaskContext(
        task_id=task_id, x=0.0, y=0.0, m=m,
        slot_workers=np.tile(np.pad(np.asarray(workers, dtype=np.int64),
                                    (0, pad), constant_values=-1), (m, 1)),
        slot_costs=np.tile(np.pad(np.asarray(costs, dtype=np.float64),
                                  (0, pad), constant_values=np.inf), (m, 1)),
    )


class TestClaimLedger:
    """The Conflicting Table shared by every multi-task solver."""

    def test_bump_skips_claimed_workers(self):
        ctxs = [_ctx(0, [10, 11, 12], [1.0, 2.0, 3.0]),
                _ctx(1, [11, 10, 12], [1.0, 2.0, 3.0])]
        ledger = ClaimLedger(ctxs)
        ledger.claim(1, 0)  # task 1 takes worker 11 at slot 0
        assert ledger.worker(0, 0) == 10
        ledger.record(0, 0)  # task 0 takes worker 10 without bumping
        # Task 1's next rank is worker 10, already claimed: skip to 12.
        assert ledger.bump(1, 0) == 12
        assert ledger.ranks[1][0] == 2
        assert ledger.cost(1, 0) == 3.0
        assert ledger.bumps == 1

    def test_bump_past_top_r_is_unassignable(self):
        ctxs = [_ctx(0, [10, 11], [1.0, 2.0]), _ctx(1, [10, 11], [1.0, 2.0])]
        ledger = ClaimLedger(ctxs)
        ledger.claim(0, 0)  # takes 10, bumps task 1 to 11
        ledger.claim(0, 1)
        assert ledger.worker(1, 0) == 11
        assert ledger.bump(1, 0) == -1  # only two candidates retained
        assert ledger.worker(1, 0) == -1
        assert ledger.cost(1, 0) == np.inf

    def test_claim_returns_exactly_the_bumped_rivals(self):
        ctxs = [_ctx(0, [10, 11], [1.0, 2.0]),
                _ctx(1, [10, 12], [1.0, 2.0]),
                _ctx(2, [11, 10], [1.0, 2.0]),
                _ctx(3, [10, 11], [1.0, 2.0])]
        ledger = ClaimLedger(ctxs)
        worker, cost, rivals = ledger.claim(0, 1)
        assert (worker, cost) == (10, 1.0)
        assert rivals == [1, 3]  # task 2's current worker is 11
        assert [ledger.worker(t, 1) for t in range(4)] == [10, 12, 11, 11]
        assert [ledger.worker(t, 0) for t in range(4)] == [10, 10, 11, 10]
        assert ledger.bumps == 2

    def test_plan_records_claims_and_result_sorts_them(self):
        ctxs = [_ctx(0, [10, 11], [1.0, 2.0], m=3),
                _ctx(1, [10, 11], [0.5, 4.0], m=3)]
        ledger = ClaimLedger(ctxs)
        ledger.claim(0, 2)  # worker 10; task 1 is bumped to 11 at slot 2
        ledger.claim(1, 2)
        ledger.record(0, 0)
        # The plan keeps commit order.
        assert [(a.exec_slots, a.workers, a.cost) for a in ledger.plan] == [
            ([2, 0], [10, 10], 2.0), ([2], [11], 4.0)]
        r = ledger.result([0.25, 0.5], [{"steps": 2}, {"steps": 1}])
        assert [(a.exec_slots, a.workers, a.cost, a.quality, a.stats)
                for a in r.assignments] == [
            ([0, 2], [10, 10], 2.0, 0.25, {"steps": 2}),
            ([2], [11], 4.0, 0.5, {"steps": 1}),
        ]
        assert (r.conflicts, r.q_sum, r.total_cost, r.steps) == (1, 0.75, 6.0, 3)
        assert r.commits == [(0, 2), (1, 2), (0, 0)]

    @pytest.mark.parametrize("top_r", [DEFAULT_TOP_R, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_rivals_match_a_scan_of_every_task(self, monkeypatch, seed, top_r):
        """Through claims, bare records and lazy bumps (the task-parallel
        merge), a claim's rivals are exactly the other tasks whose current
        worker it takes, in task-id order.  With two retained candidates,
        bumps run tasks out of workers, and a task at −1 is nobody's rival."""
        monkeypatch.setattr(assignment, "DEFAULT_TOP_R", top_r)
        _, ctxs, _ = _instance(n_tasks=12, n_workers=30, m=10, seed=seed,
                               dist="gaussian")
        ledger = ClaimLedger(ctxs)
        rng = np.random.default_rng(seed)
        n_rivals = 0
        for p in rng.permutation(len(ctxs) * 10):
            i, slot = divmod(int(p), 10)
            worker = ledger.worker(i, slot)
            if worker == -1:
                continue
            if (worker, slot) in ledger.claimed:
                ledger.bump(i, slot)
            elif rng.random() < 0.3:
                ledger.record(i, slot)
            else:
                want = [t for t in range(len(ctxs))
                        if t != i and ledger.worker(t, slot) == worker]
                assert ledger.claim(i, slot)[2] == want
                n_rivals += len(want)
        assert n_rivals > 0
        if top_r == 2:
            assert (ledger.ranks == 2).any()  # some task ran past its list

    def test_rem_is_budget_minus_costs_summed_in_commit_order(self):
        ctxs = [_ctx(t, [10 + t], [c]) for t, c in enumerate((0.1, 0.2, 0.3))]
        ledger = ClaimLedger(ctxs, 1.0)
        for t in range(3):
            ledger.claim(t, 0)
        assert repr(ledger.spent) == repr(0.0 + 0.1 + 0.2 + 0.3)
        assert repr(ledger.rem) == repr(1.0 - (0.0 + 0.1 + 0.2 + 0.3))
        # Not the bits of subtracting each cost in turn.
        assert repr(ledger.rem) != repr(1.0 - 0.1 - 0.2 - 0.3)

    def test_a_cost_equal_to_rem_is_affordable(self):
        ctxs = [_ctx(0, [10], [1.0], m=1), _ctx(1, [11], [2.0], m=1),
                _ctx(2, [12], [np.nextafter(2.0, np.inf)], m=1)]
        ledger = ClaimLedger(ctxs, 3.0)
        ledger.claim(0, 0)
        assert ledger.rem == 2.0
        assert [ledger.affordable(t, 0) for t in range(3)] == [True, True, False]
        # Task 0's one slot is executed, so it has nothing left to afford.
        assert [ledger.any_affordable(t) for t in range(3)] == [False, True, False]

    def test_inf_cost_is_unaffordable_under_the_default_budget(self):
        ledger = ClaimLedger([_ctx(0, [], [], m=2), _ctx(1, [10], [1e300], m=2)])
        assert ledger.rem == np.inf
        assert not ledger.affordable(0, 0)
        assert not ledger.any_affordable(0)
        assert ledger.affordable(1, 1) and ledger.any_affordable(1)

    def test_only_claims_are_charged(self):
        ctxs = [_ctx(0, [10, 11], [1.0, 2.0]), _ctx(1, [10, 11], [1.0, 2.0])]
        ledger = ClaimLedger(ctxs, 10.0)
        assert ledger.claim(0, 0)[2] == [1]  # bumps task 1 to worker 11
        assert (ledger.spent, ledger.rem) == (1.0, 9.0)
        ledger.bump(1, 1)
        assert ledger.bumps == 2
        assert (ledger.spent, ledger.rem) == (1.0, 9.0)
        ledger.record(1, 0)
        assert (ledger.spent, ledger.rem) == (3.0, 7.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_pair_claimed_twice(self, seed):
        """Any claim sequence over distinct (task, slot) pairs takes
        distinct (worker, slot) pairs, and a repeated claim is refused."""
        _, ctxs, _ = _instance(n_tasks=10, n_workers=40, m=12, seed=seed,
                               dist="gaussian")
        ledger = ClaimLedger(ctxs)
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(len(ctxs)) for j in range(12)]
        taken, owners = [], []
        for p in rng.permutation(len(pairs)):
            i, slot = pairs[p]
            if ledger.worker(i, slot) == -1:
                continue
            worker, _, _ = ledger.claim(i, slot)
            taken.append((worker, slot))
            owners.append(i)
        assert len(taken) == len(set(taken)) == len(ledger.claimed)
        assert ledger.bumps > 0
        with pytest.raises(ValueError):
            ledger.record(owners[0], taken[0][1])
