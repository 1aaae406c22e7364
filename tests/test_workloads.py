"""Tests for the TCSC workload generators (DESIGN.md §2 substitutes)."""
import numpy as np
import pytest

from repro.core.assignment import build_task_contexts
from repro.core.multi_greedy import solve_msqm_serial
from repro.workloads import (
    DEFAULT_DOMAIN,
    DISTRIBUTIONS,
    gen_tasks,
    gen_workers,
    gen_workload,
)


class TestGenTasks:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_shape_and_columns(self, dist):
        t = gen_tasks(50, dist=dist, m=20, seed=0)
        assert list(t.columns) == ["task_id", "x", "y", "m"]
        assert len(t) == 50
        assert (t["m"] == 20).all()
        assert t["task_id"].tolist() == list(range(50))

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_within_domain(self, dist):
        t = gen_tasks(200, dist=dist, seed=1)
        assert (t.x >= 0).all() and (t.x <= DEFAULT_DOMAIN).all()
        assert (t.y >= 0).all() and (t.y <= DEFAULT_DOMAIN).all()

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_deterministic_in_seed(self, dist):
        a = gen_tasks(30, dist=dist, seed=7)
        b = gen_tasks(30, dist=dist, seed=7)
        assert a.equals(b)

    def test_seeds_differ(self):
        a = gen_tasks(30, seed=1)
        b = gen_tasks(30, seed=2)
        assert not a.equals(b)

    def test_unknown_dist_raises(self):
        with pytest.raises(ValueError):
            gen_tasks(10, dist="cauchy")

    def test_gaussian_concentrated_near_center(self):
        """Paper parameters: μ = center, σ = side/6 → most mass is central."""
        t = gen_tasks(2000, dist="gaussian", seed=3)
        c = DEFAULT_DOMAIN / 2
        frac_central = (
            (abs(t.x - c) < DEFAULT_DOMAIN / 3)
            & (abs(t.y - c) < DEFAULT_DOMAIN / 3)
        ).mean()
        assert frac_central > 0.9

    def test_zipf_is_skewed(self):
        """Zipf(1) occupancy: the busiest grid cell holds far more tasks
        than the uniform share."""
        t = gen_tasks(2000, dist="zipf", seed=4)
        side = 16
        cells = (
            (t.x // (DEFAULT_DOMAIN / side)).astype(int) * side
            + (t.y // (DEFAULT_DOMAIN / side)).astype(int)
        )
        top = cells.value_counts().iloc[0]
        assert top > 5 * (2000 / side**2)


class TestGenWorkers:
    def test_columns_and_types(self):
        w = gen_workers(100, n_slots=20, seed=0)
        assert list(w.columns) == ["worker_id", "slot", "x", "y"]

    def test_no_workers_is_an_empty_frame(self):
        w = gen_workers(0, n_slots=20, seed=0)
        assert len(w) == 0
        assert w.dtypes.to_dict() == gen_workers(3, n_slots=20).dtypes.to_dict()

    def test_active_windows_1_to_5_consecutive(self):
        """Paper: trajectories are cut into pieces of 1–5 time slots."""
        w = gen_workers(300, n_slots=40, seed=1)
        for wid, grp in w.groupby("worker_id"):
            slots = np.sort(grp["slot"].to_numpy())
            assert 1 <= len(slots) <= 5
            assert (np.diff(slots) == 1).all()

    def test_slots_within_horizon(self):
        w = gen_workers(200, n_slots=15, seed=2)
        assert (w.slot >= 0).all() and (w.slot < 15).all()

    def test_positions_within_domain(self):
        w = gen_workers(200, n_slots=20, seed=3)
        assert (w.x >= 0).all() and (w.x <= DEFAULT_DOMAIN).all()
        assert (w.y >= 0).all() and (w.y <= DEFAULT_DOMAIN).all()

    def test_deterministic_in_seed(self):
        assert gen_workers(50, n_slots=10, seed=5).equals(
            gen_workers(50, n_slots=10, seed=5)
        )

    def test_trajectory_is_a_walk(self):
        """Consecutive positions move by bounded steps (not i.i.d. jumps)."""
        w = gen_workers(500, n_slots=30, speed=0.01, seed=6)
        for wid, grp in list(w.groupby("worker_id"))[:50]:
            g = grp.sort_values("slot")
            if len(g) < 2:
                continue
            steps = np.hypot(np.diff(g.x), np.diff(g.y))
            assert (steps < 0.1 * DEFAULT_DOMAIN).all()


class TestWorkload:
    def test_zero_workers_solve_to_empty_plans(self):
        wl = gen_workload(n_tasks=1, n_workers=0, m=30, seed=5)
        r = solve_msqm_serial(build_task_contexts(wl), 100.0, 3)
        assert [a.exec_slots for a in r.assignments] == [[]]
        assert r.q_sum == 0.0

    def test_gen_workload_consistency(self):
        wl = gen_workload(n_tasks=7, n_workers=50, m=12, seed=0)
        assert wl.n_tasks == 7
        assert wl.m == 12
        assert (wl.workers.slot < 12).all()
