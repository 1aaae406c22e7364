"""TCSC workload generators (tasks, workers, trajectories).

Substitutes for the paper's datasets (see DESIGN.md §2):

* tasks — locations on a ``[0, L]²`` domain following ``uniform``,
  ``gaussian`` (μ = center, σ = L/6), ``zipf`` (exponent 1 over a shuffled
  grid), or ``poi`` (clustered mixture standing in for the Beijing POI set);
* workers — random-waypoint trajectories cut into active windows of 1–5
  consecutive slots, standing in for the T-Drive taxi trajectories.

Everything is deterministic in ``seed``.  Pandas frames are the native
representation; :func:`repro.core.assignment.build_task_contexts` ranks
workers from them for every solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

DISTRIBUTIONS = ("uniform", "gaussian", "zipf", "poi")

#: Default spatial domain side length (abstract distance units).
DEFAULT_DOMAIN = 1000.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def gen_tasks(
    n_tasks: int,
    *,
    dist: str = "uniform",
    m: int = 100,
    domain: float = DEFAULT_DOMAIN,
    seed: int = 0,
) -> pd.DataFrame:
    """Task locations on ``[0, domain]²`` with ``m`` subtask slots each.

    Columns: ``task_id`` (0-based), ``x``, ``y``, ``m``.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")
    g = _rng(seed)
    if dist == "uniform":
        xy = g.uniform(0, domain, size=(n_tasks, 2))
    elif dist == "gaussian":
        # Paper: mean = domain center, sigma = side length / 6.
        xy = g.normal(domain / 2, domain / 6, size=(n_tasks, 2))
        xy = np.clip(xy, 0, domain)
    elif dist == "zipf":
        # Zipf exponent 1 occupancy over a shuffled grid of cells, uniform
        # placement within the chosen cell.
        side = 16
        n_cells = side * side
        ranks = np.arange(1, n_cells + 1)
        w = 1.0 / ranks
        w /= w.sum()
        order = g.permutation(n_cells)
        cells = order[g.choice(n_cells, size=n_tasks, p=w)]
        cx, cy = cells // side, cells % side
        cell_len = domain / side
        xy = np.stack(
            [
                (cx + g.random(n_tasks)) * cell_len,
                (cy + g.random(n_tasks)) * cell_len,
            ],
            axis=1,
        )
    else:  # poi — clustered mixture with zipf-weighted cluster sizes
        n_clusters = 25
        centers = g.uniform(0, domain, size=(n_clusters, 2))
        w = 1.0 / np.arange(1, n_clusters + 1)
        w /= w.sum()
        which = g.choice(n_clusters, size=n_tasks, p=w)
        xy = centers[which] + g.normal(0, domain / 40, size=(n_tasks, 2))
        xy = np.clip(xy, 0, domain)
    return pd.DataFrame(
        {
            "task_id": np.arange(n_tasks, dtype=np.int64),
            "x": xy[:, 0],
            "y": xy[:, 1],
            "m": np.full(n_tasks, m, dtype=np.int64),
        }
    )


def gen_workers(
    n_workers: int,
    *,
    n_slots: int,
    domain: float = DEFAULT_DOMAIN,
    max_active: int = 5,
    speed: float = 0.05,
    seed: int = 1,
) -> pd.DataFrame:
    """Per-slot worker availability instances.

    Each worker follows a random-waypoint walk over the full ``n_slots``
    timeline (step scale ``speed * domain`` per slot) but is *active* only on
    one random window of 1..``max_active`` consecutive slots — the paper's
    rule for cutting T-Drive trajectories into active pieces.

    Columns: ``worker_id``, ``slot`` (0-based), ``x``, ``y``.  One row per
    (worker, active slot).
    """
    g = _rng(seed)
    lengths = g.integers(1, max_active + 1, size=n_workers)
    starts = np.array(
        [g.integers(0, max(1, n_slots - L + 1)) for L in lengths], dtype=np.int64
    )
    rows_w, rows_s, rows_x, rows_y = [], [], [], []
    pos0 = g.uniform(0, domain, size=(n_workers, 2))
    for wid in range(n_workers):
        L = int(lengths[wid])
        steps = g.normal(0, speed * domain, size=(L, 2))
        path = pos0[wid] + np.cumsum(steps, axis=0)
        path = np.clip(path, 0, domain)
        rows_w.append(np.full(L, wid, dtype=np.int64))
        rows_s.append(starts[wid] + np.arange(L, dtype=np.int64))
        rows_x.append(path[:, 0])
        rows_y.append(path[:, 1])
    # The empty leading arrays give the columns their dtypes when there are
    # no workers.
    return pd.DataFrame(
        {
            "worker_id": np.concatenate([np.empty(0, np.int64), *rows_w]),
            "slot": np.concatenate([np.empty(0, np.int64), *rows_s]),
            "x": np.concatenate([np.empty(0), *rows_x]),
            "y": np.concatenate([np.empty(0), *rows_y]),
        }
    )


@dataclass(frozen=True)
class Workload:
    """A complete TCSC problem instance: tasks + per-slot worker instances."""

    tasks: pd.DataFrame
    workers: pd.DataFrame
    m: int
    domain: float

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


def gen_workload(
    *,
    n_tasks: int,
    n_workers: int,
    m: int,
    dist: str = "uniform",
    domain: float = DEFAULT_DOMAIN,
    seed: int = 0,
) -> Workload:
    """One deterministic TCSC instance (tasks + workers share ``seed``)."""
    tasks = gen_tasks(n_tasks, dist=dist, m=m, domain=domain, seed=seed)
    workers = gen_workers(n_workers, n_slots=m, domain=domain, seed=seed + 10_000)
    return Workload(tasks=tasks, workers=workers, m=m, domain=domain)

