"""Worker-conflict independence graph over the tasks' ranked worker lists.

Reproduces the paper's Fig 4 gradual (d+1)-NN-bound expansion:

1. every task's top-r candidate list per slot (:class:`TaskContext`, ranked
   once by :func:`repro.core.assignment.build_task_contexts`) gives each
   (task, slot, worker) instance its 1-based rank — rank 1 is the lowest-cost
   worker the task would claim;
2. start every task at bound 1 (its 1-NN circle); any two tasks sharing a
   worker instance within their current bounds get a conflict edge;
3. a node of degree d expands to its (d+1)-NN bound; repeat until a round
   adds no edge.  The loop ends because edges only grow, to at most
   |T|(|T|−1)/2;
4. connected components of the resulting independence graph are the groups
   that can be optimized in parallel.

Only this fixpoint makes groups independent: a task's rank at a slot moves
only past workers its neighbours claim, one per neighbour, so it stays
within its (d+1)-NN bound, out of reach of every other group's claims.

Everything runs on the driver.  The input is at most |T|·m·top_r instances,
already in driver memory as the contexts; one pandas self-merge on
(slot, worker) collects every shared instance as ``(ta, tb, rank_a,
rank_b)``, and each expansion round is a vectorized filter over those pairs.
Components are computed with union-find on the edge list.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from repro.core.assignment import TaskContext


def _shared_instances(ctxs: list[TaskContext]) -> pd.DataFrame:
    """Every worker instance in two tasks' top-r lists: ``ta < tb`` and the
    instance's 1-based rank in each list."""
    W = np.stack([c.slot_workers for c in ctxs])
    task, slot, rank = np.nonzero(W >= 0)
    inst = pd.DataFrame(
        {"task": task, "slot": slot, "worker": W[task, slot, rank], "rank": rank + 1}
    )
    pairs = inst.merge(inst, on=["slot", "worker"], suffixes=("_a", "_b"))
    return pairs[pairs["task_a"] < pairs["task_b"]]


def conflict_edges(
    ctxs: list[TaskContext],
) -> tuple[set[tuple[int, int]], dict[int, int], int]:
    """Gradual NN-bound expansion.  Returns (edges, final bounds, rounds).

    Task ids must be the contexts' positions 0 … |T|−1, as for a
    :class:`repro.workloads.Workload`.
    """
    if not ctxs:
        return set(), {}, 0
    pairs = _shared_instances(ctxs)
    ta, tb = pairs["task_a"].to_numpy(), pairs["task_b"].to_numpy()
    ra, rb = pairs["rank_a"].to_numpy(), pairs["rank_b"].to_numpy()
    bound = np.ones(len(ctxs), dtype=np.int64)
    edges: set[tuple[int, int]] = set()
    for rounds in itertools.count(1):
        live = (ra <= bound[ta]) & (rb <= bound[tb])
        new = set(zip(ta[live].tolist(), tb[live].tolist())) - edges
        if not new:
            return edges, dict(enumerate(bound.tolist())), rounds
        edges |= new
        bound = np.bincount(np.array(list(edges)).ravel(), minlength=len(ctxs)) + 1


def connected_components(
    n_tasks: int, edges: set[tuple[int, int]]
) -> pd.DataFrame:
    """Union-find over the conflict edges → ``(task_id, group_id)``."""
    parent = list(range(n_tasks))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = [find(t) for t in range(n_tasks)]
    # Renumber roots densely for stable group ids.
    remap = {r: i for i, r in enumerate(sorted(set(roots)))}
    return pd.DataFrame(
        {"task_id": range(n_tasks), "group_id": [remap[r] for r in roots]}
    )


def build_groups(
    ctxs: list[TaskContext],
) -> tuple[pd.DataFrame, set[tuple[int, int]], dict]:
    """Full pipeline: shared ranked instances → expansion → components."""
    edges, _, rounds = conflict_edges(ctxs)
    groups = connected_components(len(ctxs), edges)
    sizes = np.bincount(groups["group_id"].to_numpy(np.int64))
    stats = {
        "n_edges": len(edges),
        "n_groups": len(sizes),
        "max_group": int(sizes.max(initial=0)),
        "expansion_rounds": rounds,
    }
    return groups, edges, stats
