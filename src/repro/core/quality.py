"""Numpy reference implementation of the TCSC entropy quality metric.

Implements the paper's Section II-B exactly:

* temporal k-NN interpolation error ratio (Eq 3), with footnote 2 — each
  missing neighbour (fewer than k executed slots available) contributes the
  largest possible interpolation distance ``m``;
* subtask finishing probability (Eq 2): ``p = (1/m)(1 − ρ_err)`` for an
  unexecuted slot, ``p = 1/m`` for an executed one, ``p = 0`` when nothing is
  executed;
* task quality (Eq 1): ``q(τ) = −Σ_j p_j · log2 p_j``;
* the worker-reliability extension (Eqs 4–5): executed slot contributes
  ``λ/m``; interpolation averages neighbour reliabilities and weights the
  distances by them.  Missing neighbours enter as ``λ = 1`` at distance ``m``
  (DESIGN.md §5), so the extension degenerates to Eqs 2–3 when all λ = 1.

Slots are 0-based internally; temporal distance is the absolute slot
difference, identical to the paper's 1-based convention.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "knn_distances",
    "p_vector",
    "partial_quality",
    "quality",
    "quality_from_p",
]


def knn_distances(
    exec_sorted: np.ndarray, m: int, k: int, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """k smallest temporal distances from each query slot to executed slots.

    ``exec_sorted`` must be a sorted int array of executed slots.  Returns
    ``(dists, lams_idx)`` where ``dists`` is ``(len(queries), k)`` ascending
    with missing neighbours padded by ``m``, and ``lams_idx`` is the matching
    index into ``exec_sorted`` (−1 for a missing neighbour).  A query that is
    itself executed gets distance 0 to itself.
    """
    nq = len(queries)
    ne = len(exec_sorted)
    if ne == 0:
        return (
            np.full((nq, k), float(m)),
            np.full((nq, k), -1, dtype=np.int64),
        )
    # Candidates are the k executed slots on each side of the insertion
    # point.  Beyond either end sit pads at distance ≥ m from every slot, so
    # they sort after every real neighbour and come out as missing.
    padded = np.empty(ne + 2 * k, dtype=np.int64)
    padded[:k], padded[k : k + ne], padded[k + ne :] = -m, exec_sorted, 2 * m
    cand = padded.searchsorted(queries)[:, None] + np.arange(-k, k)
    d = np.abs(padded[cand] - queries[:, None])
    # The k nearest per row, as flat indices; the stable sort breaks ties
    # toward the earlier slot.
    pick = d.argsort(axis=1, kind="stable")[:, :k] + np.arange(0, nq * 2 * k, 2 * k)[:, None]
    d, cand = d.take(pick), cand.take(pick) - k
    missing = d >= m
    cand[missing] = -1
    return np.minimum(d, m, dtype=np.float64), cand


def p_vector(
    exec_sorted: np.ndarray,
    m: int,
    k: int,
    reliability: np.ndarray | None = None,
) -> np.ndarray:
    """Finishing probability for every slot ``0..m−1`` (Eqs 2–5).

    ``reliability`` is aligned with ``exec_sorted`` (λ of the worker that
    executed each slot); ``None`` means the unweighted metric.
    """
    exec_sorted = np.asarray(exec_sorted, dtype=np.int64)
    p = np.zeros(m, dtype=np.float64)
    if len(exec_sorted) == 0:
        return p
    is_exec = np.zeros(m, dtype=bool)
    is_exec[exec_sorted] = True
    unexec = np.nonzero(~is_exec)[0]
    dk, idx = knn_distances(exec_sorted, m, k, unexec)
    if reliability is None:
        rho = dk.sum(axis=1) / (k * m)
        p[unexec] = (1.0 - rho) / m
        p[exec_sorted] = 1.0 / m
    else:
        lam = np.asarray(reliability, dtype=np.float64)
        lam_nb = np.where(idx >= 0, lam[np.clip(idx, 0, None)], 1.0)
        rho = (lam_nb * dk).sum(axis=1) / (k * m)
        lam_avg = lam_nb.sum(axis=1) / k
        p[unexec] = (lam_avg - rho) / m
        p[exec_sorted] = lam / m
    return np.clip(p, 0.0, None)


def partial_quality(p: np.ndarray) -> np.ndarray:
    """Per-slot entropy contribution ``g(p) = −p·log2 p`` with g(0) = 0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    pos = p > 0
    out[pos] = -p[pos] * np.log2(p[pos])
    return out


def quality_from_p(p: np.ndarray) -> float:
    """Task quality (Eq 1) from a finishing-probability vector."""
    return float(partial_quality(p).sum())


def quality(
    exec_slots,
    m: int,
    k: int,
    reliability: np.ndarray | None = None,
) -> float:
    """Task quality (Eq 1) of an executed-slot set.

    ``exec_slots`` is any iterable of 0-based slot indices; ``reliability``
    aligns with the *sorted* executed slots.
    """
    e = np.sort(np.asarray(list(exec_slots), dtype=np.int64))
    if reliability is not None:
        order = np.argsort(np.asarray(list(exec_slots), dtype=np.int64))
        reliability = np.asarray(reliability, dtype=np.float64)[order]
    return quality_from_p(p_vector(e, m, k, reliability))
