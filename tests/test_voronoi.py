"""Tests for the exact 1-D order-k Voronoi diagram (Section III-C, Lemma 8)."""
import numpy as np
import pytest

from tests.voronoi import knn_set, order_k_cells


class TestOrderKCells:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_cells_partition_the_timeline(self, k, seed):
        rng = np.random.default_rng(seed)
        m = 40
        ex = np.sort(rng.choice(m, size=rng.integers(1, 8), replace=False))
        cells = order_k_cells(ex, m, k)
        covered = []
        for l, r, _ in cells:
            assert l <= r
            covered.extend(range(l, r + 1))
        assert covered == list(range(m))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_slot_in_cell_shares_the_knn_set(self, k, seed):
        rng = np.random.default_rng(seed + 50)
        m = 30
        ex = np.sort(rng.choice(m, size=rng.integers(1, 8), replace=False))
        for l, r, ks in order_k_cells(ex, m, k):
            for s in range(l, r + 1):
                assert knn_set(ex, m, k, s) == ks

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adjacent_cells_differ(self, k):
        ex = np.array([3, 9, 15, 22])
        cells = order_k_cells(ex, 30, k)
        for (_, _, a), (_, _, b) in zip(cells, cells[1:]):
            assert a != b

    def test_paper_fig3_example(self):
        """Fig 3(c): executed {2,4,7,9} (1-based), k=2 — the cell containing
        slots 1..4 has 2-NN set {2,4} (V(τ2, τ4))."""
        ex = np.array([1, 3, 6, 8])  # 0-based
        cells = order_k_cells(ex, 100, 2)
        first = cells[0]
        assert first[0] == 0
        assert first[2] == frozenset({1, 3})
        # All slots 0..3 (1-based 1..4) share it.
        assert first[1] >= 3

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_cell_count_is_linear_in_sites(self, k, seed):
        """Okabe et al.: the number of order-k cells is O(k(m−k)) — in 1-D
        with n_e sites it is at most ~2·k·n_e, far below m for sparse sites."""
        rng = np.random.default_rng(seed)
        m = 200
        ex = np.sort(rng.choice(m, size=5, replace=False))
        cells = order_k_cells(ex, m, k)
        assert len(cells) <= 2 * k * len(ex) + 1


class TestLemma8:
    """If knn(l) == knn(r) then every slot in [l, r] shares that k-NN set."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_lemma8_holds(self, k, seed):
        rng = np.random.default_rng(seed + 7)
        m = 50
        ex = np.sort(rng.choice(m, size=rng.integers(1, 10), replace=False))
        for _ in range(30):
            l = int(rng.integers(0, m - 1))
            r = int(rng.integers(l, m))
            if knn_set(ex, m, k, l) == knn_set(ex, m, k, r):
                for e in range(l, r + 1):
                    assert knn_set(ex, m, k, e) == knn_set(ex, m, k, l)
