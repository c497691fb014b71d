"""Tests for the product-quantization ANN baseline."""

import numpy as np
import pytest

from repro.retrieval.quantization import (PQIndex, assign_to_centroids,
                                          recall_at_k, _kmeans)
from reference.kmeans import broadcast_assign, loop_kmeans


class TestAssignToCentroids:
    def test_blocked_matches_full_broadcast(self):
        """Any block size gives bit-identical assignments to the naive
        full ``(n, k, dim)`` broadcast it replaces."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(257, 6))
        centroids = rng.normal(size=(9, 6))
        d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        full = np.argmin(d2, axis=1)
        for block_rows in (1, 7, 64, 257, 10_000):
            blocked = assign_to_centroids(data, centroids,
                                          block_rows=block_rows)
            assert np.array_equal(blocked, full)

    def test_default_block_bounds_memory(self):
        """The default block size caps the per-block tensor elements."""
        from repro.retrieval.quantization import _ASSIGN_BLOCK_ELEMENTS
        k, dim = 64, 16
        block_rows = max(1, _ASSIGN_BLOCK_ELEMENTS // (k * dim))
        assert block_rows * k * dim <= _ASSIGN_BLOCK_ELEMENTS


class TestBroadcastParity:
    """The BLAS-expansion assignment and the scatter-add k-means equal the
    broadcast ``argmin`` and per-cluster ``mean`` loop they replace, bit
    for bit — including ties the expansion cannot resolve itself."""

    def test_exact_midpoint_ties(self, monkeypatch):
        # rows on the plane x=0 are exactly equidistant from centroids 0
        # and 2; the broadcast picks the first, and so must the expansion
        from repro.retrieval import quantization
        checked = []
        original = quantization._broadcast_d2
        monkeypatch.setattr(quantization, "_broadcast_d2",
                            lambda rows, c: checked.append(len(rows))
                            or original(rows, c))
        centroids = np.array([[1.0, 0, 0], [5, 5, 5], [-1, 0, 0], [0, 3, 0]])
        rng = np.random.default_rng(5)
        data = np.zeros((50, 3))
        data[:, 1:] = np.round(rng.uniform(-1, 1, size=(50, 2)), 2)
        assign = assign_to_centroids(data, centroids)
        assert np.array_equal(assign, broadcast_assign(data, centroids))
        assert sum(checked) == 50 and set(assign.tolist()) <= {0, 3}

    def test_duplicate_centroids_take_the_first(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(200, 5))
        centroids = data[[3, 17, 3, 40, 17]].copy()
        assign = assign_to_centroids(data, centroids, block_rows=32)
        assert np.array_equal(assign, broadcast_assign(data, centroids))
        assert not np.isin(assign, [2, 4]).any()

    def test_non_finite_rows_match(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 3))
        data[3, 1] = np.inf
        data[7, 0] = np.nan
        data[9] = 1e200
        centroids = rng.normal(size=(6, 3))
        centroids[4, 2] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(assign_to_centroids(data, centroids),
                                  broadcast_assign(data, centroids))

    @pytest.mark.parametrize("seed", range(60))
    def test_random_cases_with_planted_ties(self, seed):
        rng = np.random.default_rng(seed)
        n, dim, k = (int(rng.integers(1, 200)), int(rng.integers(1, 12)),
                     int(rng.integers(1, 24)))
        data = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
        if seed % 3 == 0:
            data = np.round(data, 1)   # duplicate rows and signed zeros
        if seed % 4 == 1:
            data = data.astype(np.float32)
        centroids = data[rng.integers(0, n, size=k)].copy()
        if k > 2:
            centroids[1] = centroids[0]
            data[: n // 2] = (centroids[0] + centroids[-1]) / 2
        for block_rows in (None, 1, 13):
            assert np.array_equal(
                assign_to_centroids(data, centroids, block_rows=block_rows),
                broadcast_assign(data, centroids))
        iterations = int(rng.integers(1, 6))
        fast_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        fast = _kmeans(fast_rng, data, k, iterations=iterations)
        loop = loop_kmeans(loop_rng, data, k, iterations=iterations)
        assert fast.tobytes() == loop.tobytes()
        assert (fast_rng.bit_generator.state
                == loop_rng.bit_generator.state)

    def test_empty_clusters_reseed_in_the_same_order(self):
        # two distinct rows, twelve centroids: duplicate centroids leave
        # clusters empty, and their re-seeds must draw identically
        data = np.repeat([[0.0, 0.0], [1.0, 1.0]], 30, axis=0)
        fast_rng, loop_rng, picks_only = (np.random.default_rng(2)
                                          for _ in range(3))
        fast = _kmeans(fast_rng, data, 12, iterations=4)
        loop = loop_kmeans(loop_rng, data, 12, iterations=4)
        picks_only.choice(60, size=12, replace=False)
        assert fast.tobytes() == loop.tobytes()
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
        assert fast_rng.bit_generator.state != picks_only.bit_generator.state


class TestKMeans:
    def test_centroids_shape(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(100, 4))
        centroids = _kmeans(rng, data, k=8)
        assert centroids.shape == (8, 4)

    def test_k_capped_to_n(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3))
        centroids = _kmeans(rng, data, k=20)
        assert centroids.shape[0] == 5

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=0.0, scale=0.05, size=(50, 2))
        b = rng.normal(loc=10.0, scale=0.05, size=(50, 2))
        centroids = _kmeans(rng, np.vstack([a, b]), k=2)
        norms = np.linalg.norm(centroids, axis=1)
        assert min(norms) < 1.0 and max(norms) > 13.0


class TestPQIndex:
    @pytest.fixture
    def db(self):
        rng = np.random.default_rng(2)
        return rng.normal(size=(300, 8))

    def test_requires_divisible_dim(self, db):
        with pytest.raises(ValueError):
            PQIndex(num_blocks=3).fit(db)

    def test_search_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PQIndex().search(np.zeros((1, 8)), k=3)

    def test_search_shapes_sorted(self, db):
        index = PQIndex(num_blocks=4, codebook_size=16, seed=0).fit(db)
        ids, dists = index.search(db[:5], k=7)
        assert ids.shape == (5, 7)
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_self_query_recalls_self(self, db):
        """A database vector's nearest neighbour should be itself (coded)."""
        index = PQIndex(num_blocks=4, codebook_size=32, seed=0).fit(db)
        ids, __ = index.search(db[:20], k=5)
        hits = sum(1 for i in range(20) if i in ids[i])
        assert hits >= 15

    def test_high_recall_on_euclidean_truth(self, db):
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(20, 8))
        index = PQIndex(num_blocks=4, codebook_size=32, seed=0).fit(db)
        approx, __ = index.search(queries, k=10)
        d2 = ((queries[:, None, :] - db[None, :, :]) ** 2).sum(-1)
        exact = np.argsort(d2, axis=1)[:, :10]
        assert recall_at_k(approx, exact, 10) > 0.5

    def test_compression_ratio(self, db):
        index = PQIndex(num_blocks=4, codebook_size=16).fit(db)
        assert index.compression_ratio() == (8 * 8) / 4

    def test_k_capped(self, db):
        index = PQIndex(num_blocks=2, codebook_size=8, seed=0).fit(db)
        ids, __ = index.search(db[:2], k=10 ** 6)
        assert ids.shape[1] == db.shape[0]


class TestRecall:
    def test_recall_bounds(self):
        approx = np.array([[1, 2, 3]])
        exact = np.array([[1, 2, 3]])
        assert recall_at_k(approx, exact, 3) == 1.0
        assert recall_at_k(np.array([[7, 8, 9]]), exact, 3) == 0.0

    def test_partial_recall(self):
        approx = np.array([[1, 9, 8]])
        exact = np.array([[1, 2, 3]])
        assert recall_at_k(approx, exact, 3) == pytest.approx(1 / 3)
