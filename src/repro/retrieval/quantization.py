"""Product quantization (PQ) — the traditional ANN baseline.

Paper §IV-C-1: *"the similarity between two nodes in our approach is
calculated based on the attention mechanism, which is more complex and
hard to directly use traditional nearest neighbor search approach such
as product quantification"* — which is why AMCAD ships the exact MNN
search instead.

This module implements classic PQ (Jégou et al., the paper's ref. [31])
so that claim can be *measured*: a :class:`PQIndex` quantises vectors
into per-block codebooks and answers queries with asymmetric distance
computation (ADC) over Euclidean distance.  It is exactly the tool that
works well for flat dot-product/L2 retrieval and structurally cannot
express the per-pair attention-weighted sum of geodesic subspace
distances; ``benchmarks/bench_pq_vs_mnn.py`` quantifies the recall gap.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np


#: float64 elements allowed in one ``(rows, k, dim)`` broadcast block —
#: bounds the peak memory of the exact re-check in
#: :func:`assign_to_centroids` at ~32 MB (the ``(rows, k)`` distance
#: blocks use the same budget)
_ASSIGN_BLOCK_ELEMENTS = 2 ** 22
#: relative gap under which a row's two nearest centroids count as
#: tied: far above the rounding of either distance form at any
#: practical ``dim`` (see :func:`_tie_rtol`)
_TIE_RTOL = 1e-12


def _broadcast_d2(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances by the elementwise ``(rows, k, dim)`` broadcast."""
    return ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)


def _tie_rtol(dim: int, dtype: np.dtype) -> float:
    """Bound on ``|expanded - broadcast|`` distance per ``‖x‖² + ‖c‖²``.

    Both forms are within ``~(dim + 3)·eps·(‖x‖² + ‖c‖²)`` of the true
    distance; the expanded form's argmin can only differ from the
    broadcast one when its best and second-best distances are closer
    than twice that.
    """
    return max(_TIE_RTOL, 8 * (dim + 3) * float(np.finfo(dtype).eps))


def assign_to_centroids(data: np.ndarray, centroids: np.ndarray,
                        block_rows: Optional[int] = None) -> np.ndarray:
    """Nearest-centroid assignment, equal to the broadcast ``argmin``.

    Distances come from the BLAS expansion ``‖x‖² + ‖c‖² − 2x·cᵀ``, one
    block of rows at a time.  That form rounds differently from the
    elementwise ``((x − c)²).sum()``, so every row whose best and
    second-best expanded distances lie within the rounding bound
    :func:`_tie_rtol` (exact ties, duplicate centroids), or which holds
    a non-finite distance, is re-assigned with the elementwise
    broadcast.  Every other row has a margin wider than both forms'
    rounding, so its argmin is the same under either; assignments
    therefore equal the full broadcast's, first-index tie-breaking
    included.  Peak memory stays bounded by ``block_rows`` regardless
    of ``n``.
    """
    n = data.shape[0]
    k, dim = centroids.shape
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    if block_rows is None:
        block_rows = max(1, _ASSIGN_BLOCK_ELEMENTS // max(k, 1))
    check_rows = max(1, min(block_rows,
                            _ASSIGN_BLOCK_ELEMENTS // max(k * dim, 1)))
    c_norm2 = np.einsum("ij,ij->i", centroids, centroids)
    rtol = _tie_rtol(dim, np.result_type(data, centroids))
    assign = np.empty(n, dtype=np.int64)
    for start in range(0, n, block_rows):
        chunk = data[start:start + block_rows]
        x_norm2 = np.einsum("ij,ij->i", chunk, chunk)
        d2 = x_norm2[:, None] + c_norm2[None, :] - 2.0 * (chunk @ centroids.T)
        assign[start:start + chunk.shape[0]] = np.argmin(d2, axis=1)
        nearest2 = np.partition(d2, 1, axis=1)[:, :2]
        tol = rtol * (x_norm2 + c_norm2.max())
        # rows with any non-finite distance (inf/NaN inputs, overflow)
        # are re-checked too: their NaNs order differently in each form
        ambiguous = np.flatnonzero(~(nearest2[:, 1] - nearest2[:, 0] > tol)
                                   | ~np.isfinite(d2).all(axis=1))
        for lo in range(0, ambiguous.size, check_rows):
            rows = ambiguous[lo:lo + check_rows]
            assign[start + rows] = np.argmin(
                _broadcast_d2(chunk[rows], centroids), axis=1)
    return assign


def _cluster_sums(data: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster row sums, added in the order ``members.sum(axis=0)`` uses.

    numpy reduces a multi-column float block row by row from ``+0.0``
    in the block's dtype; one scatter-add over the rows in order does
    the same for every cluster at once.  A single column is instead
    summed pairwise, so that case reduces each cluster's members
    directly.
    """
    if data.shape[1] == 1:
        return np.array([[data[assign == j, 0].sum()] for j in range(k)])
    sums = np.zeros((k, data.shape[1]), dtype=data.dtype)
    np.add.at(sums, assign, data)
    return sums


def _kmeans(rng: np.random.Generator, data: np.ndarray, k: int,
            iterations: int = 12) -> np.ndarray:
    """Lightweight Lloyd's k-means returning ``(k, dim)`` centroids.

    Each update sets a cluster's centroid to its members' mean, computed
    exactly as a masked ``members.mean(axis=0)`` would (see
    :func:`_cluster_sums`) without one pass over the data per cluster.
    """
    n = data.shape[0]
    k = min(k, n)
    picks = rng.choice(n, size=k, replace=False)
    centroids = data[picks].copy()
    for _ in range(iterations):
        assign = assign_to_centroids(data, centroids)
        counts = np.bincount(assign, minlength=k)
        sums = _cluster_sums(data, assign, k)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        for j in np.flatnonzero(~filled):   # re-seed empty clusters
            centroids[j] = data[int(rng.integers(n))]
    return centroids


@dataclasses.dataclass
class PQIndex:
    """Product-quantisation index with asymmetric distance computation.

    Parameters
    ----------
    num_blocks:
        How many sub-vectors each vector is split into (M in PQ papers).
    codebook_size:
        Centroids per block (k*; 256 in the classic setup, smaller here).
    """

    num_blocks: int = 4
    codebook_size: int = 32
    seed: int = 0

    def __post_init__(self):
        self._codebooks: Optional[np.ndarray] = None  # (blocks, k, block_dim)
        self._codes: Optional[np.ndarray] = None      # (n, blocks) uint8
        self._dim = 0
        self._block_dim = 0

    # -- build -------------------------------------------------------------

    def fit(self, vectors: np.ndarray) -> "PQIndex":
        """Train per-block codebooks and encode the database."""
        vectors = np.asarray(vectors, dtype=np.float64)
        n, dim = vectors.shape
        if dim % self.num_blocks != 0:
            raise ValueError("dim %d not divisible into %d blocks"
                             % (dim, self.num_blocks))
        self._dim = dim
        self._block_dim = dim // self.num_blocks
        rng = np.random.default_rng(self.seed)
        codebooks = []
        codes = np.zeros((n, self.num_blocks), dtype=np.int64)
        for b in range(self.num_blocks):
            block = vectors[:, b * self._block_dim:(b + 1) * self._block_dim]
            centroids = _kmeans(rng, block, self.codebook_size)
            codebooks.append(centroids)
            codes[:, b] = assign_to_centroids(block, centroids)
        # pad codebooks to a common size for stacking
        k_max = max(c.shape[0] for c in codebooks)
        stacked = np.full((self.num_blocks, k_max, self._block_dim), np.inf)
        for b, c in enumerate(codebooks):
            stacked[b, :c.shape[0]] = c
        self._codebooks = stacked
        self._codes = codes
        return self

    @property
    def is_fitted(self) -> bool:
        return self._codes is not None

    @property
    def num_vectors(self) -> int:
        return 0 if self._codes is None else self._codes.shape[0]

    def compression_ratio(self) -> float:
        """Stored bytes of raw float64 vectors vs PQ codes."""
        raw = self._dim * 8
        coded = self.num_blocks  # one byte per block at k<=256
        return raw / coded

    # -- query ---------------------------------------------------------------

    def _adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """Asymmetric distance lookup tables, ``(q, blocks, k)``."""
        q = queries.shape[0]
        tables = np.empty((q, self.num_blocks, self._codebooks.shape[1]))
        for b in range(self.num_blocks):
            block = queries[:, b * self._block_dim:(b + 1) * self._block_dim]
            diff = block[:, None, :] - self._codebooks[b][None, :, :]
            with np.errstate(invalid="ignore"):
                tables[:, b] = np.square(diff).sum(axis=-1)
        return tables

    def search(self, queries: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` by quantised Euclidean distance."""
        if not self.is_fitted:
            raise RuntimeError("call fit() before search()")
        queries = np.asarray(queries, dtype=np.float64)
        tables = self._adc_tables(queries)                  # (q, B, k*)
        # gather per-database-vector distances from the tables
        q = queries.shape[0]
        scores = np.zeros((q, self.num_vectors))
        for b in range(self.num_blocks):
            scores += tables[:, b, :][:, self._codes[:, b]]
        k = min(k, self.num_vectors)
        top = np.argpartition(scores, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(q)[:, None]
        order = np.argsort(scores[rows, top], axis=1)
        ids = top[rows, order]
        return ids, scores[rows, ids]


def recall_at_k(approx_ids: np.ndarray, exact_ids: np.ndarray,
                k: int) -> float:
    """Mean fraction of the exact top-k recovered by the approximate top-k."""
    hits = 0
    for approx_row, exact_row in zip(approx_ids, exact_ids):
        hits += len(set(approx_row[:k].tolist())
                    & set(exact_row[:k].tolist()))
    return hits / (approx_ids.shape[0] * k)
