"""Broadcast nearest-centroid assignment and per-cluster-loop k-means."""

import numpy as np


def broadcast_assign(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``argmin`` over the full ``(n, k, dim)`` squared-difference tensor."""
    d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    return np.argmin(d2, axis=1)


def loop_kmeans(rng: np.random.Generator, data: np.ndarray, k: int,
                iterations: int = 12) -> np.ndarray:
    """Lloyd's k-means with one masked ``mean`` per cluster."""
    n = data.shape[0]
    k = min(k, n)
    picks = rng.choice(n, size=k, replace=False)
    centroids = data[picks].copy()
    for _ in range(iterations):
        assign = broadcast_assign(data, centroids)
        for j in range(k):
            members = data[assign == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
            else:  # re-seed empty clusters
                centroids[j] = data[int(rng.integers(n))]
    return centroids
