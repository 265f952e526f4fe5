"""Serial in-process twins of ``ProcessEngine``'s shuffle exchanges.

Moved verbatim from the bottom of ``repro/parallel/engine.py``.  Each
runs the identical per-partition kernels
(:mod:`repro.parallel.kernels`) serially in this process, combining in
partition order, so ``tests/test_parallel_exec.py`` can require the
process backend's exchanges to agree with them bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.parallel import kernels


def serial_kmeans(
    parts: Sequence[Tuple[int, np.ndarray]],
    k: int,
    iterations: int,
    seed: int,
) -> np.ndarray:
    """In-process twin of :meth:`ProcessEngine.partitioned_kmeans`."""
    pts_parts = [np.asarray(p) for _, p in parts]
    centroids = kernels.kmeans_init(
        np.concatenate(pts_parts, axis=0), k, seed
    )
    for _ in range(iterations):
        partials = [
            kernels.kmeans_partials(p, centroids) for p in pts_parts
        ]
        centroids = kernels.kmeans_combine(centroids, partials)
    return centroids


def serial_knn_mean(
    parts: Sequence[Tuple[int, np.ndarray]],
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """In-process twin of :meth:`ProcessEngine.partitioned_knn_mean`."""
    queries = np.asarray(queries)
    partials = [
        kernels.knn_partials(np.asarray(p), queries, int(k))
        for _, p in parts
    ]
    return kernels.knn_combine(partials, int(k))


def serial_equi_join(
    parts_a: Sequence[Tuple[int, np.ndarray]],
    parts_b: Sequence[Tuple[int, np.ndarray]],
) -> np.ndarray:
    """In-process twin of :meth:`ProcessEngine.partitioned_equi_join`."""
    nodes = sorted({n for n, _ in parts_a} | {n for n, _ in parts_b})
    if not nodes:
        return np.empty(0, dtype=np.int64)
    buckets = len(nodes)
    splits_a = [
        kernels.join_split(np.asarray(keys, dtype=np.int64), buckets)
        for _, keys in parts_a
    ]
    splits_b = [
        kernels.join_split(np.asarray(keys, dtype=np.int64), buckets)
        for _, keys in parts_b
    ]
    per_node = []
    for b in range(buckets):
        side_a = kernels.concat_keys([s[b] for s in splits_a])
        side_b = kernels.concat_keys([s[b] for s in splits_b])
        per_node.append(kernels.join_local(side_a, side_b))
    return np.sort(kernels.concat_keys(per_node))
