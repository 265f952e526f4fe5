"""Pre-vectorization twins of the kernels in ``repro.query.operators``.

Moved verbatim.  The oracles define the semantics:
``tests/test_query_parity.py`` checks the vectorized kernels against
them — exactly on integer-valued inputs (where every float operation is
exact) and to float tolerance on continuous inputs, since the batch
kernels may reassociate reductions.  :func:`filter_region` is the
per-chunk selection the region payload reads replaced; its one caller
is the selection oracle in ``tests/test_queries.py``.

The last four — :func:`position_join_intersect1d`,
:func:`unique_rows_sorted`, :func:`window_average_arrays_sorted` and
:func:`equi_join_lookup_searchsorted` — are the *sort- and
search-based* batch kernels the offset-indexed ones replaced, kept
verbatim (the private packing aliases spelled out aside):
``tests/test_kernel_sortfree.py`` requires the production kernels to
return their arrays bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData
from repro.arrays.coords import (
    Box,
    joint_position_keys,
    pack_rows,
    region_mask,
    row_packing,
)
from repro.errors import QueryError


def filter_region(
    chunks: Iterable[ChunkData],
    region: Box,
    attrs: Sequence[str],
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Materialize the cells of ``chunks`` inside ``region``."""
    coords_parts: List[np.ndarray] = []
    value_parts: Dict[str, List[np.ndarray]] = {a: [] for a in attrs}
    for chunk in chunks:
        mask = region_mask(chunk.coords, region)
        if not mask.any():
            continue
        coords_parts.append(chunk.coords[mask])
        for a in attrs:
            value_parts[a].append(chunk.values(a)[mask])
    if not coords_parts:
        ndim = region.ndim
        return (
            np.empty((0, ndim), dtype=np.int64),
            {a: np.empty(0) for a in attrs},
        )
    return (
        np.concatenate(coords_parts, axis=0),
        {a: np.concatenate(value_parts[a]) for a in attrs},
    )


def group_count_by_grid_scalar(
    coords: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Dict[Tuple[int, ...], int]:
    """Parity oracle: per-row Python accumulation of the bucket counts."""
    out: Dict[Tuple[int, ...], int] = {}
    dims = list(dims)
    sizes = list(cell_sizes)
    for row in coords:
        bucket = tuple(int(row[d]) // s for d, s in zip(dims, sizes))
        out[bucket] = out.get(bucket, 0) + 1
    return out


def group_mean_by_grid_scalar(
    coords: np.ndarray,
    values: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Dict[Tuple[int, ...], float]:
    """Parity oracle: per-row Python accumulation of the bucket means."""
    sums: Dict[Tuple[int, ...], float] = {}
    counts: Dict[Tuple[int, ...], int] = {}
    dims = list(dims)
    sizes = list(cell_sizes)
    for row, value in zip(coords, values):
        bucket = tuple(int(row[d]) // s for d, s in zip(dims, sizes))
        sums[bucket] = sums.get(bucket, 0.0) + float(value)
        counts[bucket] = counts.get(bucket, 0) + 1
    return {b: sums[b] / counts[b] for b in sums}


def group_stats_by_grid_scalar(
    coords: np.ndarray,
    values: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Dict[Tuple[int, ...], Tuple[int, float, float, float]]:
    """Parity oracle: per-row ``(count, sum, min, max)`` accumulation."""
    out: Dict[Tuple[int, ...], Tuple[int, float, float, float]] = {}
    dims = list(dims)
    sizes = list(cell_sizes)
    for row, value in zip(coords, values):
        bucket = tuple(int(row[d]) // s for d, s in zip(dims, sizes))
        v = float(value)
        count, total, lo, hi = out.get(
            bucket, (0, 0.0, float("inf"), float("-inf"))
        )
        out[bucket] = (count + 1, total + v, min(lo, v), max(hi, v))
    return out


def window_average_scalar(
    coords: np.ndarray,
    values: np.ndarray,
    spatial_dims: Sequence[int],
    window: int,
) -> Dict[Tuple[int, ...], float]:
    """Parity oracle: mask the full cell table once per occupied bucket."""
    if coords.shape[0] == 0:
        return {}
    spatial = coords[:, list(spatial_dims)].astype(np.int64)
    buckets = spatial // window
    out: Dict[Tuple[int, ...], float] = {}
    uniq = np.unique(buckets, axis=0)
    vals = values.astype(np.float64)
    for row in uniq:
        center = (row + 0.5) * window
        dist = np.abs(spatial - center)
        mask = np.all(dist <= window, axis=1)  # overlaps neighbours
        if mask.any():
            out[tuple(int(v) for v in row)] = float(vals[mask].mean())
    return out


def kmeans_scalar(
    points: np.ndarray,
    k: int,
    iterations: int = 10,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Parity oracle: per-cluster centroid update loop."""
    if points.shape[0] == 0:
        raise QueryError("kmeans needs at least one point")
    k = min(k, points.shape[0])
    rng = np.random.default_rng(seed)
    centroids = points[
        rng.choice(points.shape[0], size=k, replace=False)
    ].astype(np.float64)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(iterations):
        dists = np.linalg.norm(
            points[:, None, :] - centroids[None, :, :], axis=2
        )
        labels = dists.argmin(axis=1)
        for j in range(k):
            member = points[labels == j]
            if member.shape[0]:
                centroids[j] = member.mean(axis=0)
    return centroids, labels


def knn_mean_distance_scalar(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """Parity oracle: one distance vector per query point."""
    if queries.shape[0] == 0:
        return np.empty(0)
    if points.shape[0] == 0:
        return np.full(queries.shape[0], np.nan)
    out = np.empty(queries.shape[0])
    pts = points.astype(np.float64)
    for i, q in enumerate(queries.astype(np.float64)):
        d = np.linalg.norm(pts - q, axis=1)
        d = d[d > 0]
        if d.size == 0:
            out[i] = np.nan
            continue
        kk = min(k, d.size)
        out[i] = float(np.sort(d)[:kk].mean())
    return out


def count_close_pairs_scalar(
    lon: np.ndarray,
    lat: np.ndarray,
    radius: float,
    segments: Optional[np.ndarray] = None,
) -> int:
    """Parity oracle: Python bucket walk with per-pair distance tests.

    Accepts the same optional ``segments`` column as the batch kernel
    (pairs must share a segment to count), so the two signatures stay
    interchangeable under the parity registry.
    """
    n = lon.shape[0]
    if n < 2:
        return 0
    gx = np.floor(lon / radius).astype(np.int64)
    gy = np.floor(lat / radius).astype(np.int64)
    if segments is None:
        seg = np.zeros(n, dtype=np.int64)
    else:
        seg = np.asarray(segments, dtype=np.int64)
    buckets: Dict[Tuple[int, int, int], List[int]] = {}
    for i in range(n):
        buckets.setdefault(
            (int(seg[i]), int(gx[i]), int(gy[i])), []
        ).append(i)
    count = 0
    r2 = radius * radius
    for (s, bx, by), members in buckets.items():
        neighbors: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighbors.extend(
                    buckets.get((s, bx + dx, by + dy), ())
                )
        for i in members:
            for j in neighbors:
                if j <= i:
                    continue
                d2 = (lon[i] - lon[j]) ** 2 + (lat[i] - lat[j]) ** 2
                if d2 <= r2:
                    count += 1
    return count


def position_join_intersect1d(
    coords_a: np.ndarray,
    values_a: np.ndarray,
    coords_b: np.ndarray,
    values_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parity oracle: ``np.intersect1d`` over the joint position keys.

    Two ``unique`` argsorts and a mergesort of both sides; a repeated
    position joins through its first occurrence on each side.
    """
    if coords_a.shape[0] == 0 or coords_b.shape[0] == 0:
        ndim = coords_a.shape[1] if coords_a.size else coords_b.shape[1]
        return (
            np.empty((0, ndim), dtype=np.int64),
            np.empty(0),
            np.empty(0),
        )
    keys_a, keys_b = joint_position_keys(coords_a, coords_b)
    _common, idx_a, idx_b = np.intersect1d(
        keys_a, keys_b, return_indices=True
    )
    return coords_a[idx_a], values_a[idx_a], values_b[idx_b]


def unique_rows_sorted(
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parity oracle: ``np.unique`` over the packed rows (``axis=0``
    over the rows themselves when their extent defeats packing)."""
    packing = row_packing(rows)
    if packing is None:
        uniq, inverse, counts = np.unique(
            rows, axis=0, return_inverse=True, return_counts=True
        )
        return uniq, inverse, counts
    lo, span = packing
    keys = pack_rows(rows, lo, span)
    uniq_keys, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    uniq = np.empty((uniq_keys.shape[0], rows.shape[1]), dtype=np.int64)
    rem = uniq_keys
    for d in range(rows.shape[1] - 1, -1, -1):
        rem, digit = np.divmod(rem, span[d])
        uniq[:, d] = digit + lo[d]
    return uniq, inverse, counts


def window_average_arrays_sorted(
    coords: np.ndarray,
    values: np.ndarray,
    spatial_dims: Sequence[int],
    window: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Parity oracle: 3^d float validity sweeps, a ``pack_rows`` per
    offset, one ``np.unique`` over every candidate, ``isin`` for the
    occupied buckets."""
    ndim = len(list(spatial_dims))
    if coords.shape[0] == 0:
        return np.empty((0, ndim), dtype=np.int64), np.empty(0)
    spatial = coords[:, list(spatial_dims)].astype(np.int64)
    vals = values.astype(np.float64)
    base = spatial // window
    packing = row_packing(base, pad=1)  # stencil reaches ±1 bucket
    cand_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    for offset in itertools.product((-1, 0, 1), repeat=ndim):
        cand = base + np.asarray(offset, dtype=np.int64)
        center = (cand + 0.5) * window
        ok = np.all(np.abs(spatial - center) <= window, axis=1)
        if ok.any():
            cand = cand[ok]
            if packing is not None:
                cand = pack_rows(cand, *packing)
            cand_parts.append(cand)
            val_parts.append(vals[ok])
    cands = np.concatenate(cand_parts, axis=0)
    cvals = np.concatenate(val_parts)
    if packing is not None:
        uniq_keys, inverse, counts = np.unique(
            cands, return_inverse=True, return_counts=True
        )
        sums = np.bincount(inverse, weights=cvals)
        # Only occupied buckets are reported (cells can scatter onto
        # empty neighbour buckets the oracle never visits).
        keep = np.isin(
            uniq_keys, np.unique(pack_rows(base, *packing))
        )
        lo, span = packing
        uniq = np.empty((uniq_keys.shape[0], ndim), dtype=np.int64)
        rem = uniq_keys
        for d in range(ndim - 1, -1, -1):
            rem, digit = np.divmod(rem, span[d])
            uniq[:, d] = digit + lo[d]
    else:
        uniq, inverse, counts = np.unique(
            cands, axis=0, return_inverse=True, return_counts=True
        )
        sums = np.bincount(inverse, weights=cvals)
        occupied = np.unique(base, axis=0)
        keep = np.isin(*joint_position_keys(uniq, occupied))
    return uniq[keep], sums[keep] / counts[keep]


def equi_join_lookup_searchsorted(
    keys: np.ndarray,
    lookup_keys: np.ndarray,
    lookup_values: np.ndarray,
) -> np.ndarray:
    """Oracle: one binary search per key into the sorted table.

    ``lookup_keys`` must be sorted and unique.  Keys absent from the
    table — every key, when the table is empty — map to -1.
    """
    if len(lookup_keys) == 0:
        return np.full(np.shape(keys), -1, dtype=lookup_values.dtype)
    idx = np.searchsorted(lookup_keys, keys)
    idx = np.clip(idx, 0, len(lookup_keys) - 1)
    matched = lookup_keys[idx] == keys
    out = np.where(matched, lookup_values[idx], -1)
    return out
