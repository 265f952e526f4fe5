"""Chunk-level physical operators (pure numpy).

These compute the *real answers* of the benchmark queries over the
synthetic cells; the simulated timing lives in :mod:`repro.query.cost`.
All operators take plain arrays and return numpy values, so they are
trivially parallelizable by the executor.

Specification
-------------
The math-heavy operators (:func:`kmeans`, :func:`knn_mean_distance`,
:func:`window_average`, :func:`count_close_pairs`, the grid group-bys)
are vectorized batch kernels; each one's pre-vectorization twin in
``tests/oracles/operators.py`` defines its semantics.
``tests/test_query_parity.py`` checks the kernels against them —
exactly on integer-valued inputs (where every float operation is exact)
and to float tolerance on continuous inputs, since the batch kernels may
reassociate reductions.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.coords import (
    joint_position_keys,
    pack_rows,
    row_packing,
)
from repro.errors import QueryError


def quantiles(
    values: np.ndarray, qs: Sequence[float]
) -> np.ndarray:
    """Quantiles of a value column (the paper's parallel-sort summary)."""
    if values.size == 0:
        return np.full(len(qs), np.nan)
    return np.quantile(values.astype(np.float64), list(qs))


def uniform_sample(
    values: np.ndarray, fraction: float, seed: int
) -> np.ndarray:
    """Uniform random sample of a column (sort/quantile inputs)."""
    if not 0 < fraction <= 1:
        raise QueryError(f"sample fraction must be in (0, 1], got {fraction}")
    if values.size == 0:
        return values
    rng = np.random.default_rng(seed)
    n = max(1, int(round(values.size * fraction)))
    idx = rng.choice(values.size, size=n, replace=False)
    return values[idx]


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (the AIS ship-log query)."""
    return np.unique(values)


def position_join(
    coords_a: np.ndarray,
    values_a: np.ndarray,
    coords_b: np.ndarray,
    values_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join two cell sets on exact array position.

    Returns ``(coords, a_values, b_values)`` for the matching positions —
    the engine of the §3.3 vegetation-index query — in lexicographic
    position order: both sides pack under one joint extent into int64
    keys (void rows on overflow; see ``joint_position_keys``).
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


def ndvi(band1: np.ndarray, band2: np.ndarray) -> np.ndarray:
    """Normalized difference vegetation index ``(b2 - b1) / (b2 + b1)``."""
    denom = band2.astype(np.float64) + band1.astype(np.float64)
    denom[denom == 0] = np.nan
    return (band2 - band1) / denom


def make_sorted_lookup(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort a lookup table once for repeated :func:`equi_join_lookup`.

    Returns ``(sorted_keys, values_in_key_order)``; hoist this out of
    per-cycle query loops so the table is not re-sorted on every call.
    """
    order = np.argsort(keys)
    return keys[order], values[order]


def equi_join_lookup(
    keys: np.ndarray,
    lookup_keys: np.ndarray,
    lookup_values: np.ndarray,
) -> np.ndarray:
    """Map each key through a (small, replicated) lookup table.

    Used for the AIS Broadcast ⋈ Vessel join: ``lookup_keys`` must be
    sorted and unique (vessel ids are; see :func:`make_sorted_lookup`).
    Keys absent from the table map to -1 when values are numeric.
    """
    idx = np.searchsorted(lookup_keys, keys)
    idx = np.clip(idx, 0, len(lookup_keys) - 1)
    matched = lookup_keys[idx] == keys
    out = np.where(matched, lookup_values[idx], -1)
    return out


# ----------------------------------------------------------------------
# grid group-bys
# ----------------------------------------------------------------------
# The mixed-radix row packing lives in repro.arrays.coords (it is shared
# with cell chunking and the cost model's neighbour lookups); these
# aliases keep the operator kernels reading naturally.
_pack_rows = pack_rows
_row_packing = row_packing


def _unique_rows(
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0)`` with inverse and counts, fast path.

    Packs the rows into scalar keys when their extent allows, falling
    back to the multi-column ``axis=0`` unique otherwise.  The unique rows
    come out in lexicographic order either way.
    """
    packing = _row_packing(rows)
    if packing is None:
        uniq, inverse, counts = np.unique(
            rows, axis=0, return_inverse=True, return_counts=True
        )
        return uniq, inverse, counts
    lo, span = packing
    keys = _pack_rows(rows, lo, span)
    uniq_keys, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    uniq = np.empty((uniq_keys.shape[0], rows.shape[1]), dtype=np.int64)
    rem = uniq_keys
    for d in range(rows.shape[1] - 1, -1, -1):
        rem, digit = np.divmod(rem, span[d])
        uniq[:, d] = digit + lo[d]
    return uniq, inverse, counts


def grid_buckets(
    coords: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> np.ndarray:
    """Coarse grid bucket of every row over selected dimensions."""
    return np.stack(
        [coords[:, d] // s for d, s in zip(dims, cell_sizes)], axis=1
    )


def group_count_by_grid_arrays(
    coords: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Cells per coarse grid bucket, as ``(buckets, counts)`` arrays.

    The batch kernel behind :func:`group_count_by_grid`: one
    ``np.unique`` over the bucket table, no per-bucket Python objects.
    Queries that only need aggregate shapes (bucket count, max) should
    use this and skip the dict entirely.

    Parameters
    ----------
    coords : numpy.ndarray of int64, shape (cells, ndim)
        Cell coordinates.
    dims : sequence of int
        Coordinate dimensions to bucket over.
    cell_sizes : sequence of int
        Bucket edge length per selected dimension.

    Returns
    -------
    buckets : numpy.ndarray of int64, shape (k, len(dims))
        Distinct buckets in lexicographic order.
    counts : numpy.ndarray of int64, shape (k,)
        Cells per bucket.
    """
    if coords.shape[0] == 0:
        return (
            np.empty((0, len(list(dims))), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    buckets = grid_buckets(coords, dims, cell_sizes)
    uniq, _inverse, counts = _unique_rows(buckets)
    return uniq, counts


def group_mean_by_grid_arrays(
    coords: np.ndarray,
    values: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean of ``values`` per coarse bucket, as ``(buckets, means)``.

    ``np.unique`` + ``bincount`` — sums accumulate in row order, so the
    means match the scalar oracle bit-for-bit on exact inputs.

    Parameters
    ----------
    coords : numpy.ndarray of int64, shape (cells, ndim)
        Cell coordinates.
    values : numpy.ndarray, shape (cells,)
        Value to average per bucket.
    dims : sequence of int
        Coordinate dimensions to bucket over.
    cell_sizes : sequence of int
        Bucket edge length per selected dimension.

    Returns
    -------
    buckets : numpy.ndarray of int64, shape (k, len(dims))
        Distinct buckets in lexicographic order.
    means : numpy.ndarray of float64, shape (k,)
        Mean value per bucket.
    """
    if coords.shape[0] == 0:
        return (
            np.empty((0, len(list(dims))), dtype=np.int64),
            np.empty(0),
        )
    buckets = grid_buckets(coords, dims, cell_sizes)
    uniq, inverse, counts = _unique_rows(buckets)
    sums = np.bincount(inverse, weights=values.astype(np.float64))
    return uniq, sums / counts


def group_count_by_grid(
    coords: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Dict[Tuple[int, ...], int]:
    """Count cells per coarse grid bucket over selected dimensions.

    The AIS track-count map groups broadcasts into coarse (e.g. 8°) bins;
    the MODIS statistics query groups by day.  Dict-shaped wrapper over
    :func:`group_count_by_grid_arrays`.
    """
    uniq, counts = group_count_by_grid_arrays(coords, dims, cell_sizes)
    return {
        tuple(int(v) for v in row): int(c)
        for row, c in zip(uniq, counts)
    }


def group_mean_by_grid(
    coords: np.ndarray,
    values: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Dict[Tuple[int, ...], float]:
    """Mean of ``values`` per coarse grid bucket (dict-shaped wrapper)."""
    uniq, means = group_mean_by_grid_arrays(
        coords, values, dims, cell_sizes
    )
    return {
        tuple(int(v) for v in row): float(m)
        for row, m in zip(uniq, means)
    }


def group_stats_by_grid_arrays(
    coords: np.ndarray,
    values: np.ndarray,
    dims: Sequence[int],
    cell_sizes: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-bucket count/sum/min/max of ``values``, as parallel arrays.

    The full-recompute kernel behind the incremental grid statistics
    (:mod:`repro.query.incremental`): one bucket pass feeds every
    aggregate the maintained state carries, so the full-recompute arm of
    the maintenance planner is a single vectorized sweep, not four.

    Returns
    -------
    buckets : numpy.ndarray of int64, shape (k, len(dims))
        Distinct buckets in lexicographic order.
    counts : numpy.ndarray of int64, shape (k,)
        Cells per bucket.
    sums : numpy.ndarray of float64, shape (k,)
        Value sum per bucket (row-order accumulation).
    mins, maxs : numpy.ndarray of float64, shape (k,)
        Value extrema per bucket.
    """
    if coords.shape[0] == 0:
        empty = np.empty(0)
        return (
            np.empty((0, len(list(dims))), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            empty, empty.copy(), empty.copy(),
        )
    buckets = grid_buckets(coords, dims, cell_sizes)
    uniq, inverse, counts = _unique_rows(buckets)
    vals = values.astype(np.float64)
    sums = np.bincount(inverse, weights=vals)
    mins = np.full(uniq.shape[0], np.inf)
    maxs = np.full(uniq.shape[0], -np.inf)
    np.minimum.at(mins, inverse, vals)
    np.maximum.at(maxs, inverse, vals)
    return uniq, counts, sums, mins, maxs


# ----------------------------------------------------------------------
# windowed aggregation
# ----------------------------------------------------------------------
def window_average_arrays(
    coords: np.ndarray,
    values: np.ndarray,
    spatial_dims: Sequence[int],
    window: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Overlapping-window smoothing, as ``(buckets, means)`` arrays.

    Each occupied bucket averages all cells within ``window`` of its
    center.  A qualifying cell is always within one bucket of its own,
    so instead of masking every cell against every bucket (the scalar
    oracle's quadratic sweep) the batch kernel visits the 3^d stencil
    offsets: for each offset one vectorized validity test scatters the
    cells onto candidate buckets, and a single ``unique``/``bincount``
    pass reduces them.

    Parameters
    ----------
    coords : numpy.ndarray of int64, shape (cells, ndim)
        Cell coordinates.
    values : numpy.ndarray, shape (cells,)
        Value to smooth.
    spatial_dims : sequence of int
        Dimensions the windows extend over.
    window : int
        Bucket edge length; each bucket also samples cells within one
        window of its center (hence the overlap).

    Returns
    -------
    buckets : numpy.ndarray of int64, shape (k, len(spatial_dims))
        Occupied buckets.
    means : numpy.ndarray of float64, shape (k,)
        Windowed mean per bucket.
    """
    ndim = len(list(spatial_dims))
    if coords.shape[0] == 0:
        return np.empty((0, ndim), dtype=np.int64), np.empty(0)
    spatial = coords[:, list(spatial_dims)].astype(np.int64)
    vals = values.astype(np.float64)
    base = spatial // window
    packing = _row_packing(base, pad=1)  # stencil reaches ±1 bucket
    cand_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    for offset in itertools.product((-1, 0, 1), repeat=ndim):
        cand = base + np.asarray(offset, dtype=np.int64)
        center = (cand + 0.5) * window
        ok = np.all(np.abs(spatial - center) <= window, axis=1)
        if ok.any():
            cand = cand[ok]
            if packing is not None:
                cand = _pack_rows(cand, *packing)
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
            uniq_keys, np.unique(_pack_rows(base, *packing))
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


def window_average(
    coords: np.ndarray,
    values: np.ndarray,
    spatial_dims: Sequence[int],
    window: int,
) -> Dict[Tuple[int, ...], float]:
    """Overlapping-window smoothing over the spatial dimensions.

    Each output pixel (coarse bucket) averages all cells whose positions
    fall within ``window`` of the bucket center — buckets share samples
    with their neighbours, producing the paper's "smooth picture".
    Dict-shaped wrapper over :func:`window_average_arrays`.
    """
    buckets, means = window_average_arrays(
        coords, values, spatial_dims, window
    )
    return {
        tuple(int(v) for v in row): float(m)
        for row, m in zip(buckets, means)
    }


# ----------------------------------------------------------------------
# modeling kernels
# ----------------------------------------------------------------------
def kmeans(
    points: np.ndarray,
    k: int,
    iterations: int = 10,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means over row-vector points (batch kernel).

    Deterministic given the seed; used by the MODIS
    deforestation-modeling query.  Assignment runs as one
    ``|x|² - 2x·c + |c|²`` matmul expansion over the full point matrix
    and the centroid update as one ``bincount`` per dimension — no
    per-cluster Python loop.  Matches its per-cluster-loop oracle exactly
    on integer-valued inputs; on continuous inputs the expansion may round
    differently than the oracle's explicit differences, so near-ties
    can flip (both results are then equally valid Lloyd steps).

    Parameters
    ----------
    points : numpy.ndarray, shape (n, ndim)
        Input points, one per row.
    k : int
        Cluster count (clamped to ``n``).
    iterations : int
        Lloyd sweeps to run.
    seed : int
        Seed for the centroid initialization draw.

    Returns
    -------
    centroids : numpy.ndarray of float64, shape (k, ndim)
        Final cluster centers.
    labels : numpy.ndarray of int64, shape (n,)
        Cluster index of every point.
    """
    if points.shape[0] == 0:
        raise QueryError("kmeans needs at least one point")
    k = min(k, points.shape[0])
    rng = np.random.default_rng(seed)
    pts = points.astype(np.float64)
    centroids = points[
        rng.choice(points.shape[0], size=k, replace=False)
    ].astype(np.float64)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    pts_sq = (pts * pts).sum(axis=1)
    ndim = pts.shape[1]
    for _ in range(iterations):
        cent_sq = (centroids * centroids).sum(axis=1)
        dists_sq = pts_sq[:, None] - 2.0 * (pts @ centroids.T)
        dists_sq += cent_sq[None, :]
        labels = dists_sq.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        sums = np.stack(
            [
                np.bincount(labels, weights=pts[:, d], minlength=k)
                for d in range(ndim)
            ],
            axis=1,
        )
        nonempty = counts > 0
        centroids[nonempty] = (
            sums[nonempty] / counts[nonempty, None]
        )
    return centroids, labels


def knn_mean_distance(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean distance to each query's k nearest neighbours (batch kernel).

    Brute force (the data sets are chunk neighbourhoods); excludes
    zero-distance self matches.  All query points run at once: one
    distance matrix, one row-wise partition, and a masked-sum read of
    each row's k-smallest block.

    Parameters
    ----------
    points : numpy.ndarray, shape (n, ndim)
        Candidate neighbour set.
    queries : numpy.ndarray, shape (q, ndim)
        Query points (may be rows of ``points``).
    k : int
        Neighbours averaged per query (clamped to the usable count).

    Returns
    -------
    numpy.ndarray of float64, shape (q,)
        Mean k-NN distance per query; ``nan`` where no neighbour at a
        positive distance exists.
    """
    if queries.shape[0] == 0:
        return np.empty(0)
    if points.shape[0] == 0:
        return np.full(queries.shape[0], np.nan)
    pts = points.astype(np.float64)
    qs = queries.astype(np.float64)
    # Squared distances select the same neighbours (monotone), so the
    # sqrt runs only over the k-smallest block each row keeps.  The
    # squares accumulate per dimension to keep every temporary at
    # (queries, points) instead of (queries, points, ndim).
    d2 = np.zeros((qs.shape[0], pts.shape[0]))
    for d in range(pts.shape[1]):
        diff = pts[None, :, d] - qs[:, None, d]
        diff *= diff
        d2 += diff
    usable = d2 > 0
    counts = usable.sum(axis=1)
    kk = np.minimum(k, counts)
    d2 = np.where(usable, d2, np.inf)
    kth = min(max(k, 1), d2.shape[1]) - 1
    block = np.partition(d2, kth, axis=1)[:, : kth + 1]
    dists = np.sqrt(block)
    finite = np.isfinite(dists)
    out = np.where(finite, dists, 0.0).sum(axis=1)
    out /= np.maximum(kk, 1)
    out[kk == 0] = np.nan
    return out


def dead_reckon(
    lon: np.ndarray,
    lat: np.ndarray,
    speed: np.ndarray,
    course_deg: np.ndarray,
    minutes: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Project positions ``minutes`` ahead from speed and course.

    Degrees-as-planar approximation (fine for collision screening): one
    knot ≈ 1/60 degree of arc per hour.
    """
    hours = minutes / 60.0
    arc = speed.astype(np.float64) * hours / 60.0
    theta = np.radians(course_deg.astype(np.float64))
    return (
        lon.astype(np.float64) + arc * np.sin(theta),
        lat.astype(np.float64) + arc * np.cos(theta),
    )


def count_close_pairs(
    lon: np.ndarray,
    lat: np.ndarray,
    radius: float,
    segments: Optional[np.ndarray] = None,
) -> int:
    """Number of point pairs within ``radius`` (collision candidates).

    Grid-hashing keeps this near-linear: points are bucketed at the
    radius scale and only neighbouring buckets are compared.  The bucket
    pairing itself is vectorized — points sort once by their packed
    ``(segment, gx, gy)`` key, and for each of the nine stencil offsets
    a single ``searchsorted`` finds every point's neighbour-bucket run,
    which expands to candidate pairs with ``repeat`` arithmetic (no
    per-bucket Python walk).  With
    ``segments``, only pairs within the same segment count: the
    collision query concatenates every chunk's ships and passes the
    chunk index, so one call covers the whole fleet without inventing
    cross-chunk pairs.

    Parameters
    ----------
    lon, lat : numpy.ndarray, shape (n,)
        Point coordinates (degrees-as-planar).
    radius : float
        Pair distance threshold.
    segments : numpy.ndarray of int64, shape (n,), optional
        Segment key per point; pairs must share a segment to count.

    Returns
    -------
    int
        Number of qualifying unordered pairs.
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
    key = np.stack([seg, gx, gy], axis=1)
    # pad=1: stencil offsets reach one bucket outside the extremes.
    packing = _row_packing(key, pad=1)
    if packing is None:  # unpackable extent: exact bucket-walk fallback
        return _count_close_pairs_buckets(lon, lat, radius, key)
    packed = _pack_rows(key, *packing)
    order = np.argsort(packed, kind="stable")
    sorted_keys = packed[order]
    lon_s = lon[order]
    lat_s = lat[order]
    key_s = key[order]
    count = 0
    r2 = radius * radius
    offset = np.empty(3, dtype=np.int64)
    offset[0] = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            offset[1] = dx
            offset[2] = dy
            target = _pack_rows(key_s + offset, *packing)
            starts = np.searchsorted(sorted_keys, target, side="left")
            ends = np.searchsorted(sorted_keys, target, side="right")
            lens = ends - starts
            total = int(lens.sum())
            if total == 0:
                continue
            # Expand each point's neighbour-bucket run [start, end) to
            # (src, dst) sorted-position pairs.
            src = np.repeat(np.arange(n, dtype=np.int64), lens)
            run_base = np.repeat(
                np.cumsum(lens) - lens, lens
            )
            dst = (
                np.arange(total, dtype=np.int64)
                - run_base
                + np.repeat(starts, lens)
            )
            # Each unordered pair is generated in both directions (via
            # opposite offsets, or twice within the (0, 0) bucket);
            # keeping the strictly later sorted position counts it once.
            keep = dst > src
            if not keep.any():
                continue
            src = src[keep]
            dst = dst[keep]
            d2 = (lon_s[src] - lon_s[dst]) ** 2
            d2 += (lat_s[src] - lat_s[dst]) ** 2
            count += int((d2 <= r2).sum())
    return count


def _count_close_pairs_buckets(
    lon: np.ndarray,
    lat: np.ndarray,
    radius: float,
    key: np.ndarray,
) -> int:
    """Per-bucket fallback for key extents that defeat int64 packing."""
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    ends = np.cumsum(np.bincount(inverse))
    groups: Dict[Tuple[int, int, int], np.ndarray] = {}
    start = 0
    for row, end in zip(uniq.tolist(), ends.tolist()):
        groups[tuple(row)] = order[start:end]
        start = end
    count = 0
    r2 = radius * radius
    for (s, bx, by), members in groups.items():
        neighbor_parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                g = groups.get((s, bx + dx, by + dy))
                if g is not None:
                    neighbor_parts.append(g)
        neighbors = np.concatenate(neighbor_parts)
        d2 = (lon[members][:, None] - lon[neighbors][None, :]) ** 2
        d2 += (lat[members][:, None] - lat[neighbors][None, :]) ** 2
        later = neighbors[None, :] > members[:, None]
        count += int(((d2 <= r2) & later).sum())
    return count
