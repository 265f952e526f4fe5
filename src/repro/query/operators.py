"""Chunk-level physical operators (pure numpy).

These compute the *real answers* of the benchmark queries over the
synthetic cells; the simulated timing lives in :mod:`repro.query.cost`.
All operators take plain arrays and return numpy values.

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

Reducing over keys
------------------
The grid group-bys and the window stencil group rows by packed bucket
keys, and a packing bounds its keys by a table of ``prod(span)`` slots.
They reduce *by offset* into that table — ``bincount``, no sort —
whenever it is at most ``4 * rows + 1024`` slots, and by ``np.unique``
otherwise; the rule lives in :func:`repro.arrays.coords.group_keys`
and reads nothing but its input, because both ways return the same
arrays in the same order and only their cost differs (a declared grid
is always dense; one far outlier makes the table sparse).  Where keys
carry no such bound the kernels sort once: :func:`position_join`
argsorts each key column once (one column when its sides are aligned),
:func:`count_close_pairs` its points.  The
sort-based kernels these replaced are oracles too
(``tests/test_kernel_sortfree.py`` requires bit-identical arrays).
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.coords import (
    distinct,
    group_keys,
    joint_packing,
    packing_strides,
    position_keys,
    row_packing,
    unpack_rows,
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
    return distinct(values)


def _first_occurrences(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order and where each first occurs.

    One argsort.  It need not be stable: the smallest row index of each
    run of equal keys *is* the first occurrence, whatever order the sort
    left the run in.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    return ordered[starts], np.minimum.reduceat(order, starts)


def position_join(
    coords_a: np.ndarray,
    values_a: np.ndarray,
    coords_b: np.ndarray,
    values_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join two cell sets on exact array position.

    Returns ``(coords, a_values, b_values)`` for the matching positions —
    the engine of the §3.3 vegetation-index query — in lexicographic
    position order; a position repeated on a side joins through its
    first occurrence there.  Both sides pack under one joint extent into
    int64 keys (void rows on overflow; see ``position_keys``) and each
    key column is argsorted at most once:

    * *aligned sides* — the two coordinate tables are equal row for row
      (the MODIS bands read the same pixels and both gathers walk the
      same key-sorted chunk list): every row is its own partner, so the
      one argsort of the shared key column orders both sides;
    * otherwise each side reduces to its distinct keys in ascending
      order, and one side's binary-search into the other — sorted
      needles, a single forward sweep — finds the common ones, already
      in output order.
    """
    if coords_a.shape[0] == 0 or coords_b.shape[0] == 0:
        ndim = coords_a.shape[1] if coords_a.size else coords_b.shape[1]
        return (
            np.empty((0, ndim), dtype=np.int64),
            values_a[:0],
            values_b[:0],
        )
    if np.array_equal(coords_a, coords_b):
        keys = position_keys(coords_a, row_packing(coords_a))
        _, idx_a = _first_occurrences(keys)
        idx_b = idx_a
    else:
        packing = joint_packing(coords_a, coords_b)
        uniq_a, first_a = _first_occurrences(
            position_keys(coords_a, packing)
        )
        uniq_b, first_b = _first_occurrences(
            position_keys(coords_b, packing)
        )
        slot = np.searchsorted(uniq_a, uniq_b)
        slot[slot == uniq_a.shape[0]] = 0
        common = uniq_a[slot] == uniq_b
        idx_a, idx_b = first_a[slot[common]], first_b[common]
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
    Raises :class:`~repro.errors.QueryError` on a repeated key: which
    of its values a lookup would return is not defined.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    repeated = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if repeated.size:
        raise QueryError(
            f"lookup table repeats key {sorted_keys[repeated[0]].item()!r}"
        )
    return sorted_keys, values[order]


#: Integer lookup keys spanning at most this many slots per table entry
#: map through a dense index table instead of a binary search.
_DENSE_LOOKUP_SPAN = 4


def equi_join_lookup(
    keys: np.ndarray,
    lookup_keys: np.ndarray,
    lookup_values: np.ndarray,
) -> np.ndarray:
    """Map each key through a (small, replicated) lookup table.

    Used for the AIS Broadcast ⋈ Vessel join: ``lookup_keys`` must be
    sorted and unique (vessel ids are; see :func:`make_sorted_lookup`).
    Keys absent from the table — every key, when the table is empty —
    map to -1 when values are numeric.

    Signed-integer keys whose table spans at most
    ``_DENSE_LOOKUP_SPAN`` slots per entry (500 vessel ids in
    ``0..499``) go through a dense ``key - lo -> entry`` table, one
    gather per key; any other table is binary-searched.  Both return
    the same array.
    """
    m = len(lookup_keys)
    if m == 0:
        return np.full(np.shape(keys), -1, dtype=lookup_values.dtype)
    keys = np.asarray(keys)
    dense = keys.dtype.kind == lookup_keys.dtype.kind == "i"
    if dense:
        lo = int(lookup_keys[0])
        span = int(lookup_keys[-1]) - lo + 1
        dense = span <= _DENSE_LOOKUP_SPAN * m
    if dense:
        # entry[key - lo] is the key's table row; slot ``span`` (where
        # every key outside the table's range lands) and gaps hold -1.
        # A key far below lo wraps to a huge offset, never into range.
        entry = np.full(span + 1, -1, dtype=np.int64)
        entry[lookup_keys.astype(np.int64) - lo] = np.arange(m)
        offset = keys.astype(np.int64) - lo
        idx = entry[np.where((offset >= 0) & (offset < span), offset, span)]
        matched = idx >= 0
    else:
        idx = np.searchsorted(lookup_keys, keys)
        idx = np.clip(idx, 0, m - 1)
        matched = lookup_keys[idx] == keys
    return np.where(matched, lookup_values[idx], -1)


# ----------------------------------------------------------------------
# grid group-bys
# ----------------------------------------------------------------------
# Bucket rows are grouped through the packing codec of
# repro.arrays.coords (shared with cell chunking and the cost model's
# neighbour lookups): rows -> position keys -> ``group_keys`` -> rows.
# Bucket ids are bounded by the grid that produced them, so the key
# table is usually far smaller than the row count and ``group_keys``
# reduces by offset into it instead of sorting (it decides from the
# table size and row count alone; see its docstring for the threshold).
def _unique_rows(
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0)`` with inverse and counts, sort-free
    when the rows' extent is small against their number.

    The unique rows come out in lexicographic order whichever way
    :func:`repro.arrays.coords.group_keys` reduces them.
    """
    packing = row_packing(rows)
    uniq_keys, inverse, counts = group_keys(
        position_keys(rows, packing), packing_strides(packing)[1]
    )
    return unpack_rows(uniq_keys, packing), inverse, counts


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

    The batch kernel behind :func:`group_count_by_grid`: one grouping
    pass over the packed bucket keys (a ``bincount`` over the bucket
    table when it is small against the cells, a sort otherwise), no
    per-bucket Python objects.
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

    One grouping pass + ``bincount`` — sums accumulate in row order
    however the buckets were grouped, so the means match the scalar
    oracle bit-for-bit on exact inputs.

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
    offsets and reduces all their candidates in one grouping pass.

    Whether a cell reaches the bucket ``o`` steps from its own along one
    dimension depends only on its remainder ``r = x mod window``: the
    oracle's ``|x - (b + o + 1/2)·w| <= w`` is ``|2r - (2o + 1)·w| <=
    2w`` in exact integers, i.e. always for ``o = 0``, ``2r <= w`` for
    ``o = -1`` and ``2r >= w`` for ``o = +1``.  So validity is two
    one-column masks per dimension, AND-ed per offset, and a candidate's
    key is its home bucket's key plus the offset's fixed key stride — no
    per-offset float sweep, no per-offset packing.  The candidates
    concatenate offset-major and reduce through
    :func:`repro.arrays.coords.group_keys`: by offset into the padded
    bucket grid when that table is small against the candidates (the
    declared-grid case: no sort anywhere in the kernel), by sort when
    the buckets are sparse; sums accumulate in candidate order either
    way.  A bucket is occupied iff some cell's zero offset lands on it.

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
        Occupied buckets, in lexicographic order.
    means : numpy.ndarray of float64, shape (k,)
        Windowed mean per bucket.
    """
    ndim = len(list(spatial_dims))
    if coords.shape[0] == 0:
        return np.empty((0, ndim), dtype=np.int64), np.empty(0)
    # Dimension-major, (ndim, cells): every per-dimension step below
    # reads one contiguous row.
    spatial = np.ascontiguousarray(
        coords.T[list(spatial_dims)], dtype=np.int64
    )
    vals = values.astype(np.float64)
    base = spatial // window
    twice_rem = 2 * (spatial - base * window)
    # reaches[o][d]: the cell is within ``window`` of the bucket center
    # ``o`` steps from its own along dimension ``d``.
    reaches = {-1: twice_rem <= window, 1: twice_rem >= window}
    packing = row_packing(base.T, pad=1)  # stencil reaches ±1 bucket
    strides, size = packing_strides(packing)
    home = position_keys(base.T, packing)
    cand_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    home_at = slice(0, 0)  # where the zero offset's candidates sit
    filled = 0
    for offset in itertools.product((-1, 0, 1), repeat=ndim):
        masks = [reaches[o][d] for d, o in enumerate(offset) if o]
        if masks:
            # (index reads are ~5x cheaper than boolean-mask reads)
            rows = np.flatnonzero(functools.reduce(np.logical_and, masks))
            if rows.shape[0] == 0:
                continue
        else:  # the zero offset: every cell lands on its own bucket
            rows = slice(None)
            home_at = slice(filled, filled + home.shape[0])
        if packing is None:
            cand = position_keys(base.T[rows] + offset, None)
        else:
            cand = home[rows] + sum(
                o * stride for o, stride in zip(offset, strides)
            )
        cand_parts.append(cand)
        val_parts.append(vals[rows])
        filled += cand.shape[0]
    uniq_keys, inverse, counts = group_keys(
        np.concatenate(cand_parts), size
    )
    sums = np.bincount(inverse, weights=np.concatenate(val_parts))
    # Only occupied buckets are reported (cells can scatter onto empty
    # neighbour buckets the oracle never visits).
    keep = np.bincount(
        inverse[home_at], minlength=uniq_keys.shape[0]
    ) > 0
    return (
        unpack_rows(uniq_keys[keep], packing),
        sums[keep] / counts[keep],
    )


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


#: The half stencil of :func:`count_close_pairs`: of each offset and its
#: negation only one is visited, so every pair of distinct adjacent
#: buckets is met exactly once; ``(0, 0)`` pairs a bucket with itself.
_HALF_STENCIL = ((0, 1), (1, -1), (1, 0), (1, 1))


def _count_within(
    lon: np.ndarray,
    lat: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    r2: float,
) -> int:
    """Pairs ``(i, j)``, ``j`` in ``[starts[i], starts[i] + lens[i])``,
    at squared distance at most ``r2``.

    Each point's candidate run expands to ``(src, dst)`` index pairs
    with ``repeat`` arithmetic — no per-bucket Python walk.
    """
    total = int(lens.sum())
    if total == 0:
        return 0
    src = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    dst = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    dst += np.arange(total, dtype=np.int64)
    d2 = (lon[src] - lon[dst]) ** 2
    d2 += (lat[src] - lat[dst]) ** 2
    return int((d2 <= r2).sum())


def count_close_pairs(
    lon: np.ndarray,
    lat: np.ndarray,
    radius: float,
    segments: Optional[np.ndarray] = None,
) -> int:
    """Number of point pairs within ``radius`` (collision candidates).

    Grid-hashing keeps this near-linear: points are bucketed at the
    radius scale and only neighbouring buckets are compared.  Points
    sort once by their packed ``(segment, gx, gy)`` key and group into
    distinct buckets (head index and length).  A half stencil then
    visits each unordered pair once: ``(0, 0)`` pairs each point with
    the later points of its own bucket, and for each of the four
    offsets in ``_HALF_STENCIL`` one ``searchsorted`` over the distinct
    bucket keys finds every bucket's neighbour, whose whole run is
    each of the bucket's points' candidates.  With
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
    # An extent beyond int64 gets void keys, where a step off either
    # end of int64 wraps onto some far bucket: harmless, every
    # candidate pair still has to pass the distance test, and a wrap
    # cannot meet a pair twice (no offset of the half stencil is
    # another's negation).
    packing = row_packing(key, pad=1)
    packed = position_keys(key, packing)
    order = np.argsort(packed)
    sorted_keys = packed[order]
    lon_s = lon[order]
    lat_s = lat[order]
    head = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    size = np.diff(np.append(head, n))
    bucket_keys = sorted_keys[head]
    bucket_rows = key[order[head]]
    bucket_of = np.repeat(np.arange(head.shape[0], dtype=np.int64), size)
    r2 = radius * radius
    # (0, 0): each point's partners are the later points of its bucket.
    after = np.arange(1, n + 1, dtype=np.int64)
    count = _count_within(
        lon_s, lat_s, after, (head + size)[bucket_of] - after, r2
    )
    last = head.shape[0] - 1
    for dx, dy in _HALF_STENCIL:
        offset = np.array([0, dx, dy], dtype=np.int64)
        target = position_keys(bucket_rows + offset, packing)
        pos = np.minimum(np.searchsorted(bucket_keys, target), last)
        run = np.where(bucket_keys[pos] == target, size[pos], 0)
        count += _count_within(
            lon_s, lat_s, head[pos][bucket_of], run[bucket_of], r2
        )
    return count
