"""Offset-reduce kernels ≡ the sort-based kernels they replaced, bit for bit.

The grid group-bys, the window stencil and the position join used to
sort keys whose structure was already known.  They now reduce by offset
into the packing's table when it is small against the rows
(:func:`repro.arrays.coords.group_keys`) and sort at most once
otherwise.  The parent's algorithms are kept verbatim in
``tests/oracles/operators.py``; every array the new kernels return —
float means included, accumulation order is preserved by construction —
must equal theirs exactly, on both sides of the dense/sparse threshold.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arrays.coords import (
    group_keys,
    pack_rows,
    packing_strides,
    position_keys,
    row_packing,
    unpack_rows,
)
from repro.query import operators as ops
from tests import oracles

# Coordinate pools.  The first two keep the bucket table dense; the
# third makes it sparse (``group_keys`` sorts); the last, over two or
# more columns, spans more than int64 can pack (``packing is None``)
# while every float the oracles compute stays exact.
EXTENTS = [(-6, 6), (-50, 50), (-(2**20), 2**20), (-(2**40), 2**40)]
#: One such row among small ones flips a dense table to the sort.
OUTLIER = 10**9


def _rows(draw, d, n_min=1, n_max=40, outlier=True):
    lo, hi = draw(st.sampled_from(EXTENTS))
    # the extremes drawn on purpose: integers() alone huddles near zero
    coord = st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi]))
    row = st.tuples(*[coord] * d)
    pool = draw(st.lists(row, min_size=1, max_size=10))
    rows = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), row),
            min_size=n_min, max_size=n_max,
        )
    )
    if outlier and rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = (OUTLIER,) + tuple(rows[at][1:])
    return np.array(rows, dtype=np.int64).reshape(-1, d)


def _values(draw, n):
    seed = draw(st.integers(0, 10_000))
    return np.random.default_rng(seed).normal(0.0, 100.0, n)


def _same(got, want):
    assert len(got) == len(want)
    for left, right in zip(got, want):
        assert left.dtype == right.dtype
        assert left.shape == right.shape
        assert np.array_equal(left, right, equal_nan=True)


class TestPackingCodec:
    @given(data=st.data())
    def test_unpack_inverts_pack(self, data):
        rows = _rows(data.draw, data.draw(st.integers(1, 4)))
        pad = data.draw(st.integers(0, 2))
        packing = row_packing(rows, pad=pad)
        keys = position_keys(rows, packing)
        assert np.array_equal(unpack_rows(keys, packing), rows)
        if packing is not None:
            assert np.array_equal(
                unpack_rows(pack_rows(rows, *packing), packing), rows
            )
            strides, size = packing_strides(packing)
            assert 0 <= keys.min() and keys.max() < size
            # a unit step along one column moves the key by its stride
            step = np.zeros(rows.shape[1], dtype=np.int64)
            d = data.draw(st.integers(0, rows.shape[1] - 1))
            step[d] = 1
            padded = row_packing(rows, pad=pad + 1)
            assert np.array_equal(
                position_keys(rows + step, padded),
                position_keys(rows, padded) + packing_strides(padded)[0][d],
            )

    def test_unpack_keeps_an_unbounded_top_digit(self):
        # ``packing_admits`` lets the first column run past its span.
        packing = row_packing(np.array([[0, -3], [4, 5]]))
        later = np.array([[90, 5], [-7, -3]])
        keys = position_keys(later, packing)
        assert np.array_equal(unpack_rows(keys, packing), later)

    def test_void_keys_round_trip_and_empty(self):
        big = 2**62
        rows = np.array([[big, -1], [-big, 7]])
        assert row_packing(rows) is None
        keys = position_keys(rows, None)
        assert np.array_equal(unpack_rows(keys, None), rows)
        assert unpack_rows(keys[:0], None).shape == (0, 2)
        packing = row_packing(np.array([[1, 2]]))
        empty = unpack_rows(np.empty(0, dtype=np.int64), packing)
        assert empty.shape == (0, 2) and empty.dtype == np.int64


class TestGroupKeys:
    @given(data=st.data())
    def test_matches_unique_on_both_sides_of_the_threshold(self, data):
        n = data.draw(st.integers(0, 60))
        top = data.draw(st.sampled_from([1, 7, 500, 4 * n + 1024, 10**6]))
        keys = np.array(
            data.draw(
                st.lists(st.integers(0, top - 1), min_size=n, max_size=n)
            ),
            dtype=np.int64,
        )
        want = np.unique(keys, return_inverse=True, return_counts=True)
        for size in (top, 4 * n + 1024, 4 * n + 1025, None):
            if size is not None and size < top:
                continue
            _same(group_keys(keys, size), want)

    def test_dense_arm_never_sorts(self):
        keys = np.array([5, 0, 5, 3, 1023], dtype=np.int64)
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            uniq, inverse, counts = group_keys(keys, 4 * 5 + 1024)
            with pytest.raises(AssertionError):
                group_keys(keys, 4 * 5 + 1025)
        assert uniq.tolist() == [0, 3, 5, 1023]
        assert inverse.tolist() == [2, 0, 2, 1, 3]
        assert counts.tolist() == [1, 1, 2, 1]


class TestGridGroupBys:
    @given(data=st.data())
    def test_bit_identical_to_the_sorted_kernels(self, data):
        d = data.draw(st.integers(1, 3))
        coords = _rows(data.draw, d)
        values = _values(data.draw, coords.shape[0])
        dims = data.draw(
            st.lists(
                st.integers(0, d - 1), min_size=1, max_size=d, unique=True
            )
        )
        sizes = [data.draw(st.integers(1, 16)) for _ in dims]
        self._check(coords, values, dims, sizes)

    @staticmethod
    def _check(coords, values, dims, sizes):
        _same(
            ops._unique_rows(coords), oracles.unique_rows_sorted(coords)
        )

        def run():
            return (
                ops.group_count_by_grid_arrays(coords, dims, sizes),
                ops.group_mean_by_grid_arrays(coords, values, dims, sizes),
                ops.group_stats_by_grid_arrays(coords, values, dims, sizes),
            )

        got = run()
        with mock.patch.object(
            ops, "_unique_rows", oracles.unique_rows_sorted
        ):
            want = run()
        for left, right in zip(got, want):
            _same(left, right)

    def test_unpackable_extent_takes_void_keys(self):
        far = 2**40
        coords = np.array(
            [[far, -far, 3], [0, 0, 0], [far, -far, 9], [-far, far, 1],
             [2, 1, 0], [far, -far, 3]]
        )
        values = np.array([0.1, 2.5, -7.25, 1e9, 3.0, 0.3])
        assert row_packing(ops.grid_buckets(coords, (0, 1), (4, 4))) is None
        self._check(coords, values, (0, 1), (4, 4))

    def test_declared_grid_reduces_without_a_sort(self):
        # The AIS density map's shape: many cells, a small bucket grid.
        rng = np.random.default_rng(3)
        coords = rng.integers(-180, 180, size=(5000, 3))
        values = rng.normal(size=5000)
        want = oracles.unique_rows_sorted(
            ops.grid_buckets(coords, (1, 2), (8, 8))
        )
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            buckets, counts, sums, _mins, _maxs = (
                ops.group_stats_by_grid_arrays(
                    coords, values, (1, 2), (8, 8)
                )
            )
        assert np.array_equal(buckets, want[0])
        assert np.array_equal(counts, want[2])
        assert np.array_equal(
            sums, np.bincount(want[1], weights=values)
        )


class TestWindowAverage:
    @given(data=st.data())
    def test_bit_identical_to_the_sorted_kernel(self, data):
        d = data.draw(st.integers(1, 3))
        coords = _rows(data.draw, d)
        values = _values(data.draw, coords.shape[0])
        spatial = data.draw(
            st.lists(
                st.integers(0, d - 1), min_size=1, max_size=d, unique=True
            )
        )
        window = data.draw(st.integers(1, 12))
        _same(
            ops.window_average_arrays(coords, values, spatial, window),
            oracles.window_average_arrays_sorted(
                coords, values, spatial, window
            ),
        )

    def test_single_cell(self):
        coords = np.array([[0, -7, 11]])
        values = np.array([2.5])
        buckets, means = ops.window_average_arrays(
            coords, values, (1, 2), 6
        )
        assert buckets.tolist() == [[-2, 1]] and means.tolist() == [2.5]

    def test_unpackable_extent_takes_void_keys(self):
        far = 2**40
        coords = np.array(
            [[0, 0], [5, 5], [6, 0], [far, far], [far + 3, far - 2],
             [-far, far], [-far, far]]
        )
        values = np.arange(7.0) * 1.25
        assert row_packing(coords // 6, pad=1) is None
        _same(
            ops.window_average_arrays(coords, values, (0, 1), 6),
            oracles.window_average_arrays_sorted(
                coords, values, (0, 1), 6
            ),
        )

    def test_modis_grid_reduces_without_a_sort(self):
        # A day of MODIS cells on the 6-degree window grid: the padded
        # 63 x 33 bucket table is far below 4 x (9 x cells) + 1024.
        rng = np.random.default_rng(11)
        coords = np.stack(
            [
                rng.integers(0, 1440, 4000),
                rng.integers(-180, 180, 4000),
                rng.integers(-90, 90, 4000),
            ],
            axis=1,
        )
        values = rng.normal(120.0, 12.0, 4000)
        want = oracles.window_average_arrays_sorted(
            coords, values, (1, 2), 6
        )
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            got = ops.window_average_arrays(coords, values, (1, 2), 6)
        _same(got, want)


class TestPositionJoin:
    @given(data=st.data())
    def test_bit_identical_to_intersect1d(self, data):
        d = data.draw(st.integers(1, 4))
        ca = _rows(data.draw, d, n_min=0, outlier=False)
        aligned = data.draw(st.booleans())
        cb = ca.copy() if aligned else _rows(
            data.draw, d, n_min=0, outlier=False
        )
        if not aligned and ca.shape[0] and data.draw(st.booleans()):
            # overlap with duplicates on either side
            cb = np.concatenate([cb, ca[::2], ca[:3]])
        va = np.arange(ca.shape[0], dtype=np.float32)
        vb = np.arange(cb.shape[0], dtype=np.float64) + 0.5
        got = ops.position_join(ca, va, cb, vb)
        assert got[1].dtype == np.float32 and got[2].dtype == np.float64
        if not ca.shape[0] or not cb.shape[0]:
            assert got[0].shape == (0, d) and got[0].dtype == np.int64
            assert got[1].size == 0 and got[2].size == 0
            return
        _same(got, oracles.position_join_intersect1d(ca, va, cb, vb))

    def test_aligned_sides_with_repeated_positions(self):
        coords = np.array([[3, 1], [0, 2], [3, 1], [-4, 9], [0, 2]])
        va = np.arange(5.0)
        vb = np.arange(5.0) * 10
        got = ops.position_join(coords, va, coords.copy(), vb)
        assert got[0].tolist() == [[-4, 9], [0, 2], [3, 1]]
        assert got[1].tolist() == [3.0, 1.0, 0.0]  # first occurrences
        assert got[2].tolist() == [30.0, 10.0, 0.0]
        _same(
            got,
            oracles.position_join_intersect1d(coords, va, coords, vb),
        )

    def test_misaligned_first_occurrence_on_both_sides(self):
        ca = np.array([[5], [1], [5], [9], [1]])
        cb = np.array([[9], [5], [7], [9], [5], [1]])
        va = np.arange(5.0)
        vb = np.arange(6.0) * 10
        got = ops.position_join(ca, va, cb, vb)
        assert got[0].tolist() == [[1], [5], [9]]
        assert got[1].tolist() == [1.0, 0.0, 3.0]
        assert got[2].tolist() == [50.0, 10.0, 0.0]


class TestEquiJoinLookup:
    """The dense-table lookup returns the binary search's array."""

    @given(data=st.data())
    def test_bit_identical_to_searchsorted(self, data):
        m = data.draw(st.integers(0, 30))
        dense = ops._DENSE_LOOKUP_SPAN * m
        # up to the dense threshold, one slot past it, or far past it
        span = max(
            m, data.draw(st.sampled_from([m, dense, dense + 1, 10**6]))
        )
        lo = data.draw(st.sampled_from([0, -7, -(2**40), 2**40]))
        key_dtype = data.draw(st.sampled_from([np.int64, np.int32, float]))
        if key_dtype is np.int32:
            lo = max(min(lo, 2**20), -(2**20))
        value_dtype = data.draw(st.sampled_from([np.int64, np.int32, float]))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        inner = rng.choice(max(span - 2, 0), max(m - 2, 0), replace=False)
        offsets = np.unique(np.concatenate([[0, span - 1], inner + 1]))[:m]
        table = (lo + offsets).astype(key_dtype)
        values = rng.integers(-50, 50, m).astype(value_dtype)
        # present keys, absent ones inside the span, keys on both sides
        # of it, and the ends of int64
        probes = [
            table,
            lo + rng.integers(-3, span + 3, 20),
            np.array([lo - 1, lo + span, -1, 0]),
        ]
        if key_dtype is np.int64:
            probes.append(np.array([-(2**63), 2**63 - 1]))
        keys = np.concatenate(probes).astype(key_dtype)
        if key_dtype is float:
            keys = np.concatenate([keys, keys[:5] + 0.5])
        rng.shuffle(keys)
        _same(
            [ops.equi_join_lookup(keys, table, values)],
            [oracles.equi_join_lookup_searchsorted(keys, table, values)],
        )

    def test_vessel_shape_takes_the_dense_arm(self):
        # 500 vessel ids in 0..499; ship ids run past both ends.
        ids = np.arange(500, dtype=np.int64)
        types = (ids % 7).astype(np.int32)
        ships = np.random.default_rng(5).integers(-3, 505, 2000)
        want = oracles.equi_join_lookup_searchsorted(ships, ids, types)
        with mock.patch.object(np, "searchsorted", side_effect=AssertionError):
            got = ops.equi_join_lookup(ships, ids, types)
            with pytest.raises(AssertionError):  # span 2496 > 4 x 500
                ops.equi_join_lookup(ships, ids * 5, types)
        _same([got], [want])
