"""Chunk-level physical operators (pure numpy answers)."""

import numpy as np
import pytest

from repro.arrays import Box
from repro.arrays.coords import region_mask
from repro.errors import QueryError
from repro.query import operators as ops


class TestRegionFiltering:
    def test_region_mask_half_open(self):
        coords = np.array([[0, 0], [1, 1], [2, 2]])
        mask = region_mask(coords, Box((0, 0), (2, 2)))
        assert mask.tolist() == [True, True, False]

    def test_region_mask_empty_input(self):
        mask = region_mask(
            np.empty((0, 2), dtype=np.int64), Box((0, 0), (2, 2))
        )
        assert mask.shape == (0,)


class TestQuantilesAndSampling:
    def test_quantiles(self):
        q = ops.quantiles(np.arange(101, dtype=np.float64), [0.5, 0.95])
        assert q[0] == pytest.approx(50.0)
        assert q[1] == pytest.approx(95.0)

    def test_quantiles_empty(self):
        q = ops.quantiles(np.empty(0), [0.5])
        assert np.isnan(q).all()

    def test_uniform_sample_deterministic(self):
        values = np.arange(100)
        a = ops.uniform_sample(values, 0.2, seed=1)
        b = ops.uniform_sample(values, 0.2, seed=1)
        assert np.array_equal(a, b)
        assert a.size == 20

    def test_sample_fraction_validated(self):
        with pytest.raises(QueryError):
            ops.uniform_sample(np.arange(10), 0.0, seed=1)

    def test_sorted_distinct(self):
        out = ops.sorted_distinct(np.array([3, 1, 3, 2, 1]))
        assert out.tolist() == [1, 2, 3]


class TestJoins:
    def test_position_join_matches_exact_coords(self):
        ca = np.array([[0, 0], [1, 1], [2, 2]])
        cb = np.array([[1, 1], [2, 2], [3, 3]])
        coords, va, vb = ops.position_join(
            ca, np.array([10.0, 11.0, 12.0]),
            cb, np.array([21.0, 22.0, 23.0]),
        )
        assert coords.tolist() == [[1, 1], [2, 2]]
        assert va.tolist() == [11.0, 12.0]
        assert vb.tolist() == [21.0, 22.0]

    def test_position_join_empty_side(self):
        coords, va, vb = ops.position_join(
            np.empty((0, 2), dtype=np.int64), np.empty(0),
            np.array([[1, 1]]), np.array([1.0]),
        )
        assert coords.shape[0] == 0

    def test_position_join_keeps_value_dtypes_on_every_path(self):
        # Regression: the empty-side return handed back float64 columns
        # whatever came in, while a non-empty join preserved the dtypes.
        full = np.array([[1, 1], [2, 2]])
        none = np.empty((0, 2), dtype=np.int64)
        for ca, cb in ((full, full), (full, full[::-1]), (none, full),
                       (full, none), (none, none)):
            coords, va, vb = ops.position_join(
                ca, np.arange(len(ca), dtype=np.float32),
                cb, np.arange(len(cb), dtype=np.int16),
            )
            assert coords.dtype == np.int64 and coords.shape[1] == 2
            assert va.dtype == np.float32 and vb.dtype == np.int16
            assert len(coords) == len(va) == len(vb) == min(
                len(ca), len(cb)
            )

    def test_ndvi(self):
        nd = ops.ndvi(np.array([1.0, 2.0]), np.array([3.0, 2.0]))
        assert nd[0] == pytest.approx(0.5)
        assert nd[1] == pytest.approx(0.0)

    def test_ndvi_zero_denominator_is_nan(self):
        nd = ops.ndvi(np.array([0.0]), np.array([0.0]))
        assert np.isnan(nd[0])

    def test_equi_join_lookup(self):
        keys = np.array([2, 0, 5, 9])
        table_keys = np.array([0, 2, 5])
        table_vals = np.array([10, 12, 15])
        out = ops.equi_join_lookup(keys, table_keys, table_vals)
        assert out.tolist() == [12, 10, 15, -1]

    def test_equi_join_lookup_empty_table_maps_every_key_to_minus_one(self):
        # Regression: ``np.clip(idx, 0, -1)`` indexed an empty table
        # (IndexError: index -1 is out of bounds).
        empty = np.empty(0, dtype=np.int64)
        out = ops.equi_join_lookup(
            np.array([2, 0, 5]), empty, np.empty(0, dtype=np.int32)
        )
        assert out.tolist() == [-1, -1, -1] and out.dtype == np.int32
        assert ops.equi_join_lookup(empty, empty, empty).shape == (0,)

    def test_make_sorted_lookup_rejects_a_repeated_key(self):
        # Which duplicate's value a lookup returned was up to the sort.
        with pytest.raises(QueryError, match="repeats key 7"):
            ops.make_sorted_lookup(
                np.array([7, 3, 9, 7]), np.array([1, 2, 3, 4])
            )
        keys, values = ops.make_sorted_lookup(
            np.array([7, 3, 9]), np.array([1, 2, 3])
        )
        assert keys.tolist() == [3, 7, 9] and values.tolist() == [2, 1, 3]


class TestGrouping:
    def test_group_count_by_grid(self):
        coords = np.array([[0, 0, 0], [0, 1, 1], [0, 8, 8], [0, 9, 9]])
        counts = ops.group_count_by_grid(coords, dims=[1, 2],
                                         cell_sizes=[8, 8])
        assert counts == {(0, 0): 2, (1, 1): 2}

    def test_group_mean_by_grid(self):
        coords = np.array([[0, 0], [1, 0], [8, 0]])
        means = ops.group_mean_by_grid(
            coords, np.array([1.0, 3.0, 10.0]), dims=[0], cell_sizes=[8]
        )
        assert means[(0,)] == pytest.approx(2.0)
        assert means[(1,)] == pytest.approx(10.0)

    def test_empty_groupings(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert ops.group_count_by_grid(empty, [0], [4]) == {}
        assert ops.group_mean_by_grid(empty, np.empty(0), [0], [4]) == {}

    def test_window_average_overlap(self):
        # two cells in adjacent windows: each window sees both (overlap)
        coords = np.array([[0, 3, 0], [0, 5, 0]])
        values = np.array([2.0, 4.0])
        out = ops.window_average(coords, values, spatial_dims=(1, 2),
                                 window=4)
        assert out[(0, 0)] == pytest.approx(3.0)
        assert out[(1, 0)] == pytest.approx(3.0)


class TestModeling:
    def test_kmeans_separates_clear_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal((0, 0), 0.1, size=(40, 2))
        b = rng.normal((10, 10), 0.1, size=(40, 2))
        pts = np.concatenate([a, b])
        centroids, labels = ops.kmeans(pts, k=2, iterations=10, seed=1)
        assert centroids.shape == (2, 2)
        # the two clusters' labels are internally consistent
        assert len(set(labels[:40].tolist())) == 1
        assert len(set(labels[40:].tolist())) == 1
        assert labels[0] != labels[40]

    def test_kmeans_k_clamped_to_points(self):
        centroids, _ = ops.kmeans(np.array([[1.0, 1.0]]), k=5)
        assert centroids.shape == (1, 2)

    def test_kmeans_empty_rejected(self):
        with pytest.raises(QueryError):
            ops.kmeans(np.empty((0, 2)), k=2)

    def test_knn_mean_distance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        out = ops.knn_mean_distance(pts, pts[:1], k=2)
        assert out[0] == pytest.approx(1.5)

    def test_knn_excludes_self(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = ops.knn_mean_distance(pts, pts[:1], k=1)
        assert out[0] == pytest.approx(5.0)

    def test_knn_no_neighbors_nan(self):
        pts = np.array([[0.0, 0.0]])
        out = ops.knn_mean_distance(pts, pts, k=1)
        assert np.isnan(out[0])


class TestTrajectory:
    def test_dead_reckon_north(self):
        lon, lat = ops.dead_reckon(
            np.array([0.0]), np.array([0.0]),
            np.array([60]), np.array([0]), minutes=60.0,
        )
        assert lon[0] == pytest.approx(0.0, abs=1e-9)
        assert lat[0] == pytest.approx(1.0)  # 60 kn for 1 h = 1 degree

    def test_dead_reckon_east(self):
        lon, lat = ops.dead_reckon(
            np.array([0.0]), np.array([0.0]),
            np.array([60]), np.array([90]), minutes=60.0,
        )
        assert lon[0] == pytest.approx(1.0)
        assert lat[0] == pytest.approx(0.0, abs=1e-9)

    def test_count_close_pairs(self):
        lon = np.array([0.0, 0.1, 5.0])
        lat = np.array([0.0, 0.0, 5.0])
        assert ops.count_close_pairs(lon, lat, radius=0.5) == 1
        assert ops.count_close_pairs(lon, lat, radius=10.0) == 3

    def test_count_close_pairs_small_inputs(self):
        assert ops.count_close_pairs(np.array([0.0]), np.array([0.0]),
                                     1.0) == 0
        assert ops.count_close_pairs(np.empty(0), np.empty(0), 1.0) == 0

    def test_count_close_pairs_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        lon = rng.uniform(0, 3, 40)
        lat = rng.uniform(0, 3, 40)
        r = 0.7
        brute = sum(
            1
            for i in range(40)
            for j in range(i + 1, 40)
            if (lon[i] - lon[j]) ** 2 + (lat[i] - lat[j]) ** 2 <= r * r
        )
        assert ops.count_close_pairs(lon, lat, r) == brute

    def test_count_close_pairs_beyond_int64_extent(self):
        # Three clusters 2**40 buckets apart on both axes, in segments
        # 2**40 apart: the (segment, gx, gy) keys cannot pack into
        # int64, so the one body runs on void keys.
        from repro.arrays.coords import row_packing
        from tests import oracles

        rng = np.random.default_rng(8)
        far = 2.0**40
        at = rng.integers(0, 3, 60)
        lon = rng.uniform(0, 3, 60) + (at - 1) * far
        lat = rng.uniform(0, 3, 60) - (at - 1) * far
        segs = (at - 1) * 2**40
        r = 0.75
        key = np.stack(
            [segs, np.floor(lon / r).astype(np.int64),
             np.floor(lat / r).astype(np.int64)], axis=1,
        )
        assert row_packing(key, pad=1) is None
        want = oracles.count_close_pairs_scalar(lon, lat, r, segs)
        assert want > 0
        assert ops.count_close_pairs(lon, lat, r, segs) == want
        assert ops.count_close_pairs(lon, lat, r) == (
            oracles.count_close_pairs_scalar(lon, lat, r)
        )
