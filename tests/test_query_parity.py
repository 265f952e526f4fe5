"""Vectorized query kernels ≡ their scalar oracles.

Extends the `test_batch_parity.py` scalar/batch contract to the query
layer: every vectorized operator must reproduce its pre-refactor scalar
implementation.  On integer-valued inputs every float operation both
paths perform is exact, so the comparison is bitwise; seeded continuous
smoke tests allow float-reassociation tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.coords import (
    joint_position_keys,
    pack_rows_void,
    row_packing,
)
from repro.query import operators as ops
from tests import oracles


def _int_points(draw, n_max=60, d_min=1, d_max=3, lo=-50, hi=50):
    n = draw(st.integers(1, n_max))
    d = draw(st.integers(d_min, d_max))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(lo, hi)] * d),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(rows, dtype=np.float64).reshape(n, d)


def _inertia(pts, centroids, labels):
    return float(((pts - centroids[labels]) ** 2).sum(axis=1).mean())


class TestKmeansParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_integer_points_exact(self, data):
        """Integer points: same labels imply bit-identical centroids.

        Centroids stop being integers after the first update, so the
        matmul expansion and the oracle's explicit differences can
        round an exact tie to different sides.  Where the labels
        differ, only that is accepted: at the first Lloyd step the arms
        part ways they start from bit-identical centroids, and against
        those the two assignments must have equal inertia (the quality
        measure of ``test_continuous_points_close``; later steps may
        settle in different optima, so final inertia is no criterion).
        """
        pts = _int_points(data.draw)
        k = data.draw(st.integers(1, 6))
        iterations = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 1000))
        c_vec, l_vec = ops.kmeans(pts, k, iterations, seed=seed)
        c_sca, l_sca = oracles.kmeans_scalar(pts, k, iterations, seed=seed)
        if np.array_equal(l_vec, l_sca):
            assert np.array_equal(c_vec, c_sca)
            return
        for step in range(1, iterations + 1):
            l_vec = ops.kmeans(pts, k, step, seed=seed)[1]
            l_sca = oracles.kmeans_scalar(pts, k, step, seed=seed)[1]
            if not np.array_equal(l_vec, l_sca):
                break
        shared = ops.kmeans(pts, k, step - 1, seed=seed)[0]
        assert np.array_equal(
            shared, oracles.kmeans_scalar(pts, k, step - 1, seed=seed)[0]
        )
        assert _inertia(pts, shared, l_vec) == pytest.approx(
            _inertia(pts, shared, l_sca), rel=1e-9
        )

    def test_continuous_points_close(self):
        # On continuous inputs the matmul expansion may round near-tie
        # assignments differently than the oracle (and BLAS rounding
        # varies across builds), so compare clustering *quality* — both
        # must be equally good Lloyd iterates — not exact labels.
        rng = np.random.default_rng(42)
        pts = rng.normal(0, 10, size=(500, 3))
        c_vec, l_vec = ops.kmeans(pts, 5, iterations=8, seed=3)
        c_sca, l_sca = oracles.kmeans_scalar(pts, 5, iterations=8, seed=3)
        assert _inertia(pts, c_vec, l_vec) == pytest.approx(
            _inertia(pts, c_sca, l_sca), rel=0.01
        )

    def test_empty_rejected_like_scalar(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            ops.kmeans(np.empty((0, 2)), k=2)


class TestKnnParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar(self, data):
        pts = _int_points(data.draw)
        m = data.draw(st.integers(1, 10))
        qs = pts[
            data.draw(
                st.lists(
                    st.integers(0, pts.shape[0] - 1),
                    min_size=m,
                    max_size=m,
                )
            )
        ]
        k = data.draw(st.integers(1, 5))
        vec = ops.knn_mean_distance(pts, qs, k)
        sca = oracles.knn_mean_distance_scalar(pts, qs, k)
        assert np.allclose(vec, sca, rtol=1e-9, equal_nan=True)

    def test_empty_cases_match(self):
        empty = np.empty((0, 2))
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert ops.knn_mean_distance(pts, empty, 2).shape == (0,)
        out = ops.knn_mean_distance(empty, pts, 2)
        assert np.isnan(out).all()

    def test_all_duplicates_give_nan(self):
        pts = np.zeros((4, 2))
        vec = ops.knn_mean_distance(pts, pts[:2], 3)
        sca = oracles.knn_mean_distance_scalar(pts, pts[:2], 3)
        assert np.isnan(vec).all() and np.isnan(sca).all()


class TestGridGroupByParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_count_exact(self, data):
        coords = _int_points(
            data.draw, d_min=2, d_max=3, lo=0, hi=200
        ).astype(np.int64)
        g = data.draw(st.integers(1, coords.shape[1]))
        dims = list(range(g))
        sizes = [data.draw(st.integers(1, 16)) for _ in range(g)]
        assert ops.group_count_by_grid(
            coords, dims, sizes
        ) == oracles.group_count_by_grid_scalar(coords, dims, sizes)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mean_exact_on_integers(self, data):
        coords = _int_points(
            data.draw, d_min=2, d_max=3, lo=0, hi=200
        ).astype(np.int64)
        n = coords.shape[0]
        values = np.array(
            data.draw(
                st.lists(
                    st.integers(-100, 100), min_size=n, max_size=n
                )
            ),
            dtype=np.float64,
        )
        dims = [0]
        sizes = [data.draw(st.integers(1, 16))]
        vec = ops.group_mean_by_grid(coords, values, dims, sizes)
        sca = oracles.group_mean_by_grid_scalar(coords, values, dims, sizes)
        assert vec.keys() == sca.keys()
        for bucket in vec:
            assert vec[bucket] == sca[bucket]
        # the one-pass (count, sum, min, max) kernel over the same rows
        buckets, counts, sums, mins, maxs = ops.group_stats_by_grid_arrays(
            coords, values, dims, sizes
        )
        assert {
            tuple(b): (c, s, lo, hi)
            for b, c, s, lo, hi in zip(
                buckets.tolist(), counts.tolist(), sums.tolist(),
                mins.tolist(), maxs.tolist(),
            )
        } == oracles.group_stats_by_grid_scalar(coords, values, dims, sizes)

    def test_empty_inputs(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert ops.group_count_by_grid(empty, [0], [4]) == {}
        assert ops.group_mean_by_grid(
            empty, np.empty(0), [0], [4]
        ) == {}

    def test_extreme_coordinates_disable_packing(self):
        # Regression: span arithmetic near the int64 limits must fall
        # back to the unpacked path, never wrap into colliding keys.
        coords = np.array(
            [[-(2**62), 0], [2**62, 0], [2**62, 1]], dtype=np.int64
        )
        vec = ops.group_count_by_grid(coords, [0, 1], [1, 1])
        sca = oracles.group_count_by_grid_scalar(coords, [0, 1], [1, 1])
        assert vec == sca
        assert len(vec) == 3
        lo = np.array([[-(2**63)], [2**63 - 1]], dtype=np.int64)
        assert ops.group_count_by_grid(
            lo, [0], [1]
        ) == oracles.group_count_by_grid_scalar(lo, [0], [1])


class TestWindowAverageParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_on_integers(self, data):
        coords = _int_points(
            data.draw, d_min=3, d_max=3, lo=0, hi=100
        ).astype(np.int64)
        n = coords.shape[0]
        values = np.array(
            data.draw(
                st.lists(
                    st.integers(-50, 50), min_size=n, max_size=n
                )
            ),
            dtype=np.float64,
        )
        window = data.draw(st.integers(1, 12))
        vec = ops.window_average(coords, values, (1, 2), window)
        sca = oracles.window_average_scalar(coords, values, (1, 2), window)
        assert vec.keys() == sca.keys()
        for bucket in vec:
            assert vec[bucket] == sca[bucket]

    def test_continuous_values_close(self):
        rng = np.random.default_rng(9)
        coords = rng.integers(0, 64, size=(400, 3))
        values = rng.normal(0, 1, 400)
        vec = ops.window_average(coords, values, (1, 2), 8)
        sca = oracles.window_average_scalar(coords, values, (1, 2), 8)
        assert vec.keys() == sca.keys()
        for bucket in vec:
            assert vec[bucket] == pytest.approx(sca[bucket], rel=1e-9)


class TestClosePairsParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_and_bruteforce(self, data):
        n = data.draw(st.integers(2, 50))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        lon = rng.uniform(0, 4, n)
        lat = rng.uniform(0, 4, n)
        radius = float(rng.uniform(0.2, 1.5))
        vec = ops.count_close_pairs(lon, lat, radius)
        sca = oracles.count_close_pairs_scalar(lon, lat, radius)
        brute = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if (lon[i] - lon[j]) ** 2 + (lat[i] - lat[j]) ** 2
            <= radius * radius
        )
        assert vec == sca == brute

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_segmented_equals_per_segment_sum(self, data):
        n = data.draw(st.integers(2, 60))
        seed = data.draw(st.integers(0, 10_000))
        n_seg = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(seed)
        lon = rng.uniform(0, 4, n)
        lat = rng.uniform(0, 4, n)
        segs = rng.integers(0, n_seg, n)
        radius = 0.7
        combined = ops.count_close_pairs(
            lon, lat, radius, segments=segs
        )
        split = sum(
            oracles.count_close_pairs_scalar(
                lon[segs == s], lat[segs == s], radius
            )
            for s in range(n_seg)
        )
        assert combined == split

    @staticmethod
    def _brute(lon, lat, radius, segs):
        return sum(
            1
            for i in range(lon.shape[0])
            for j in range(i + 1, lon.shape[0])
            if segs[i] == segs[j]
            and (lon[i] - lon[j]) ** 2 + (lat[i] - lat[j]) ** 2
            <= radius * radius
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_points_on_bucket_edges(self, data):
        # Every coordinate a multiple of the radius: each point sits on
        # a bucket corner, and pairs exactly ``radius`` apart count.
        radius = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        steps = st.lists(
            st.integers(-4, 6), min_size=2, max_size=40
        )
        lon = np.array(data.draw(steps), dtype=np.float64) * radius
        lat = np.resize(
            np.array(data.draw(steps), dtype=np.float64), lon.shape
        ) * radius
        segs = np.zeros(lon.shape[0], dtype=np.int64)
        vec = ops.count_close_pairs(lon, lat, radius)
        sca = oracles.count_close_pairs_scalar(lon, lat, radius)
        assert vec == sca == self._brute(lon, lat, radius, segs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_segments_beyond_int64_take_void_keys(self, data):
        n = data.draw(st.integers(2, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        segs = rng.choice(
            np.array([-(2**62), 0, 2**62], dtype=np.int64), n
        )
        lon = rng.uniform(0, 3, n)
        lat = rng.uniform(0, 3, n)
        radius = 0.6
        key = np.stack(
            [segs, np.floor(lon / radius), np.floor(lat / radius)], axis=1
        ).astype(np.int64)
        if len(set(segs.tolist())) > 1:
            assert row_packing(key, pad=1) is None
        vec = ops.count_close_pairs(lon, lat, radius, segments=segs)
        sca = oracles.count_close_pairs_scalar(
            lon, lat, radius, segments=segs
        )
        assert vec == sca == self._brute(lon, lat, radius, segs)


def _void_position_join(coords_a, values_a, coords_b, values_b):
    """The pre-int64 join: intersect structured-void views of the rows."""
    _, idx_a, idx_b = np.intersect1d(
        pack_rows_void(coords_a), pack_rows_void(coords_b),
        return_indices=True,
    )
    return coords_a[idx_a], values_a[idx_a], values_b[idx_b]


class TestPositionJoinKeyParity:
    """int64 position keys are an order-preserving re-encoding: the
    join returns the void path's arrays element for element."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_int64_keys_match_void_keys(self, data):
        d = data.draw(st.integers(1, 4))
        # Small pools force overlaps and duplicates; the wide one packs
        # with large negative offsets; the last overflows 2**62.
        lo, hi = data.draw(st.sampled_from(
            [(-6, 6), (-50, 50), (-2**40, 2**40), (-2**62, 2**62)]
        ))
        row = st.tuples(*[st.integers(lo, hi)] * d)
        pool = data.draw(st.lists(row, min_size=1, max_size=12))
        rows = st.lists(st.one_of(st.sampled_from(pool), row), max_size=30)
        ca = np.array(data.draw(rows), dtype=np.int64).reshape(-1, d)
        cb = np.array(data.draw(rows), dtype=np.int64).reshape(-1, d)
        va = np.arange(ca.shape[0], dtype=np.float64)
        vb = np.arange(cb.shape[0], dtype=np.float64) + 0.5
        coords, a, b = ops.position_join(ca, va, cb, vb)
        if not ca.shape[0] or not cb.shape[0]:
            assert coords.shape == (0, d) and a.size == 0 and b.size == 0
            return
        want = _void_position_join(ca, va, cb, vb)
        assert np.array_equal(coords, want[0])
        assert np.array_equal(a, want[1])
        assert np.array_equal(b, want[2])

    def test_overflowing_extent_takes_the_void_fallback(self):
        big = 2**62
        ca = np.array([[big, 1], [-big, 2], [0, 0], [big, 1]])
        cb = np.array([[0, 0], [big, 1], [5, 5], [-big, 2]])
        assert row_packing(np.concatenate([ca, cb])) is None
        keys = joint_position_keys(ca, cb)
        assert all(k.dtype.kind == "V" for k in keys)
        va, vb = np.arange(4.0), np.arange(4.0) * 10
        got = ops.position_join(ca, va, cb, vb)
        want = _void_position_join(ca, va, cb, vb)
        for left, right in zip(got, want):
            assert np.array_equal(left, right)
        assert got[0].tolist() == [[-big, 2], [0, 0], [big, 1]]

    def test_packable_extent_keys_are_int64(self):
        ca = np.array([[-3, 7], [4, -9]])
        cb = np.array([[4, -9]])
        keys_a, keys_b = joint_position_keys(ca, cb)
        assert keys_a.dtype == np.int64 and keys_b.dtype == np.int64
        assert keys_a[1] == keys_b[0] and keys_a[0] < keys_a[1]


class TestJoinHoisting:
    """Regression: hoisted lookup tables must be honoured."""

    def test_make_sorted_lookup_matches_manual_sort(self):
        keys = np.array([5, 1, 9, 3])
        values = np.array([50, 10, 90, 30])
        sorted_keys, sorted_vals = ops.make_sorted_lookup(keys, values)
        assert sorted_keys.tolist() == [1, 3, 5, 9]
        out = ops.equi_join_lookup(
            np.array([9, 1, 7]), sorted_keys, sorted_vals
        )
        assert out.tolist() == [90, 10, -1]
