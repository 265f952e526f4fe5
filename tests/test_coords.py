"""Box algebra: the geometry layer under every range partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.coords import (
    Box,
    bounding_box,
    pack_rows_void,
    packing_admits,
    position_keys,
    row_packing,
    unique_row_index,
)
from repro.errors import ChunkError


class TestBoxBasics:
    def test_shape_and_volume(self):
        box = Box((0, 0), (4, 3))
        assert box.shape == (4, 3)
        assert box.volume == 12
        assert box.ndim == 2

    def test_normalizes_to_int_tuples(self):
        box = Box([0, 1], [2, 3])
        assert box.lo == (0, 1)
        assert isinstance(box.lo, tuple)

    def test_empty_box(self):
        assert Box((0, 0), (0, 5)).is_empty()
        assert not Box((0, 0), (1, 5)).is_empty()

    def test_inverted_box_rejected(self):
        with pytest.raises(ChunkError):
            Box((2, 0), (1, 5))

    def test_zero_dim_rejected(self):
        with pytest.raises(ChunkError):
            Box((), ())

    def test_mismatched_arity_rejected(self):
        with pytest.raises(ChunkError):
            Box((0,), (1, 2))


class TestContains:
    def test_half_open_semantics(self):
        box = Box((0, 0), (2, 2))
        assert box.contains((0, 0))
        assert box.contains((1, 1))
        assert not box.contains((2, 0))
        assert not box.contains((0, 2))

    def test_contains_box(self):
        outer = Box((0, 0), (10, 10))
        assert outer.contains_box(Box((2, 2), (5, 5)))
        assert outer.contains_box(outer)
        assert not outer.contains_box(Box((5, 5), (11, 6)))

    def test_wrong_arity_point(self):
        with pytest.raises(ChunkError):
            Box((0, 0), (2, 2)).contains((1,))


class TestIntersection:
    def test_overlap(self):
        a = Box((0, 0), (4, 4))
        b = Box((2, 2), (6, 6))
        assert a.intersects(b)
        assert a.intersect(b) == Box((2, 2), (4, 4))

    def test_touching_edges_do_not_intersect(self):
        a = Box((0, 0), (2, 2))
        b = Box((2, 0), (4, 2))
        assert not a.intersects(b)
        assert a.intersect(b).is_empty()

    def test_disjoint(self):
        a = Box((0, 0), (1, 1))
        b = Box((5, 5), (6, 6))
        assert not a.intersects(b)


class TestSplit:
    def test_split_partitions_volume(self):
        box = Box((0, 0), (4, 4))
        lower, upper = box.split(0, 1)
        assert lower == Box((0, 0), (1, 4))
        assert upper == Box((1, 0), (4, 4))
        assert lower.volume + upper.volume == box.volume

    def test_split_rejects_boundary_points(self):
        box = Box((0, 0), (4, 4))
        with pytest.raises(ChunkError):
            box.split(0, 0)
        with pytest.raises(ChunkError):
            box.split(0, 4)

    def test_split_bad_dim(self):
        with pytest.raises(ChunkError):
            Box((0,), (4,)).split(1, 2)

    def test_halve_odd_extent(self):
        lower, upper = Box((0,), (5,)).halve(0)
        assert lower == Box((0,), (2,))
        assert upper == Box((2,), (5,))

    def test_halve_width_two(self):
        lower, upper = Box((3,), (5,)).halve(0)
        assert lower.volume == 1 and upper.volume == 1


class TestOrthants:
    def test_2d_quarters(self):
        quarters = Box((0, 0), (4, 4)).orthants()
        assert len(quarters) == 4
        assert sum(q.volume for q in quarters) == 16
        assert all(q.volume == 4 for q in quarters)

    def test_3d_octants(self):
        octants = Box((0, 0, 0), (4, 4, 4)).orthants()
        assert len(octants) == 8

    def test_thin_dimension_not_split(self):
        children = Box((0, 0), (1, 4)).orthants()
        assert len(children) == 2  # only dim 1 splittable

    def test_unit_cell_is_own_orthant(self):
        assert Box((0, 0), (1, 1)).orthants() == (Box((0, 0), (1, 1)),)


class TestFaceAdjacency:
    def test_adjacent_quarters(self):
        q = Box((0, 0), (4, 4)).orthants()
        # quarters share faces with their row/column neighbours
        adjacent_pairs = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if q[i].face_adjacent(q[j])
        )
        assert adjacent_pairs == 4  # the two diagonals are not adjacent

    def test_diagonal_not_adjacent(self):
        a = Box((0, 0), (2, 2))
        b = Box((2, 2), (4, 4))
        assert not a.face_adjacent(b)

    def test_gap_not_adjacent(self):
        a = Box((0, 0), (2, 2))
        b = Box((3, 0), (5, 2))
        assert not a.face_adjacent(b)

    def test_overlapping_not_adjacent(self):
        a = Box((0, 0), (3, 3))
        b = Box((2, 0), (5, 3))
        assert not a.face_adjacent(b)


class TestPoints:
    def test_row_major_enumeration(self):
        pts = list(Box((0, 0), (2, 2)).points())
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_point_count_matches_volume(self):
        box = Box((1, 2, 3), (3, 4, 5))
        assert len(list(box.points())) == box.volume


class TestBoundingBox:
    def test_bounds_points(self):
        box = bounding_box([(0, 5), (2, 1), (1, 3)])
        assert box == Box((0, 1), (3, 6))

    def test_empty_rejected(self):
        with pytest.raises(ChunkError):
            bounding_box([])


@settings(max_examples=60, deadline=None)
@given(
    lo=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    extent=st.data(),
)
def test_property_orthants_tile_box(lo, extent):
    """Orthants partition a box exactly: disjoint, full coverage."""
    hi = tuple(
        l + extent.draw(st.integers(1, 6)) for l in lo
    )
    box = Box(tuple(lo), hi)
    children = box.orthants()
    assert sum(c.volume for c in children) == box.volume
    for i in range(len(children)):
        for j in range(i + 1, len(children)):
            assert not children[i].intersects(children[j])
    for c in children:
        assert box.contains_box(c)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_split_partitions(data):
    """Any legal split yields two disjoint halves covering the box."""
    ndim = data.draw(st.integers(1, 3))
    lo = tuple(data.draw(st.integers(-5, 5)) for _ in range(ndim))
    hi = tuple(l + data.draw(st.integers(2, 8)) for l in lo)
    box = Box(lo, hi)
    dim = data.draw(st.integers(0, ndim - 1))
    at = data.draw(st.integers(lo[dim] + 1, hi[dim] - 1))
    lower, upper = box.split(dim, at)
    assert lower.volume + upper.volume == box.volume
    assert not lower.intersects(upper)
    for p in box.points():
        assert lower.contains(p) != upper.contains(p)


class TestPositionKeyCodec:
    """int64 position keys: order-preserving, with a checked range."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_keys_order_rows_like_the_void_view(self, data):
        d = data.draw(st.integers(1, 4))
        rows = np.array(data.draw(st.lists(
            st.tuples(*[st.integers(-40, 40)] * d),
            min_size=1, max_size=30,
        )), dtype=np.int64)
        packing = row_packing(rows)
        keys = position_keys(rows, packing)
        assert keys.dtype == np.int64
        assert packing_admits(rows, packing)
        void = pack_rows_void(rows)
        assert np.array_equal(
            np.argsort(keys, kind="stable"),
            np.argsort(void, kind="stable"),
        )
        assert len(np.unique(keys)) == len(np.unique(void))

    def test_admits_checks_every_column_but_the_leading_span(self):
        packing = row_packing(np.array([[0, -3, 10], [4, 3, 19]]))
        inside = np.array([[2, 0, 15]])
        assert packing_admits(inside, packing)
        assert packing_admits(np.empty((0, 3), dtype=np.int64), packing)
        assert packing_admits(np.array([[2, 0, 99]]), None)  # void keys
        assert not packing_admits(np.array([[2, 4, 15]]), packing)
        assert not packing_admits(np.array([[2, 0, 9]]), packing)
        # the top mixed-radix digit is unbounded: time may grow (or
        # start earlier) and the keys stay ordered and collision-free
        late = np.array([[10**9, 3, 19], [-7, -3, 10], [2, 0, 15]])
        assert packing_admits(late, packing)
        keys = position_keys(late, packing)
        assert keys.argsort().tolist() == [1, 2, 0]
        # ... until the scaled offset would leave int64
        assert not packing_admits(np.array([[2**62 // 70 + 1, 0, 15]]), packing)
        assert packing_admits(np.array([[2**62 // 70 - 1, 0, 15]]), packing)


class TestUniqueRowIndex:
    """The packed-key dedupe ≡ ``np.unique(rows, axis=0, return_index=True)``."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_unique_rows_with_index(self, data):
        d = data.draw(st.integers(1, 4))
        row = st.tuples(*[st.integers(-6, 6)] * d)
        shape = data.draw(st.sampled_from(
            ["empty", "one", "duplicates", "any", "unpackable"]
        ))
        if shape == "empty":
            rows = []
        elif shape == "one":
            rows = [data.draw(row)]
        elif shape == "duplicates":
            rows = [data.draw(row)] * data.draw(st.integers(2, 12))
        else:
            rows = data.draw(st.lists(row, max_size=40))
        rows = np.array(rows, dtype=np.int64).reshape(-1, d)
        if shape == "unpackable":
            # An extent beyond int64 sends the codec to its void keys.
            wide = data.draw(st.lists(
                st.tuples(*[st.sampled_from([-(2**62), 0, 2**62])] * d),
                min_size=1, max_size=8,
            ))
            rows = np.concatenate([
                rows, [[-(2**62)] * d, [2**62] * d], wide, rows[:3],
            ]).astype(np.int64)
            rows = rows[data.draw(st.permutations(range(len(rows))))]
            assert row_packing(rows) is None
        want_rows, want_index = np.unique(rows, axis=0, return_index=True)
        index = unique_row_index(rows)
        assert np.array_equal(index, want_index)
        assert np.array_equal(rows[index], want_rows)
