"""Hilbert space-filling curve: bijectivity, locality, rectangles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.sfc import (
    RectangleHilbert,
    bits_for_extent,
    hilbert_index,
    hilbert_point,
)
from repro.errors import ChunkError


class TestOrder1Curve:
    def test_classic_2d_order(self):
        # The order-1 2-d Hilbert curve visits the four cells in a U.
        pts = [hilbert_point(i, 1, 2) for i in range(4)]
        assert pts == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_1d_is_identity(self):
        assert [hilbert_index((i,), 3) for i in range(8)] == list(range(8))
        assert hilbert_point(5, 3, 1) == (5,)


class TestBijectivity:
    @pytest.mark.parametrize("bits,ndim", [(2, 2), (3, 2), (2, 3), (1, 4)])
    def test_index_point_roundtrip(self, bits, ndim):
        total = 1 << (bits * ndim)
        seen = set()
        for i in range(total):
            p = hilbert_point(i, bits, ndim)
            assert hilbert_index(p, bits) == i
            seen.add(p)
        assert len(seen) == total


class TestLocality:
    @pytest.mark.parametrize("bits,ndim", [(3, 2), (2, 3)])
    def test_consecutive_indices_are_grid_neighbors(self, bits, ndim):
        total = 1 << (bits * ndim)
        prev = hilbert_point(0, bits, ndim)
        for i in range(1, total):
            cur = hilbert_point(i, bits, ndim)
            manhattan = sum(abs(a - b) for a, b in zip(prev, cur))
            assert manhattan == 1, f"jump at index {i}"
            prev = cur


class TestValidation:
    def test_out_of_range_coordinate(self):
        with pytest.raises(ChunkError):
            hilbert_index((4, 0), 2)

    def test_negative_coordinate(self):
        with pytest.raises(ChunkError):
            hilbert_index((-1, 0), 2)

    def test_out_of_range_index(self):
        with pytest.raises(ChunkError):
            hilbert_point(16, 1, 2)

    def test_zero_bits(self):
        with pytest.raises(ChunkError):
            hilbert_index((0,), 0)

    def test_empty_point(self):
        with pytest.raises(ChunkError):
            hilbert_index((), 2)


class TestBitsForExtent:
    def test_powers_of_two(self):
        assert bits_for_extent(1) == 1
        assert bits_for_extent(2) == 1
        assert bits_for_extent(3) == 2
        assert bits_for_extent(16) == 4
        assert bits_for_extent(17) == 5

    def test_invalid(self):
        with pytest.raises(ChunkError):
            bits_for_extent(0)


class TestRectangleHilbert:
    def test_orders_all_rectangle_points_distinctly(self):
        rect = RectangleHilbert((5, 3))
        indices = {
            rect.index((x, y)) for x in range(5) for y in range(3)
        }
        assert len(indices) == 15

    def test_rectangle_order_preserves_cube_order(self):
        rect = RectangleHilbert((4, 4))
        # For a square power-of-two rectangle this IS the cube curve.
        assert rect.index((0, 0)) == hilbert_index((0, 0), 2)
        assert rect.index((3, 0)) == hilbert_index((3, 0), 2)

    def test_overflow_epochs_stay_ordered_after_declared_extent(self):
        rect = RectangleHilbert((4, 4, 4))
        inside = rect.index((3, 3, 3))
        beyond = rect.index((5, 3, 3))  # coordinate past the cube
        assert beyond >= rect.index_space
        assert beyond > inside

    def test_overflow_indices_stable(self):
        # Indices issued before growth must not change afterwards: the
        # incremental contract depends on it.
        rect = RectangleHilbert((4, 4))
        before = [rect.index((x, y)) for x in range(4) for y in range(4)]
        rect.index((9, 1))  # touch an overflow epoch
        after = [rect.index((x, y)) for x in range(4) for y in range(4)]
        assert before == after

    def test_wrong_arity(self):
        with pytest.raises(ChunkError):
            RectangleHilbert((4, 4)).index((1, 2, 3))

    def test_negative_coordinate(self):
        with pytest.raises(ChunkError):
            RectangleHilbert((4, 4)).index((-1, 0))

    def test_bad_extents(self):
        with pytest.raises(ChunkError):
            RectangleHilbert((0, 4))
        with pytest.raises(ChunkError):
            RectangleHilbert(())

    @pytest.mark.parametrize(
        "extent", [2.5, True, float("nan"), float("inf"), 0]
    )
    def test_extent_must_be_a_count(self, extent):
        # 2.5 used to truncate to 2 and NaN to raise a bare ValueError.
        with pytest.raises(ChunkError, match=r"extents\[0\]"):
            RectangleHilbert((extent, 4))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_roundtrip(data):
    """index -> point -> index is the identity for random parameters."""
    ndim = data.draw(st.integers(1, 4))
    bits = data.draw(st.integers(1, 4 if ndim <= 2 else 3))
    total = 1 << (bits * ndim)
    i = data.draw(st.integers(0, total - 1))
    p = hilbert_point(i, bits, ndim)
    assert hilbert_index(p, bits) == i


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_property_rectangle_indices_unique(data):
    """Rectangle curve positions are unique across the whole rectangle."""
    extents = tuple(
        data.draw(st.integers(1, 6)) for _ in range(data.draw(st.integers(1, 3)))
    )
    rect = RectangleHilbert(extents)
    seen = set()
    def walk(prefix):
        if len(prefix) == len(extents):
            idx = rect.index(prefix)
            assert idx not in seen
            seen.add(idx)
            return
        for v in range(extents[len(prefix)]):
            walk(prefix + (v,))
    walk(())
