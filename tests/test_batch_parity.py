"""Batch APIs must be bit-for-bit equivalent to their scalar oracles.

Covers the tentpole contract of the vectorized hot paths:

* :func:`hilbert_index_batch` ≡ :func:`hilbert_index` mapped over the
  batch, across ndim 1–5 and curve orders (including the object-dtype
  fallback when the index space exceeds int64).
* :meth:`RectangleHilbert.index_batch` ≡ :meth:`RectangleHilbert.index`,
  including overflow-epoch coordinates beyond the declared extents.
* :meth:`ElasticPartitioner.place_batch` ≡ a sequential loop of
  :func:`tests.oracles.place_scalar` for every registered scheme,
  including duplicate refs within one batch, and at a node capacity
  small enough that Append's fill cursor crosses nodes mid-batch —
  with merges onto the cursor node and onto nodes ahead of it.
* The grid schemes reject a key of the wrong arity with a
  :class:`ChunkError`, on the scalar and the batch path alike.
* The running ``total_bytes`` counter stays equal to the size ledger
  through placements and removes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkRef
from repro.arrays.sfc import (
    RectangleHilbert,
    hilbert_index,
    hilbert_index_batch,
)
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.errors import ChunkError, PartitioningError
from tests.helpers import columns, placements
from tests.oracles import place_scalar

GRID = Box((0, 0, 0), (40, 29, 23))
#: Small enough that Append's cursor crosses three of four nodes inside
#: one ``_random_batch(1500)`` (≈20 kB), so the fill walk is exercised.
SMALL_CAPACITY = 2000.0


def _with_capacities(names):
    """Every scheme at the never-full capacity (ids unchanged) and at
    :data:`SMALL_CAPACITY`."""
    return [pytest.param(n, 1e12, id=n) for n in names] + [
        pytest.param(n, SMALL_CAPACITY, id=f"{n}-small_capacity")
        for n in names
    ]


def _random_batch(n, seed, dup_every=7, arrays=("a", "b")):
    """Random (ref, size) items: mixed arrays, coords past the declared
    extents (overflow epochs), and periodic duplicate refs."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        key = (
            int(rng.integers(0, 60)),  # beyond extent 40: overflow epoch
            int(rng.integers(0, 29)),
            int(rng.integers(0, 23)),
        )
        ref = ChunkRef(arrays[i % len(arrays)], key)
        items.append((ref, float(rng.lognormal(2, 1))))
    for i in range(0, n, dup_every):
        items.append(items[i])
    return items


class TestHilbertIndexBatchParity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_scalar(self, data):
        ndim = data.draw(st.integers(1, 5))
        bits = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, 50))
        limit = 1 << bits
        pts = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, limit - 1)] * ndim),
                min_size=n,
                max_size=n,
            )
        )
        arr = np.array(pts, dtype=np.int64).reshape(n, ndim)
        batch = hilbert_index_batch(arr, bits)
        assert batch.tolist() == [hilbert_index(p, bits) for p in pts]

    def test_object_fallback_beyond_int64(self):
        # 5 dims × 13 bits = 65 index bits: must fall back to exact
        # Python ints, never overflow silently.
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 1 << 13, size=(40, 5))
        out = hilbert_index_batch(pts, 13)
        assert out.dtype == object
        assert out.tolist() == [
            hilbert_index(tuple(p), 13) for p in pts.tolist()
        ]

    def test_empty_batch(self):
        out = hilbert_index_batch(np.empty((0, 3), dtype=np.int64), 4)
        assert out.shape == (0,)

    def test_validation_matches_scalar(self):
        with pytest.raises(ChunkError):
            hilbert_index_batch(np.array([[4, 0]]), 2)
        with pytest.raises(ChunkError):
            hilbert_index_batch(np.array([[-1, 0]]), 2)
        with pytest.raises(ChunkError):
            hilbert_index_batch(np.array([[0, 0]]), 0)
        with pytest.raises(ChunkError):
            hilbert_index_batch(np.empty((2, 0), dtype=np.int64), 2)


class TestRectangleIndexBatchParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_with_overflow_epochs(self, data):
        ndim = data.draw(st.integers(1, 5))
        extents = tuple(
            data.draw(st.integers(1, 12)) for _ in range(ndim)
        )
        rect = RectangleHilbert(extents)
        n = data.draw(st.integers(1, 40))
        # Coordinates up to 4x the cube edge exercise overflow folding.
        hi = 4 * (1 << rect.bits)
        pts = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, hi)] * ndim),
                min_size=n,
                max_size=n,
            )
        )
        arr = np.array(pts, dtype=np.int64).reshape(n, ndim)
        batch = rect.index_batch(arr)
        assert batch.tolist() == [rect.index(p) for p in pts]

    def test_huge_overflow_falls_back_exactly(self):
        rect = RectangleHilbert((2**20, 2**20, 2**20))
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 2**45, size=(16, 3))
        out = rect.index_batch(pts)
        assert out.dtype == object
        assert out.tolist() == [
            rect.index(tuple(p)) for p in pts.tolist()
        ]

    def test_coordinates_beyond_int64_fall_back_exactly(self):
        # Object-dtype input whose values cannot even be cast to int64:
        # both batch paths must defer to the scalar oracle, not crash.
        rect = RectangleHilbert((4, 4))
        pts = np.array([[2**70, 1], [3, 2]], dtype=object)
        out = rect.index_batch(pts)
        assert out.tolist() == [rect.index((2**70, 1)), rect.index((3, 2))]
        with pytest.raises(ChunkError):
            # hilbert_index_batch: same coordinate is out of range for
            # the cube curve, and the scalar oracle says so.
            hilbert_index_batch(pts, 2)

    def test_uint64_coordinates_do_not_wrap(self):
        # astype(int64) would silently wrap uint64 values >= 2**63; the
        # batch paths must match the scalar oracle instead.
        rect = RectangleHilbert((40, 29))
        pts = np.array([[2**63, 5], [7, 3]], dtype=np.uint64)
        out = rect.index_batch(pts)
        assert out.tolist() == [rect.index((2**63, 5)), rect.index((7, 3))]
        big = hilbert_index_batch(np.array([[2**63]], dtype=np.uint64), 64)
        assert big.tolist() == [hilbert_index((2**63,), 64)]

    def test_order_63_curve_falls_back_exactly(self):
        # bits == 63 overflows the vectorized epoch arithmetic (the
        # divisor 2**63 exceeds C long); the scalar oracle must take
        # over transparently.
        rect = RectangleHilbert((2**62 + 1,))
        assert rect.bits == 63
        out = rect.index_batch(np.array([[12345], [2**62]], dtype=np.int64))
        assert out.tolist() == [rect.index((12345,)), rect.index((2**62,))]

    def test_arity_and_sign_validation(self):
        rect = RectangleHilbert((4, 4))
        with pytest.raises(ChunkError):
            rect.index_batch(np.array([[1, 2, 3]]))
        with pytest.raises(ChunkError):
            rect.index_batch(np.array([[-1, 0]]))


class TestPlaceBatchParity:
    @pytest.mark.parametrize("name, capacity", _with_capacities(
        ALL_PARTITIONERS
    ))
    def test_matches_sequential(self, name, capacity):
        items = _random_batch(1500, seed=hash(name) % 2**31)
        seq = make_partitioner(
            name, [0, 1, 2, 3], grid=GRID, node_capacity_bytes=capacity
        )
        bat = make_partitioner(
            name, [0, 1, 2, 3], grid=GRID, node_capacity_bytes=capacity
        )
        expected = {ref: place_scalar(seq, ref, size) for ref, size in items}
        placed = placements(bat, items)
        # Assignments, placements, and per-chunk sizes are bit-exact.
        assert placed == expected
        assert bat.assignment() == seq.assignment()
        for ref in seq.assignment():
            assert bat.size_of(ref) == seq.size_of(ref)
        # Loads/totals hold the same bytes, summed in a different order
        # (vectorized reductions): equal up to float reassociation.
        for node, load in seq.node_loads().items():
            assert bat.load_of(node) == pytest.approx(load, rel=1e-12)
        assert bat.total_bytes == pytest.approx(
            seq.total_bytes, rel=1e-12
        )

    @pytest.mark.parametrize("name, capacity", _with_capacities(
        ALL_PARTITIONERS
    ))
    def test_batch_then_scalar_interleave(self, name, capacity):
        """A batch may follow scalar placements and vice versa."""
        items = _random_batch(300, seed=3)
        p = make_partitioner(
            name, [0, 1], grid=GRID, node_capacity_bytes=capacity
        )
        ref0, size0 = items[0]
        first = place_scalar(p, ref0, size0)
        placed = placements(p, items[1:])
        # The scalar-placed chunk keeps its node; batch merges agree.
        assert p.locate(ref0) == first
        for ref, node in placed.items():
            assert p.locate(ref) == node

    def test_empty_batch(self):
        for name in ALL_PARTITIONERS:
            p = make_partitioner(
                name, [0, 1], grid=GRID, node_capacity_bytes=1e12
            )
            assert placements(p, []) == {}
            assert p.total_bytes == 0.0

    def test_negative_size_rejected(self):
        for name in ALL_PARTITIONERS:
            p = make_partitioner(
                name, [0, 1], grid=GRID, node_capacity_bytes=1e12
            )
            with pytest.raises(PartitioningError):
                p.place_batch([ChunkRef("a", (0, 0, 0))], [-1.0])


class TestAppendFillWalk:
    """Append's batch walk replays the cursor exactly, merges included."""

    def test_small_capacity_crosses_three_nodes_in_one_batch(self):
        p = make_partitioner(
            "append", [0, 1, 2, 3], node_capacity_bytes=SMALL_CAPACITY
        )
        p.place_batch(*columns(_random_batch(1500, seed=1)))
        assert p.cursor_node == 3
        assert all(p.chunks_on(node) for node in (0, 1, 2))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_merges_on_and_ahead_of_the_cursor(self, data):
        """Known refs (adopted onto any node, so some sit ahead of the
        cursor) and in-batch duplicates grow the loads the cursor
        compares against, at their place in the batch."""
        n_nodes = data.draw(st.integers(2, 5), label="nodes")
        capacity = data.draw(st.sampled_from([4.0, 10.0, 25.0]))
        size = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 6.0]),
            st.floats(0.0, 9.0, allow_nan=False, allow_infinity=False),
        )
        pool = [ChunkRef("a", (i, 0, 0)) for i in range(16)]
        adopted = data.draw(st.dictionaries(
            st.integers(8, 15),
            st.tuples(size, st.integers(0, n_nodes - 1)),
            max_size=6,
        ), label="adopted")
        batch = [
            (pool[i], s)
            for i, s in data.draw(st.lists(
                st.tuples(st.integers(0, 15), size),
                min_size=1,
                max_size=40,
            ), label="batch")
        ]
        seq, bat = (
            make_partitioner(
                "append", list(range(n_nodes)),
                node_capacity_bytes=capacity,
            )
            for _ in range(2)
        )
        entries = [(pool[i], s, n) for i, (s, n) in adopted.items()]
        seq.adopt_batch(entries)
        bat.adopt_batch(entries)
        expected = {ref: place_scalar(seq, ref, s) for ref, s in batch}
        assert placements(bat, batch) == expected
        assert bat.assignment() == seq.assignment()
        assert bat.cursor_node == seq.cursor_node
        for ref in seq.assignment():
            assert bat.size_of(ref) == seq.size_of(ref)
        for node, load in seq.node_loads().items():
            assert bat.load_of(node) == pytest.approx(load, rel=1e-12)


GRID_SCHEMES = (
    "hilbert_curve", "kd_tree", "uniform_range", "incremental_quadtree"
)


class TestKeyArity:
    @pytest.mark.parametrize("path", ["place", "batch"])
    @pytest.mark.parametrize("key", [(1, 2), (1, 2, 3, 4)],
                             ids=["short", "long"])
    @pytest.mark.parametrize("name", GRID_SCHEMES)
    def test_wrong_arity_is_a_chunk_error(self, name, key, path):
        p = make_partitioner(name, [0, 1], grid=GRID)
        bad = ChunkRef("a", key)
        with pytest.raises(ChunkError) as info:
            if path == "place":
                place_scalar(p, bad, 1.0)
            else:  # ragged beside a good key
                p.place_batch([ChunkRef("a", (1, 2, 3)), bad], [1.0, 1.0])
        assert str(bad) in str(info.value)
        assert "3-d" in str(info.value)
        assert p.chunk_count == 0


class TestRunningTotalAndRemove:
    def _ledger_total(self, p):
        return sum(p.size_of(r) for r in p.assignment())

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_total_tracks_ledger(self, name):
        items = _random_batch(400, seed=9)
        p = make_partitioner(
            name, [0, 1, 2], grid=GRID, node_capacity_bytes=1e12
        )
        p.place_batch(*columns(items))
        assert p.total_bytes == pytest.approx(self._ledger_total(p))
        for ref in list(p.assignment())[10:20]:
            removed_from = p.remove(ref)
            assert removed_from in p.nodes
        assert p.total_bytes == pytest.approx(self._ledger_total(p))
        # loads stay consistent with sizes after removals
        loads = {n: 0.0 for n in p.nodes}
        for ref, node in p.assignment().items():
            loads[node] += p.size_of(ref)
        for node, load in p.node_loads().items():
            assert load == pytest.approx(loads[node])

    def test_remove_unknown_raises(self):
        p = make_partitioner(
            "round_robin", [0, 1], grid=GRID, node_capacity_bytes=1e12
        )
        with pytest.raises(PartitioningError):
            p.remove(ChunkRef("a", (0, 0, 0)))

    def test_extendible_bucket_bytes_track_ledger(self):
        """Bucket bytes are the member ledger sizes through merges and
        removes (scale-out picks the heaviest bucket by them)."""
        p = make_partitioner(
            "extendible_hash", [0, 1], grid=GRID,
            node_capacity_bytes=1e12,
        )
        ref = ChunkRef("a", (1, 2, 3))
        place_scalar(p, ref, 100.0)
        place_scalar(p, ref, 50.0)    # merge via the sequential spec
        p.place_batch([ref], [25.0])  # merge via batch path
        weight = p.bucket_bytes()
        for b in p.buckets():
            assert weight[b.bucket_id] == sum(
                p.size_of(m) for m in p.assignment() if p.bucket_for(m) is b
            )
        assert sum(weight.values()) == 175.0
        p.remove(ref)
        assert set(p.bucket_bytes().values()) == {0.0}
        assert not p.assignment()

    def test_removed_chunk_can_be_replaced(self):
        for name in ALL_PARTITIONERS:
            p = make_partitioner(
                name, [0, 1], grid=GRID, node_capacity_bytes=1e12
            )
            ref = ChunkRef("a", (1, 2, 3))
            p.place_batch([ref], [10.0])
            p.remove(ref)
            assert p.chunk_count == 0
            (node,) = p.table.owners(p.place_batch([ref], [4.0])).tolist()
            assert node in p.nodes
            assert p.size_of(ref) == 4.0
            assert p.total_bytes == pytest.approx(4.0)


class TestChunkCellsParity:
    """chunk_cells (packed-key sort) ≡ chunk_cells_scalar (dict of masks)."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_scalar(self, data):
        from repro.arrays import parse_schema
        from repro.arrays.array import chunk_cells
        from tests.oracles import chunk_cells_scalar

        schema = parse_schema(
            "P<v:double, w:int32>[t=0:*,7, x=0:99,5, y=0:99,5]"
        )
        n = data.draw(st.integers(0, 120))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        coords = np.stack(
            [
                rng.integers(0, 500, n),
                rng.integers(0, 100, n),
                rng.integers(0, 100, n),
            ],
            axis=1,
        )
        attrs = {
            "v": rng.random(n),
            "w": rng.integers(0, 9, n).astype(np.int32),
        }
        inflate = data.draw(st.sampled_from([1.0, 3.5]))
        batch = chunk_cells(schema, coords, attrs, inflate=inflate)
        scalar = chunk_cells_scalar(schema, coords, attrs, inflate=inflate)
        assert [c.key for c in batch] == [c.key for c in scalar]
        for cb, cs in zip(batch, scalar):
            assert np.array_equal(cb.coords, cs.coords)
            assert cb.size_bytes == cs.size_bytes  # bit-identical
            assert cb.attr_bytes == cs.attr_bytes
            for name in schema.attribute_names:
                assert np.array_equal(cb.values(name), cs.values(name))

    def test_cells_keep_batch_order_within_chunk(self):
        from repro.arrays import parse_schema
        from repro.arrays.array import chunk_cells
        from tests.oracles import chunk_cells_scalar

        schema = parse_schema("Q<v:double>[x=0:9,5]")
        coords = np.array([[1], [7], [0], [8], [3]])
        attrs = {"v": np.array([10.0, 20.0, 30.0, 40.0, 50.0])}
        for fn in (chunk_cells, chunk_cells_scalar):
            chunks = fn(schema, coords, attrs)
            assert [c.key for c in chunks] == [(0,), (1,)]
            assert chunks[0].values("v").tolist() == [10.0, 30.0, 50.0]
            assert chunks[1].values("v").tolist() == [20.0, 40.0]

    def test_out_of_bounds_rejected_by_both(self):
        from repro.arrays import parse_schema
        from repro.arrays.array import chunk_cells
        from tests.oracles import chunk_cells_scalar

        schema = parse_schema("Q<v:double>[x=0:9,5]")
        coords = np.array([[11]])
        attrs = {"v": np.array([1.0])}
        for fn in (chunk_cells, chunk_cells_scalar):
            with pytest.raises(ChunkError):
                fn(schema, coords, attrs)

    def test_unpackable_extent_falls_back_to_lexsort(self):
        from repro.arrays import parse_schema
        from repro.arrays.array import chunk_cells
        from tests.oracles import chunk_cells_scalar

        # Key spans of ~2^31 per dimension overflow the packed int64
        # space in 3-d; the batch path must fall back, not wrap.
        schema = parse_schema("R<v:double>[t=0:*,1, x=0:*,1, y=0:*,1]")
        big = 2**31
        coords = np.array(
            [[0, 0, 0], [big, big, big], [0, big, 0], [big, 0, 0],
             [0, 0, 0]],
            dtype=np.int64,
        )
        attrs = {"v": np.arange(5, dtype=np.float64)}
        batch = chunk_cells(schema, coords, attrs)
        scalar = chunk_cells_scalar(schema, coords, attrs)
        assert [c.key for c in batch] == [c.key for c in scalar]
        for cb, cs in zip(batch, scalar):
            assert np.array_equal(cb.coords, cs.coords)
            assert cb.size_bytes == cs.size_bytes

    def test_int64_extreme_span_does_not_wrap(self):
        from repro.arrays import parse_schema
        from repro.arrays.array import chunk_cells
        from tests.oracles import chunk_cells_scalar

        # Regression: a single-dimension span of ~2^63 wrapped the
        # numpy int64 span product before the overflow guard ran,
        # producing out-of-order (potentially colliding) groups.  The
        # exact-int row_packing must refuse and fall back to lexsort.
        schema = parse_schema("S<v:double>[t=0:*,1, x=0:*,1]")
        hi = 2**62  # span product (2^62+1)*2 wraps int64 if not guarded
        coords = np.array(
            [[hi, 0], [0, 1], [hi, 1], [0, 0]], dtype=np.int64
        )
        attrs = {"v": np.arange(4, dtype=np.float64)}
        batch = chunk_cells(schema, coords, attrs)
        scalar = chunk_cells_scalar(schema, coords, attrs)
        keys = [c.key for c in batch]
        assert keys == sorted(keys)  # the documented return contract
        assert keys == [c.key for c in scalar]
        for cb, cs in zip(batch, scalar):
            assert np.array_equal(cb.coords, cs.coords)
