"""Chunk payloads, chunk refs and cell chunking."""

import numpy as np
import pytest

from repro.arrays import ChunkData, ChunkRef, empty_chunk
from repro.arrays import parse_schema
from repro.arrays.array import chunk_cell_sets, chunk_cells
from repro.arrays.chunk import CellArena
from repro.errors import ChunkError


def make_chunk(schema, key=(0, 0), coords=None, size_bytes=None):
    if coords is None:
        coords = np.array([[1, 1], [2, 2]])
    n = coords.shape[0]
    attrs = {
        "i": np.arange(n, dtype=np.int32),
        "j": np.linspace(0.0, 1.0, n),
    }
    return ChunkData(schema, key, coords, attrs, size_bytes=size_bytes)


class TestChunkRef:
    def test_identity_and_ordering(self):
        a = ChunkRef("band1", (0, 1, 2))
        b = ChunkRef("band1", (0, 1, 2))
        c = ChunkRef("band2", (0, 1, 2))
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_key_normalized_to_ints(self):
        ref = ChunkRef("a", (np.int64(3), np.int64(4)))
        assert ref.key == (3, 4)
        assert type(ref.key[0]) is int


class TestChunkData:
    def test_cell_count_and_size(self, tiny_schema):
        chunk = make_chunk(tiny_schema)
        assert chunk.cell_count == 2
        assert chunk.size_bytes > 0

    def test_modeled_size_override(self, tiny_schema):
        chunk = make_chunk(tiny_schema, size_bytes=1e6)
        assert chunk.size_bytes == 1e6

    def test_vertical_shares_sum_to_total(self, tiny_schema):
        chunk = make_chunk(tiny_schema, size_bytes=1200.0)
        assert sum(chunk.attr_bytes.values()) == pytest.approx(1200.0)
        # int32 (4B) vs float64 (8B): shares proportional to width
        assert chunk.attr_bytes["j"] == pytest.approx(
            2 * chunk.attr_bytes["i"]
        )

    def test_bytes_for_subset(self, tiny_schema):
        chunk = make_chunk(tiny_schema, size_bytes=1200.0)
        assert chunk.bytes_for(["i"]) == pytest.approx(400.0)
        assert chunk.bytes_for(["i", "j"]) == pytest.approx(1200.0)
        with pytest.raises(ChunkError):
            chunk.bytes_for(["nope"])

    def test_cells_must_stay_in_chunk_box(self, tiny_schema):
        with pytest.raises(ChunkError):
            make_chunk(tiny_schema, key=(0, 0), coords=np.array([[3, 3]]))

    def test_missing_attribute_rejected(self, tiny_schema):
        with pytest.raises(ChunkError):
            ChunkData(
                tiny_schema, (0, 0), np.array([[1, 1]]),
                {"i": np.array([1], dtype=np.int32)},
            )

    def test_unknown_attribute_rejected(self, tiny_schema):
        with pytest.raises(ChunkError):
            ChunkData(
                tiny_schema, (0, 0), np.array([[1, 1]]),
                {
                    "i": np.array([1], dtype=np.int32),
                    "j": np.array([1.0]),
                    "k": np.array([2.0]),
                },
            )

    def test_length_mismatch_rejected(self, tiny_schema):
        with pytest.raises(ChunkError):
            ChunkData(
                tiny_schema, (0, 0), np.array([[1, 1], [2, 2]]),
                {
                    "i": np.array([1], dtype=np.int32),
                    "j": np.array([1.0, 2.0]),
                },
            )

    def test_merge(self, tiny_schema):
        a = make_chunk(tiny_schema, coords=np.array([[1, 1]]),
                       size_bytes=100.0)
        b = make_chunk(tiny_schema, coords=np.array([[2, 2]]),
                       size_bytes=50.0)
        merged = a.merged_with(b)
        assert merged.cell_count == 2
        assert merged.size_bytes == pytest.approx(150.0)

    def test_merge_wrong_key_rejected(self, tiny_schema):
        a = make_chunk(tiny_schema, key=(0, 0),
                       coords=np.array([[1, 1]]))
        b = make_chunk(tiny_schema, key=(1, 1),
                       coords=np.array([[3, 3]]))
        with pytest.raises(ChunkError):
            a.merged_with(b)

    def test_dim_values(self, tiny_schema):
        chunk = make_chunk(tiny_schema)
        assert list(chunk.dim_values("x")) == [1, 2]
        assert list(chunk.dim_values("y")) == [1, 2]

    def test_empty_chunk(self, tiny_schema):
        chunk = empty_chunk(tiny_schema, (0, 0))
        assert chunk.cell_count == 0
        assert chunk.size_bytes == 0


class TestChunkCells:
    def test_groups_by_chunk_key(self, tiny_schema):
        coords = np.array([[1, 1], [4, 4], [2, 2], [3, 3]])
        attrs = {
            "i": np.arange(4, dtype=np.int32),
            "j": np.arange(4, dtype=np.float64),
        }
        chunks = chunk_cells(tiny_schema, coords, attrs)
        keys = [c.key for c in chunks]
        assert keys == [(0, 0), (1, 1)]
        assert sum(c.cell_count for c in chunks) == 4

    def test_values_follow_their_cells(self, tiny_schema):
        coords = np.array([[4, 4], [1, 1]])
        attrs = {
            "i": np.array([40, 10], dtype=np.int32),
            "j": np.array([4.0, 1.0]),
        }
        chunks = chunk_cells(tiny_schema, coords, attrs)
        by_key = {c.key: c for c in chunks}
        assert by_key[(0, 0)].values("i")[0] == 10
        assert by_key[(1, 1)].values("i")[0] == 40

    def test_inflate_scales_modeled_bytes(self, tiny_schema):
        coords = np.array([[1, 1]])
        attrs = {
            "i": np.array([1], dtype=np.int32),
            "j": np.array([1.0]),
        }
        plain = chunk_cells(tiny_schema, coords, attrs)[0]
        inflated = chunk_cells(tiny_schema, coords, attrs, inflate=10.0)[0]
        assert inflated.size_bytes == pytest.approx(plain.size_bytes * 10)
        assert inflated.cell_count == plain.cell_count

    def test_out_of_bounds_cells_rejected(self, tiny_schema):
        with pytest.raises(ChunkError):
            chunk_cells(
                tiny_schema,
                np.array([[0, 1]]),  # x starts at 1
                {"i": np.array([1], dtype=np.int32),
                 "j": np.array([1.0])},
            )

    def test_empty_batch(self, tiny_schema):
        out = chunk_cells(
            tiny_schema,
            np.empty((0, 2), dtype=np.int64),
            {"i": np.empty(0, dtype=np.int32), "j": np.empty(0)},
        )
        assert list(out) == []


class TestChunkCellSets:
    """Several arrays over one coordinate table ≡ one ``chunk_cells``
    per array, with the sorted coordinates shared by every arena."""

    def _sets(self, tiny_schema, n=40, seed=3):
        rng = np.random.default_rng(seed)
        other = parse_schema("B<k:int64, s:string>[x=1:4,2, y=1:4,2]")
        coords = rng.integers(1, 5, size=(n, 2))
        return coords, [
            (tiny_schema, {
                "i": rng.integers(0, 9, n).astype(np.int32),
                "j": rng.random(n),
            }),
            (other, {
                "k": rng.integers(0, 9, n),
                "s": np.array([f"s{v}" for v in range(n)], dtype=object),
            }),
        ]

    def test_matches_one_chunk_cells_per_set(self, tiny_schema):
        coords, sets = self._sets(tiny_schema)
        got = chunk_cell_sets(coords, sets, inflate=2.5)
        want = [
            c for schema, attrs in sets
            for c in chunk_cells(schema, coords, attrs, inflate=2.5)
        ]
        assert [c.ref() for c in got] == [c.ref() for c in want]
        for g, w in zip(got, want):
            assert g.size_bytes == w.size_bytes
            assert g.attr_bytes == w.attr_bytes
            assert np.array_equal(g.coords, w.coords)
            for name in w.schema.attribute_names:
                assert g.values(name).tolist() == w.values(name).tolist()
        arenas = {id(c.extent[0].coords) for c in got}
        assert len(arenas) == 1

    def test_every_set_is_checked(self, tiny_schema):
        coords, sets = self._sets(tiny_schema)
        schema, attrs = sets[1]
        with pytest.raises(ChunkError):
            chunk_cell_sets(
                coords, [sets[0], (schema, {"k": attrs["k"]})]
            )
        shifted = parse_schema("C<i:int32, j:double>[x=0:4,2, y=1:4,2]")
        with pytest.raises(ChunkError):
            chunk_cell_sets(coords, [sets[0], (shifted, sets[0][1])])


class TestExtents:
    """Chunks cut from a batch are row ranges of one arena."""

    def _batch(self, schema):
        rng = np.random.default_rng(5)
        coords = rng.integers(1, 5, size=(40, 2))
        attrs = {
            "i": np.arange(40, dtype=np.int32),
            "j": rng.random(40),
        }
        return chunk_cells(schema, coords, attrs, inflate=3.0)

    def test_one_arena_adjacent_extents(self, tiny_schema):
        chunks = self._batch(tiny_schema)
        arena = chunks[0].extent[0]
        assert isinstance(arena, CellArena)
        assert set(arena.columns) == {"i", "j"}
        at = 0
        for chunk in chunks:
            got_arena, lo, hi = chunk.extent
            assert got_arena is arena
            assert lo == at and hi > lo
            at = hi
        assert at == arena.coords.shape[0] == 40

    def test_metadata_reads_never_materialize(self, tiny_schema):
        for chunk in self._batch(tiny_schema):
            _, lo, hi = chunk.extent
            assert chunk.cell_count == hi - lo
            assert chunk.size_bytes == pytest.approx(
                3.0 * (hi - lo) * (16 + 4 + 8)
            )
            assert chunk.ref() == ChunkRef("A", chunk.key)
            assert chunk.bytes_for(["i", "j"]) == pytest.approx(
                chunk.size_bytes
            )
            assert f"cells={hi - lo}" in repr(chunk)
            assert chunk.is_resident
            assert chunk._payload is None  # still no per-chunk view

    def test_payload_parts_are_the_arena_slices(self, tiny_schema):
        for chunk in self._batch(tiny_schema):
            arena, lo, hi = chunk.extent
            parts = chunk.payload_parts()
            coords, columns = parts
            assert np.array_equal(coords, arena.coords[lo:hi])
            assert np.shares_memory(coords, arena.coords)
            assert list(columns) == list(arena.columns)
            for name, column in columns.items():
                assert np.array_equal(column, arena.columns[name][lo:hi])
                assert column.dtype == arena.columns[name].dtype
                assert np.shares_memory(column, arena.columns[name])
            # idempotent: the same tuple from then on, through every
            # per-chunk accessor
            assert chunk.payload_parts() is parts
            assert chunk.coords is coords
            assert chunk.attributes is columns
            assert chunk.values("j") is columns["j"]
            assert chunk.extent == (arena, lo, hi)

    def test_extent_is_read_only(self, tiny_schema):
        chunk = self._batch(tiny_schema)[0]
        with pytest.raises(AttributeError):
            chunk.extent = None

    def test_every_other_constructor_owns_its_arrays(self, tiny_schema):
        first, second = self._batch(tiny_schema)[:2]
        twin = ChunkData(
            tiny_schema, first.key, first.coords, first.attributes
        )
        merged = first.merged_with(twin)
        spilled = ChunkData.spilled(tiny_schema, second.key, 10.0)
        for chunk in (
            make_chunk(tiny_schema), twin, merged, spilled,
            empty_chunk(tiny_schema, (0, 0)),
        ):
            assert chunk.extent is None
        assert merged.cell_count == 2 * first.cell_count
        assert not spilled.is_resident
