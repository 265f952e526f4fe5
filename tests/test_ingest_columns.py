"""Ingest by columns: chunk batches, extent columns, run-sliced gathers.

* :class:`ChunkBatch` — ``chunk_cells`` cuts its columns from arrays it
  already computes; :meth:`ChunkBatch.of` (the one per-chunk walk) must
  build the same columns from the chunks alone.
* Ingesting a batch and the same chunks as a plain list leaves
  bit-identical state on every scheme — table, catalog including its
  extent columns, stores, loads and delta logs — with in-batch
  duplicates and cross-batch merges.
* :func:`concat_payload` over whole-array, region, delta and empty
  reads that mix several arenas with merged chunks equals the
  per-chunk spec, and ``Read.cells`` equals each handle's count.
* An array's slice of the chunk table's key index, filled over
  batches, is in the void-row order, also when the keys' extent
  defeats int64 packing.
* ``remove_batch`` resets and ``compact`` remaps the extent columns.
* A batch whose schema differs from the published one, and a
  non-finite or negative size, are rejected before anything changes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkBatch, ChunkData, ChunkRef, parse_schema
from repro.arrays.array import chunk_cell_sets, chunk_cells
from repro.arrays.coords import pack_rows_void, row_packing
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.catalog import concat_payload
from repro.core.ledger import NO_EXTENT, ArrayChunkLedger
from repro.errors import ChunkError, ClusterError, PartitioningError
from tests.conftest import make_cluster
from tests.helpers import commit_rows
from tests.oracles import concat_payload_per_chunk, place_scalar

A = parse_schema("A<i:int32, j:double>[x=1:40,4, y=1:40,4]")
B = parse_schema("B<v:double>[x=1:40,4, y=1:40,4]")
GRID = Box((0, 0), (10, 10))
ATTRS = {"A": ["i", "j"], "B": ["v"]}


def _cells(seed, n, lo=1, hi=41):
    rng = np.random.default_rng(seed)
    coords = rng.integers(lo, hi, size=(n, 2))
    return coords, rng


def _batches():
    """Four batches: two arenas of one array with the same keys (an
    in-batch duplicate per key), a batch over overlapping keys (merges
    into stored chunks), a batch over fresh keys, and a second array."""
    coords, rng = _cells(1, 50, hi=21)
    first = chunk_cell_sets(coords, [
        (A, {"i": rng.integers(0, 9, 50).astype(np.int32),
             "j": rng.random(50)}),
        (A, {"i": rng.integers(0, 9, 50).astype(np.int32),
             "j": rng.random(50)}),
    ], inflate=3.0)
    coords, rng = _cells(2, 40, hi=29)
    second = chunk_cells(A, coords, {
        "i": rng.integers(0, 9, 40).astype(np.int32), "j": rng.random(40),
    }, inflate=2.0)
    coords, rng = _cells(3, 30, lo=29)
    third = chunk_cells(A, coords, {
        "i": rng.integers(0, 9, 30).astype(np.int32), "j": rng.random(30),
    })
    coords, rng = _cells(4, 30)
    fourth = chunk_cells(B, coords, {"v": rng.random(30)})
    return [first, second, third, fourth]


def _label(handle):
    """A handle, comparable across clusters that share batch handles."""
    if handle is None:
        return None
    if handle.extent is not None:
        return (handle.ref(), handle.size_bytes.hex(), id(handle))
    parts = [handle.coords.tobytes()]
    parts += [handle.values(a).tobytes() for a in ATTRS[handle.schema.name]]
    return (handle.ref(), handle.size_bytes.hex(), tuple(parts))


def _state(cluster):
    table, catalog = cluster.catalog.table, cluster.catalog
    hwm = table._hwm
    logs = {
        array: (
            log.epochs[:log.count].tolist(), log.signs[:log.count].tolist(),
            log.refs[:log.count].tolist(),
            [_label(h) for h in log.chunks[:log.count]],
            [s.hex() for s in log.sizes[:log.count].tolist()],
            log.nodes[:log.count].tolist(), log.extents[:log.count].tolist(),
        )
        for array, log in sorted(catalog._deltas.items())
    }
    stores = {
        node: (
            [(ref, _label(n.store.get(ref))) for ref in n.store.refs()],
            n.store.used_bytes.hex(),
        )
        for node, n in sorted(cluster.nodes.items())
    }
    return (
        table._refs[:hwm].tolist(), [s.hex() for s in table._size[:hwm]],
        table._node[:hwm].tolist(),
        None if table._key is None else table._key[:hwm].tolist(),
        {n: v.hex() for n, v in table.node_loads().items()},
        table.total_bytes.hex(),
        [_label(h) for h in table._chunks[:hwm]],
        table._extent[:hwm].tolist(),
        {a: (catalog._published(a).tolist(),
             table.keys_of(catalog._published(a)).tolist(),
             v.epoch, v.payload_epoch)
         for a, v in sorted(catalog._views.items())},
        logs, stores,
    )


class TestChunkBatch:
    def test_of_rebuilds_the_columns_chunk_cells_cuts(self):
        for batch in _batches():
            walked = ChunkBatch.of(list(batch))
            assert walked.chunks == batch.chunks
            assert walked.arrays == batch.arrays
            assert walked.schemas == batch.schemas
            for name in ("codes", "keys", "arena_no", "lo", "hi"):
                got, want = getattr(walked, name), getattr(batch, name)
                assert got.dtype == want.dtype == np.int64, name
                assert got.tolist() == want.tolist(), name
            assert walked.sizes.tobytes() == batch.sizes.tobytes()
            assert batch.sizes.tolist() == [c.size_bytes for c in batch]

    def test_a_read_only_sequence_of_its_chunks(self):
        batch = _batches()[1]
        assert ChunkBatch.of(batch) is batch
        assert len(batch) == len(batch.chunks) and list(batch) == batch.chunks
        assert batch[0] is batch.chunks[0] and batch[-2:] == batch.chunks[-2:]

    def test_two_schemas_of_one_array_in_one_batch_are_refused(self):
        other = parse_schema("A<k:int32>[x=1:40,4, y=1:40,4]")
        chunk = chunk_cells(other, np.array([[1, 1]]),
                            {"k": np.array([1], dtype=np.int32)})[0]
        with pytest.raises(ChunkError, match="two schemas"):
            ChunkBatch.of([_batches()[1][0], chunk])


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_batch_and_list_ingest_leave_identical_state(name):
    batches = _batches()
    refs = [c.ref() for c in batches[0]]
    assert len(set(refs)) < len(refs)  # in-batch duplicates
    clusters = [make_cluster(name, GRID, nodes=3) for _ in range(2)]
    for batch in batches:
        clusters[0].ingest(batch)
        clusters[1].ingest(list(batch))
    for cluster in clusters:
        cluster.check_consistency()
    merged = clusters[0].catalog.table._extent[:, 0] < 0
    assert merged[: clusters[0].catalog.table._hwm].any()
    assert _state(clusters[0]) == _state(clusters[1])


def _assert_same_table(got, want):
    assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert list(got[1]) == list(want[1])
    for attr, column in want[1].items():
        assert got[1][attr].dtype == column.dtype, attr
        assert np.array_equal(got[1][attr], column), attr


class TestRunGather:
    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = make_cluster("round_robin", GRID, nodes=3)
        held = cluster.catalog.declare(["A"], [0])  # the delta read from 0
        for batch in _batches():
            cluster.ingest(batch)
        yield cluster
        del held

    def _reads(self, cluster):
        session = cluster.session()
        return {
            "whole": session.chunks_of_array("A"),
            "region": session.chunks_in_region("A", Box((5, 1), (30, 22))),
            "delta": session.deltas_since("A", 0),
            "empty": session.chunks_of_array("A").take(np.empty(0, int)),
            "unknown": session.chunks_of_array("Z"),
        }

    def test_every_read_equals_the_per_chunk_walk(self, cluster):
        reads = self._reads(cluster)
        whole, delta = reads["whole"], reads["delta"]
        assert len(set(whole.arena_no.tolist())) > 2  # arenas mix...
        assert (whole.arena_no < 0).any()  # ...with merged chunks
        assert (delta.signs < 0).any()  # a merge retired a handle
        assert not len(reads["empty"]) and not len(reads["unknown"])
        for label, read in reads.items():
            for attrs in (["i", "j"], ["j"], []):
                _assert_same_table(
                    concat_payload(read, attrs, ndim=2),
                    concat_payload_per_chunk(read, attrs, ndim=2),
                )
            cells = [c.cell_count for c in read.chunks.tolist()]
            assert read.cells.tolist() == cells, label

    @settings(max_examples=40, deadline=None)
    @given(label=st.sampled_from(["whole", "region", "delta"]),
           picks=st.lists(st.integers(0, 10**6), max_size=40))
    def test_position_slices_gather_their_own_rows(
        self, cluster, label, picks
    ):
        read = self._reads(cluster)[label]
        pos = np.array([p % len(read) for p in picks], dtype=np.int64)
        part = read.take(pos)
        assert part.chunks.tolist() == read.chunks[pos].tolist()
        _assert_same_table(
            concat_payload(part, ["i"], ndim=2),
            concat_payload_per_chunk(part, ["i"], ndim=2),
        )
        assert part.cells.tolist() == read.cells[pos].tolist()

    def test_unknown_attribute_keeps_the_chunk_error(self, cluster):
        for read in self._reads(cluster).values():
            if not len(read):
                continue
            messages = []
            for gather in (concat_payload, concat_payload_per_chunk):
                with pytest.raises(ChunkError) as err:
                    gather(read, ["i", "nope"], ndim=2)
                messages.append(str(err.value))
            assert messages == ["array A has no attribute 'nope'"] * 2


class TestViewOrder:
    @settings(max_examples=40, deadline=None)
    @given(far=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_insert_order_is_the_void_order(self, far, seed):
        rng = np.random.default_rng(seed)
        rows = np.unique(rng.integers(-6, 6, size=(60, 2)), axis=0)
        if far:  # the joint extent defeats int64 packing
            rows = rows * (2**59)
            assert row_packing(rows) is None
        rows = rows[rng.permutation(len(rows))]
        table = ArrayChunkLedger([0])
        for part in np.array_split(np.arange(len(rows)), 3):
            commit_rows(table, "A", rows[part])
        order = np.argsort(pack_rows_void(rows), kind="stable")
        assert table.keys_of(table.array_ids("A")).tolist() == (
            rows[order].tolist()
        )


def _extent(handle):
    ext = handle.extent
    return list(NO_EXTENT) if ext is None else [ext[0].number, ext[1], ext[2]]


def test_remove_resets_and_compact_remaps_the_extent_columns():
    cluster = make_cluster("round_robin", GRID, nodes=3)
    cluster.ledger_compact_ratio = None  # compact by hand below
    for batch in _batches():
        cluster.ingest(batch)
    catalog, table = cluster.catalog, cluster.catalog.table
    refs = sorted(table.assignment(), key=lambda r: (r.array, r.key))
    gone = refs[::3]
    gone_ids = table.ids_of(gone)
    retired = table._extent[gone_ids].tolist()
    assert any(e != list(NO_EXTENT) for e in retired)
    cluster.remove_chunks(gone)
    assert table._extent[gone_ids].tolist() == [list(NO_EXTENT)] * len(gone)
    log = catalog._deltas["A"]
    tail = log.signs[:log.count] < 0
    logged = dict(zip(log.refs[:log.count][tail].tolist(),
                      log.extents[:log.count][tail].tolist()))
    assert [logged[r] for r in gone if r.array == "A"] == [
        e for r, e in zip(gone, retired) if r.array == "A"
    ]
    assert cluster.partitioner.compact_ledger(0.0)
    assert len(table._extent) == table.column_capacity < len(refs) + 64
    assert table._extent.tolist() == [
        list(NO_EXTENT) if h is None else _extent(h)
        for h in table._chunks.tolist()
    ]
    cluster.check_consistency()


class TestForeignSchema:
    """A batch array's schema must be the one published for it."""

    OWN = parse_schema("A<i:int32, j:double>[x=1:4,2, y=1:4,2]")
    FOREIGN = parse_schema("A<k:int32>[x=1:4,2, y=1:4,2]")

    def _cluster(self):
        cluster = make_cluster("round_robin", Box((0, 0), (2, 2)))
        cluster.ingest(chunk_cells(self.OWN, np.array([[1, 1], [3, 3]]), {
            "i": np.array([1, 2], dtype=np.int32), "j": np.array([.5, .25]),
        }))
        return cluster

    def _foreign(self, cells):
        return chunk_cells(self.FOREIGN, np.array(cells), {
            "k": np.arange(len(cells), dtype=np.int32),
        })

    @pytest.mark.parametrize("cells", [[[1, 1]], [[3, 1]]])
    def test_rejected_before_the_table_changes(self, cells):
        cluster = self._cluster()
        before = (cluster.total_bytes, cluster.partitioner.total_bytes,
                  cluster.catalog.chunk_count, cluster.catalog.epoch)
        with pytest.raises(ClusterError, match="array 'A'"):
            cluster.ingest(self._foreign(cells))
        assert (cluster.total_bytes, cluster.partitioner.total_bytes,
                cluster.catalog.chunk_count, cluster.catalog.epoch) == before
        cluster.check_consistency()
        coords, values = cluster.session().array_payload("A", ["i"], 2)
        assert values["i"].tolist() == [1, 2]

    def test_an_equal_declaration_is_accepted(self):
        cluster = self._cluster()
        twin = parse_schema("A<i:int32, j:double>[x=1:4,2, y=1:4,2]")
        cluster.ingest(chunk_cells(twin, np.array([[3, 1]]), {
            "i": np.array([3], dtype=np.int32), "j": np.array([1.0]),
        }))
        cluster.check_consistency()
        assert cluster.catalog.chunk_count == 3


class TestNonFiniteSizes:
    SCHEMA = parse_schema("A<i:int32>[x=1:4,2, y=1:4,2]")

    @pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
    def test_chunk_data_names_size_bytes(self, size):
        with pytest.raises(ChunkError, match="size_bytes"):
            ChunkData(self.SCHEMA, (0, 0), np.array([[1, 1]]),
                      {"i": np.array([1], dtype=np.int32)}, size_bytes=size)

    @pytest.mark.parametrize("inflate", [math.nan, math.inf, -1.0])
    def test_chunk_cells_names_inflate(self, inflate):
        with pytest.raises(ChunkError, match="inflate"):
            chunk_cells(self.SCHEMA, np.array([[1, 1]]),
                        {"i": np.array([1], dtype=np.int32)}, inflate=inflate)

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    @pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
    def test_placement_names_the_first_offending_ref(self, name, size):
        p = make_partitioner(name, [0, 1], grid=GRID,
                             node_capacity_bytes=1e12)
        good, bad = ChunkRef("A", (1, 1)), ChunkRef("A", (2, 2))
        with pytest.raises(PartitioningError, match="chunk size"):
            place_scalar(p, bad, size)
        with pytest.raises(PartitioningError, match=str(bad)):
            p.place_batch([good, bad, bad], [1.0, size, size])
        assert p.chunk_count == 0 and p.total_bytes == 0.0

    def test_placement_refuses_ragged_columns(self):
        p = make_partitioner("round_robin", [0, 1])
        with pytest.raises(PartitioningError, match="2 refs"):
            p.place_batch([ChunkRef("A", (1, 1)), ChunkRef("A", (2, 2))], [1.0])
        assert p.chunk_count == 0
