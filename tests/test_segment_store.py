"""Out-of-core tiered storage: segment files, the spill LRU, faults.

Covers the ISSUE-8 storage-tier contract:

* segment round-trips — every dtype the workloads use (float, int32,
  object/string) survives encode → commit → mmap read byte-identically,
  and every framing violation (truncation, bit flips, swapped files,
  stale manifests) raises a typed ``SegmentCorruptError``;
* LRU semantics — resident bytes never exceed the budget without pins,
  faults reload identical bytes, retired handles (merge sources,
  evicted chunks) stay readable forever;
* fault injection — ``FaultyIO`` (``tests/conftest.py``) fails the Nth
  segment read/write; batch puts and evictions roll back to the exact
  pre-call state and the tier's accounting audit stays green;
* property test — hypothesis interleavings of ingest / expiry /
  scale-out across **all** registered partitioning schemes under a tiny
  memory budget assert that a tiered cluster answers every payload read
  byte-identically to its ``REPRO_STORAGE=memory`` twin.
"""

import glob
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import (
    Box,
    ChunkData,
    ChunkStore,
    SegmentStore,
    parse_schema,
)
from repro.cluster import (
    CostParameters,
    ElasticCluster,
    GB,
    TieredStorage,
)
from repro.arrays.array import chunk_cells
from repro.config import parity
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.catalog import concat_payload
from repro.errors import SegmentCorruptError, StorageError
from tests.oracles import concat_payload_per_chunk

SCHEMA = parse_schema("S<v:double, n:int32, tag:string>[t=0:*,2, x=0:7,4]")
GRID = Box((0, 0), (64, 2))


def _chunk(key, seed=0, cells=3, size=None):
    """A deterministic chunk: same (key, seed) → identical bytes."""
    rng = np.random.default_rng((hash(tuple(key)) % 2**31) * 997 + seed)
    box = SCHEMA.chunk_box(tuple(key))
    coords = np.stack(
        [
            rng.integers(lo, hi, cells)
            for lo, hi in zip(box.lo, box.hi)
        ],
        axis=1,
    ).astype(np.int64)
    tags = np.empty(cells, dtype=object)
    tags[:] = [f"ship-{int(i)}" for i in rng.integers(0, 50, cells)]
    attrs = {
        "v": rng.normal(size=cells),
        "n": rng.integers(0, 100, cells).astype(np.int32),
        "tag": tags,
    }
    return ChunkData(SCHEMA, tuple(key), coords, attrs, size_bytes=size)


def _payload_digest(chunk):
    coords, cols = chunk.payload_parts()
    return (
        coords.tobytes(),
        cols["v"].tobytes(),
        cols["n"].tobytes(),
        tuple(cols["tag"].tolist()),
    )


def _tiered_store(root, budget=None, io=None):
    return ChunkStore(
        memory_budget=budget,
        segments=SegmentStore.create(root, io=io),
    )


def _seg_path(store, ref):
    segments = store.tier.segments
    return os.path.join(segments.root, segments._entries[ref].file)


class TestSegmentRoundTrip:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        store = SegmentStore.create(str(tmp_path))
        chunk = _chunk((3, 1), cells=5, size=123.0)
        ref = chunk.ref()
        fname = store.write_staged(chunk)
        store.commit({ref: (chunk, fname)})
        coords, cols = store.read(ref)
        twin = ChunkData(SCHEMA, chunk.key, coords, cols)
        assert _payload_digest(twin) == _payload_digest(chunk)
        assert ref in store and len(store) == 1
        (entry,) = store.entries()
        assert entry[0] == ref and entry[1] == 123.0
        assert store.schema_of("S").declaration() == SCHEMA.declaration()

    def test_create_refuses_live_directory(self, tmp_path):
        SegmentStore.create(str(tmp_path))
        with pytest.raises(StorageError, match="already holds a manifest"):
            SegmentStore.create(str(tmp_path))

    def test_open_without_manifest_is_typed(self, tmp_path):
        with pytest.raises(SegmentCorruptError, match="nothing to recover"):
            SegmentStore.open(str(tmp_path / "nowhere"))

    def test_truncated_segment_fails_loudly(self, tmp_path):
        store = SegmentStore.create(str(tmp_path))
        chunk = _chunk((0, 0))
        store.commit({chunk.ref(): (chunk, store.write_staged(chunk))})
        path = os.path.join(
            store.root, store._entries[chunk.ref()].file
        )
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(SegmentCorruptError, match="torn write"):
            store.read(chunk.ref())

    def test_bit_flip_fails_checksum(self, tmp_path):
        store = SegmentStore.create(str(tmp_path))
        chunk = _chunk((0, 0))
        store.commit({chunk.ref(): (chunk, store.write_staged(chunk))})
        path = os.path.join(
            store.root, store._entries[chunk.ref()].file
        )
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[10] ^= 0xFF  # inside the coords column
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(SegmentCorruptError, match="checksum"):
            store.read(chunk.ref())

    def test_swapped_files_are_detected(self, tmp_path):
        store = SegmentStore.create(str(tmp_path))
        a, b = _chunk((0, 0)), _chunk((1, 1))
        store.commit({
            a.ref(): (a, store.write_staged(a)),
            b.ref(): (b, store.write_staged(b)),
        })
        pa = os.path.join(store.root, store._entries[a.ref()].file)
        pb = os.path.join(store.root, store._entries[b.ref()].file)
        tmp = pa + ".swap"
        os.replace(pa, tmp)
        os.replace(pb, pa)
        os.replace(tmp, pb)
        with pytest.raises(SegmentCorruptError, match="manifest says"):
            store.read(a.ref())

    def test_missing_file_behind_manifest_is_typed(self, tmp_path):
        store = SegmentStore.create(str(tmp_path))
        chunk = _chunk((0, 0))
        store.commit({chunk.ref(): (chunk, store.write_staged(chunk))})
        os.remove(
            os.path.join(store.root, store._entries[chunk.ref()].file)
        )
        with pytest.raises(SegmentCorruptError, match="missing"):
            store.read(chunk.ref())


class TestSpillLRU:
    def test_budget_holds_and_bytes_round_trip(self, tmp_path):
        store = _tiered_store(str(tmp_path), budget=25.0)
        chunks = [_chunk((t, t % 2), size=10.0) for t in range(8)]
        oracle = {
            c.ref(): _payload_digest(_chunk((t, t % 2), size=10.0))
            for t, c in enumerate(chunks)
        }
        store.put_many(chunks)
        tier = store.tier
        tier.check()
        assert tier.resident_bytes <= 25.0
        assert len(tier.segments) == 8  # write-through: all durable
        # every chunk — hot or cold — reads back identical bytes
        for ref in store.refs():
            assert _payload_digest(store.get(ref)) == oracle[ref]
            tier.check()
        assert tier.fault_count > 0

    def test_zero_budget_spills_everything(self, tmp_path):
        store = _tiered_store(str(tmp_path), budget=0.0)
        store.put_many([_chunk((t, 0), size=5.0) for t in range(4)])
        assert store.tier.resident_count == 0
        for chunk in store.chunks():
            assert not chunk.is_resident
            _payload_digest(chunk)  # faults in, then re-evicts
        store.tier.check()
        assert store.tier.resident_count == 0

    def test_pins_block_eviction_then_release(self, tmp_path):
        store = _tiered_store(str(tmp_path), budget=12.0)
        chunks = [_chunk((t, 0), size=10.0) for t in range(3)]
        store.put_many(chunks)
        hot = store.get(chunks[0].ref())
        with store.pinned([hot.ref()]):
            _payload_digest(hot)
            assert hot.is_resident
            # faulting the others may overshoot, but never evicts the pin
            for other in chunks[1:]:
                _payload_digest(store.get(other.ref()))
                assert hot.is_resident
        store.tier.check()  # budget restored once unpinned

    def test_evicted_handles_stay_readable(self, tmp_path):
        store = _tiered_store(str(tmp_path), budget=0.0)
        chunks = [_chunk((t, 1), size=5.0) for t in range(3)]
        store.put_many(chunks)
        before = [_payload_digest(_chunk((t, 1), size=5.0))
                  for t in range(3)]
        evicted = store.evict_many([c.ref() for c in chunks])
        assert len(store) == 0 and len(store.tier.segments) == 0
        # materialize-on-exit: the returned handles own their payloads
        for chunk, digest in zip(evicted, before):
            assert chunk.is_resident
            assert _payload_digest(chunk) == digest
        store.tier.check()

    def test_merge_retires_old_handle_readable(self, tmp_path):
        store = _tiered_store(str(tmp_path), budget=0.0)
        first = store.put(_chunk((2, 0), seed=1, size=5.0))
        digest = _payload_digest(_chunk((2, 0), seed=1, size=5.0))
        merged = store.put(_chunk((2, 0), seed=2, size=5.0))
        assert merged is not first
        assert merged.size_bytes == 10.0
        # the delta-log handle: detached from the tier, still readable
        assert first.is_resident and first._tier is None
        assert _payload_digest(first) == digest
        assert merged.cell_count == 6
        store.tier.check()

    def test_drain_io_windows(self, tmp_path):
        store = _tiered_store(str(tmp_path), budget=0.0)
        store.put_many([_chunk((t, 0), size=7.0) for t in range(2)])
        read0, written0 = store.drain_io()
        assert written0 == 14.0 and read0 == 0.0
        for chunk in store.chunks():
            chunk.payload_parts()
        read1, written1 = store.drain_io()
        assert read1 == 14.0 and written1 == 0.0
        assert store.drain_io() == (0.0, 0.0)

    def test_memory_budget_requires_segments(self):
        with pytest.raises(StorageError, match="segment store"):
            ChunkStore(memory_budget=10.0)


class TestExtentsGiveWayToTheTier:
    """A tiered handle is own-arrays or spilled, never an arena extent."""

    def _batch(self, cells=40):
        rng = np.random.default_rng(3)
        coords = np.stack(
            [rng.integers(0, 16, cells), rng.integers(0, 8, cells)], axis=1
        )
        tags = np.empty(cells, dtype=object)
        tags[:] = [f"ship-{i}" for i in range(cells)]
        attrs = {
            "v": rng.normal(size=cells),
            "n": np.arange(cells, dtype=np.int32),
            "tag": tags,
        }
        return chunk_cells(SCHEMA, coords, attrs)

    def test_register_drops_the_extent(self, tmp_path):
        chunks = self._batch()
        want = concat_payload_per_chunk(self._batch(), ["v", "tag"], 2)
        assert all(c.extent is not None for c in chunks)
        budget = 3 * chunks[0].size_bytes
        store = _tiered_store(str(tmp_path), budget=budget)
        assert store.put_many(chunks) == chunks
        tier = store.tier
        tier.check()
        for chunk in chunks:
            assert chunk.extent is None and chunk._tier is tier
            # residency is the tier's call now, not the arena's
            assert chunk.is_resident == (chunk.ref() in tier._resident)
        assert 0 < tier.resident_count < len(chunks)
        assert tier.resident_bytes <= budget
        got = concat_payload(chunks, ["v", "tag"], 2)
        assert np.array_equal(got[0], want[0])
        assert got[1]["v"].tobytes() == want[1]["v"].tobytes()
        assert got[1]["tag"].tolist() == want[1]["tag"].tolist()
        tier.check()

    def test_gather_over_evicted_chunks_faults_once_each(self, tmp_path):
        chunks = self._batch()
        store = _tiered_store(str(tmp_path), budget=0.0)
        store.put_many(chunks)
        tier = store.tier
        assert tier.resident_count == 0
        assert not any(c.is_resident for c in chunks)
        concat_payload(chunks, ["v", "n", "tag"], 2)
        # one payload_parts() per cold handle, whatever the column count
        assert tier.fault_count == len(chunks)
        tier.check()


class TestFaultInjection:
    """Injected I/O failures must never leave store or tier inconsistent."""

    def _assert_pristine(self, store, n_chunks, n_segments):
        store.tier.check()
        assert len(store) == n_chunks
        assert len(store.tier.segments) == n_segments
        leftovers = glob.glob(
            os.path.join(store.tier.segments.root, "*.seg")
        )
        assert len(leftovers) == n_segments

    def test_failed_segment_write_rolls_back(self, tmp_path, faulty_io):
        # write #1 is create()'s manifest flush; #2/#3 the two segments
        io = faulty_io(fail_write_at=3)
        store = _tiered_store(str(tmp_path), budget=50.0, io=io)
        with pytest.raises(OSError, match="injected write"):
            store.put_many([_chunk((0, 0), size=5.0),
                            _chunk((1, 0), size=5.0)])
        self._assert_pristine(store, n_chunks=0, n_segments=0)
        # the store still works once the fault clears
        store.put_many([_chunk((0, 0), size=5.0)])
        self._assert_pristine(store, n_chunks=1, n_segments=1)

    def test_failed_manifest_flush_rolls_back(self, tmp_path, faulty_io):
        # writes #2-#3 stage the segments; #4 is the commit flush
        io = faulty_io(fail_write_at=4)
        store = _tiered_store(str(tmp_path), budget=50.0, io=io)
        with pytest.raises(OSError, match="injected write"):
            store.put_many([_chunk((0, 0), size=5.0),
                            _chunk((1, 0), size=5.0)])
        self._assert_pristine(store, n_chunks=0, n_segments=0)

    def test_failed_eviction_flush_keeps_chunks(self, tmp_path, faulty_io):
        io = faulty_io(fail_write_at=5)  # create + 2 segs + commit = 4
        store = _tiered_store(str(tmp_path), budget=50.0, io=io)
        chunks = store.put_many([_chunk((0, 0), size=5.0),
                                 _chunk((1, 0), size=5.0)])
        with pytest.raises(OSError, match="injected write"):
            store.evict_many([c.ref() for c in chunks])
        self._assert_pristine(store, n_chunks=2, n_segments=2)
        for chunk in chunks:
            _payload_digest(store.get(chunk.ref()))

    def test_failed_fault_read_surfaces_then_retries(
        self, tmp_path, faulty_io
    ):
        io = faulty_io(fail_read_at=1)
        store = _tiered_store(str(tmp_path), budget=0.0, io=io)
        store.put_many([_chunk((0, 0), size=5.0)])
        (chunk,) = list(store.chunks())
        assert not chunk.is_resident
        with pytest.raises(OSError, match="injected read"):
            chunk.payload_parts()
        store.tier.check()  # failed fault mutated nothing
        assert store.tier.fault_count == 0
        digest = _payload_digest(chunk)  # retry succeeds
        assert digest == _payload_digest(_chunk((0, 0), size=5.0))

    def test_short_read_is_corruption_not_garbage(
        self, tmp_path, faulty_io
    ):
        io = faulty_io(truncate_read_at=1)
        store = _tiered_store(str(tmp_path), budget=0.0, io=io)
        store.put_many([_chunk((0, 0), size=5.0)])
        (chunk,) = list(store.chunks())
        with pytest.raises(SegmentCorruptError):
            chunk.payload_parts()
        store.tier.check()
        _payload_digest(chunk)  # clean read recovers

    def test_merge_with_failed_write_keeps_original(
        self, tmp_path, faulty_io
    ):
        io = faulty_io(fail_write_at=4)  # create + seg + commit = 3
        store = _tiered_store(str(tmp_path), budget=0.0, io=io)
        store.put_many([_chunk((2, 0), seed=1, size=5.0)])
        digest = _payload_digest(_chunk((2, 0), seed=1, size=5.0))
        with pytest.raises(OSError, match="injected write"):
            store.put(_chunk((2, 0), seed=2, size=5.0))
        self._assert_pristine(store, n_chunks=1, n_segments=1)
        (chunk,) = list(store.chunks())
        assert chunk.size_bytes == 5.0
        assert _payload_digest(chunk) == digest


def _build_cluster(name, storage=None):
    partitioner = make_partitioner(
        name, [0, 1], grid=GRID, node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster(
        partitioner, 1000 * GB, costs=CostParameters(), storage=storage,
    )


def _cluster_fingerprint(cluster):
    fp = []
    for chunk, node in sorted(
        cluster.session().chunks_of_array("S"),
        key=lambda cn: cn[0].ref().key,
    ):
        fp.append((chunk.ref(), node, chunk.size_bytes,
                   _payload_digest(chunk)))
    return fp


class TestInterleavingParity:
    """Hypothesis: tiered reads == the REPRO_STORAGE=memory twin."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        script=st.lists(
            st.sampled_from(["ingest", "expire", "grow"]),
            min_size=2, max_size=5,
        ),
        budget=st.sampled_from([0.0, 15.0, 60.0]),
    )
    def test_tiered_matches_memory_oracle(
        self, name, seed, script, budget
    ):
        def apply(cluster, rng, op, live):
            if op == "ingest" or not live:
                batch = []
                for _ in range(6):
                    key = (int(rng.integers(0, 8)),
                           int(rng.integers(0, 2)))
                    chunk = _chunk(
                        key,
                        seed=int(rng.integers(0, 2**31)),
                        cells=int(rng.integers(1, 5)),
                        size=float(rng.lognormal(2.0, 1.0)),
                    )
                    batch.append(chunk)
                    live[key] = chunk.ref()
                cluster.ingest(batch)
            elif op == "expire":
                n = min(len(live), int(rng.integers(1, 4)))
                picks = [
                    sorted(live)[i]
                    for i in rng.choice(len(live), n, replace=False)
                ]
                cluster.remove_chunks([live.pop(p) for p in picks])
            elif op == "grow":
                cluster.scale_out(1)

        with tempfile.TemporaryDirectory() as root:
            tiered = _build_cluster(
                name,
                storage=TieredStorage(
                    root=os.path.join(root, "tiers"),
                    memory_budget_bytes=budget,
                ),
            )
            # the parity switch: same construction, memory mode ignores
            # the tier entirely — no directories, no segment files
            oracle_root = os.path.join(root, "oracle")
            with parity(storage="memory"):
                oracle = _build_cluster(
                    name,
                    storage=TieredStorage(root=oracle_root),
                )
            assert not os.path.exists(oracle_root)

            rng_t = np.random.default_rng(seed)
            rng_o = np.random.default_rng(seed)
            live_t, live_o = {}, {}
            for op in ["ingest", *script]:
                apply(tiered, rng_t, op, live_t)
                apply(oracle, rng_o, op, live_o)
                assert _cluster_fingerprint(tiered) == \
                    _cluster_fingerprint(oracle)

            tiered.check_consistency()
            oracle.check_consistency()
            for stats in tiered.storage_stats().values():
                assert stats["resident_bytes"] <= budget + 1e-6
