"""Node-local chunk stores and deterministic hashing."""

import numpy as np
import pytest

from repro.arrays import ChunkData, ChunkRef, ChunkStore
from repro.core.hashing import hash_chunk_ref, hash_key, stable_hash64
from repro.errors import StorageError


@pytest.fixture
def chunk(tiny_schema):
    return ChunkData(
        tiny_schema, (0, 0), np.array([[1, 1]]),
        {"i": np.array([1], dtype=np.int32), "j": np.array([0.5])},
        size_bytes=500.0,
    )


@pytest.fixture
def other_chunk(tiny_schema):
    return ChunkData(
        tiny_schema, (1, 1), np.array([[3, 3]]),
        {"i": np.array([2], dtype=np.int32), "j": np.array([0.7])},
        size_bytes=300.0,
    )


class TestChunkStore:
    def test_put_get(self, chunk):
        store = ChunkStore()
        store.put(chunk)
        assert store.used_bytes == 500.0
        assert store.get(chunk.ref()) is chunk
        assert chunk.ref() in store
        assert store.chunk_count == 1

    def test_put_merges_same_ref(self, chunk, tiny_schema):
        store = ChunkStore()
        store.put(chunk)
        more = ChunkData(
            tiny_schema, (0, 0), np.array([[2, 2]]),
            {"i": np.array([9], dtype=np.int32), "j": np.array([0.9])},
            size_bytes=100.0,
        )
        store.put(more)
        assert store.chunk_count == 1
        assert store.used_bytes == pytest.approx(600.0)
        assert store.get(chunk.ref()).cell_count == 2

    def test_evict(self, chunk, other_chunk):
        store = ChunkStore()
        store.put(chunk)
        store.put(other_chunk)
        evicted = store.evict(chunk.ref())
        assert evicted.key == (0, 0)
        assert store.used_bytes == pytest.approx(300.0)
        assert chunk.ref() not in store

    def test_evict_missing_raises(self, chunk):
        store = ChunkStore()
        with pytest.raises(StorageError):
            store.evict(chunk.ref())

    def test_get_missing_raises(self, chunk):
        store = ChunkStore()
        with pytest.raises(StorageError):
            store.get(chunk.ref())

    def test_refs_sorted(self, chunk, other_chunk):
        store = ChunkStore()
        store.put(other_chunk)
        store.put(chunk)
        assert store.refs() == [chunk.ref(), other_chunk.ref()]

    def test_clear(self, chunk):
        store = ChunkStore()
        store.put(chunk)
        store.clear()
        assert store.used_bytes == 0
        assert len(store) == 0


class TestHashing:
    def test_stable_across_calls(self):
        ref = ChunkRef("band1", (3, 7, 2))
        assert hash_chunk_ref(ref) == hash_chunk_ref(ref)

    def test_array_name_matters(self):
        a = hash_chunk_ref(ChunkRef("band1", (3, 7, 2)))
        b = hash_chunk_ref(ChunkRef("band2", (3, 7, 2)))
        assert a != b

    def test_key_matters(self):
        a = hash_chunk_ref(ChunkRef("band1", (3, 7, 2)))
        b = hash_chunk_ref(ChunkRef("band1", (3, 7, 3)))
        assert a != b

    def test_64_bit_range(self):
        h = hash_chunk_ref(ChunkRef("x", (0,)))
        assert 0 <= h < (1 << 64)

    def test_known_value_pinned(self):
        # Regression pin: placement must never change across releases,
        # or persisted clusters would shuffle on upgrade.
        assert stable_hash64(b"repro") == stable_hash64(b"repro")
        ref = ChunkRef("a", (1, 2))
        first = hash_chunk_ref(ref)
        for _ in range(3):
            assert hash_chunk_ref(ref) == first
        assert first == 4796664864701176444
        assert hash_chunk_ref(ChunkRef("band1", (3, -7, 2))) == (
            14587493320216311765
        )
        assert hash_chunk_ref(ChunkRef("x", ())) == 12607306744664981954

    def test_hash_key_salt(self):
        assert hash_key((1, 2), "a") != hash_key((1, 2), "b")
        assert hash_key((1, 2)) == hash_key((1, 2))

    def test_distribution_roughly_uniform(self):
        # 1000 refs into 8 equal hash buckets: no bucket wildly off.
        counts = [0] * 8
        for i in range(1000):
            h = hash_chunk_ref(ChunkRef("arr", (i, i % 7, i % 3)))
            counts[h % 8] += 1
        assert min(counts) > 80
        assert max(counts) < 180
