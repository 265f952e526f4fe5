"""Append, Round Robin, Consistent Hash, Extendible Hash behaviour."""

import pytest

from repro.arrays import ChunkRef
from repro.core.append import AppendPartitioner
from repro.core.consistent_hash import ConsistentHashPartitioner
from repro.core.extendible_hash import ExtendibleHashPartitioner
from repro.core.round_robin import RoundRobinPartitioner
from repro.errors import PartitioningError
from tests.oracles import Move


def refs(n, array="a"):
    return [ChunkRef(array, (i,)) for i in range(n)]


class TestAppend:
    def test_fills_in_order_and_spills(self):
        p = AppendPartitioner([0, 1, 2], node_capacity_bytes=100.0)
        # 40-byte chunks: two fit per 100-byte node before spilling
        placements = [p.place(r, 40.0) for r in refs(5)]
        assert placements == [0, 0, 1, 1, 2]

    def test_never_rejects_when_all_full(self):
        p = AppendPartitioner([0, 1], node_capacity_bytes=100.0)
        for r in refs(10):
            node = p.place(r, 60.0)
        assert node == 1  # last node keeps absorbing

    def test_scale_out_moves_nothing(self):
        p = AppendPartitioner([0], node_capacity_bytes=100.0)
        for r in refs(4):
            p.place(r, 60.0)
        plan = p.scale_out([1, 2])
        assert plan.is_empty()

    def test_new_nodes_used_after_scale_out(self):
        p = AppendPartitioner([0], node_capacity_bytes=100.0)
        p.place(ChunkRef("a", (0,)), 90.0)
        p.scale_out([1])
        assert p.place(ChunkRef("a", (1,)), 90.0) == 1
        assert p.cursor_node == 1

    def test_invalid_capacity(self):
        with pytest.raises(PartitioningError):
            AppendPartitioner([0], node_capacity_bytes=0.0)

    def test_insert_order_preserved_not_key_order(self):
        p = AppendPartitioner([0, 1], node_capacity_bytes=100.0)
        first = p.place(ChunkRef("a", (99,)), 80.0)
        second = p.place(ChunkRef("a", (1,)), 80.0)
        assert first == 0 and second == 1


class TestRoundRobin:
    def test_cycles_nodes(self):
        p = RoundRobinPartitioner([0, 1, 2])
        assert [p.place(r, 1.0) for r in refs(6)] == [0, 1, 2, 0, 1, 2]

    def test_equal_chunk_counts(self):
        p = RoundRobinPartitioner([0, 1, 2])
        for r in refs(99):
            p.place(r, 1.0)
        counts = {n: len(p.chunks_on(n)) for n in p.nodes}
        assert set(counts.values()) == {33}

    def test_scale_out_is_global_reshuffle(self):
        p = RoundRobinPartitioner([0, 1])
        for r in refs(20):
            p.place(r, 1.0)
        plan = p.scale_out([2])
        # i mod 2 != i mod 3 for most ordinals
        assert plan.chunk_count > 10
        # moves may target preexisting nodes (not incremental)
        dests = {m.dest for m in Move.rows(plan)}
        assert dests - {2}, "global reshuffle must touch old nodes"

    def test_post_scale_out_follows_new_modulus(self):
        p = RoundRobinPartitioner([0, 1])
        for r in refs(4):
            p.place(r, 1.0)
        p.scale_out([2])
        for i, r in enumerate(refs(4)):
            assert p.locate(r) == p.nodes[i % 3]


class TestConsistentHash:
    def test_deterministic_placement(self):
        a = ConsistentHashPartitioner([0, 1, 2])
        b = ConsistentHashPartitioner([0, 1, 2])
        for r in refs(30):
            assert a.place(r, 1.0) == b.place(r, 1.0)

    def test_balance_with_many_chunks(self):
        p = ConsistentHashPartitioner([0, 1, 2, 3], virtual_nodes=128)
        for i in range(800):
            p.place(ChunkRef("a", (i, i % 13)), 1.0)
        counts = [len(p.chunks_on(n)) for n in p.nodes]
        assert min(counts) > 100  # no starved node

    def test_scale_out_moves_only_to_new_nodes(self):
        p = ConsistentHashPartitioner([0, 1])
        for i in range(200):
            p.place(ChunkRef("a", (i,)), 1.0)
        plan = p.scale_out([2, 3])
        assert plan.chunk_count > 0
        assert all(m.dest in (2, 3) for m in Move.rows(plan))

    def test_scale_out_monotone(self):
        # Chunks that do not move keep their owner (ring monotonicity).
        p = ConsistentHashPartitioner([0, 1])
        chunks = refs(100)
        before = {}
        for r in chunks:
            before[r] = p.place(r, 1.0)
        plan = p.scale_out([2])
        moved = {m.ref for m in Move.rows(plan)}
        for r in chunks:
            if r not in moved:
                assert p.locate(r) == before[r]

    def test_virtual_nodes_validation(self):
        with pytest.raises(PartitioningError):
            ConsistentHashPartitioner([0], virtual_nodes=0)

    def test_more_vnodes_tighter_balance(self):
        def spread(vnodes):
            p = ConsistentHashPartitioner([0, 1, 2, 3], virtual_nodes=vnodes)
            for i in range(600):
                p.place(ChunkRef("a", (i,)), 1.0)
            counts = [len(p.chunks_on(n)) for n in p.nodes]
            return max(counts) - min(counts)

        assert spread(256) <= spread(2)


class TestExtendibleHash:
    def test_initial_directory_covers_nodes(self):
        p = ExtendibleHashPartitioner([0, 1, 2])
        assert p.directory_size >= 3
        owners = {b.node for b in p.buckets()}
        assert owners == {0, 1, 2}

    def test_lookup_matches_bucket(self):
        p = ExtendibleHashPartitioner([0, 1])
        for r in refs(50):
            node = p.place(r, 2.0)
            assert p.bucket_for(r).node == node

    def test_scale_out_splits_heaviest(self):
        p = ExtendibleHashPartitioner([0, 1])
        # Load node 0's buckets far more heavily.
        for i in range(100):
            r = ChunkRef("a", (i,))
            owner = p.place(r, 1.0)
            if owner == 0:
                p.update_size(r, 99.0)
        plan = p.scale_out([2])
        assert all(m.dest == 2 for m in Move.rows(plan))
        assert all(m.source == 0 for m in Move.rows(plan))

    def test_directory_doubles_when_needed(self):
        p = ExtendibleHashPartitioner([0, 1])
        g0 = p.global_depth
        for i in range(64):
            p.place(ChunkRef("a", (i,)), 1.0)
        p.scale_out([2])
        p.scale_out([3])
        assert p.global_depth >= g0
        assert p.directory_size == 1 << p.global_depth

    def test_bucket_bytes_track_members(self):
        p = ExtendibleHashPartitioner([0, 1])
        for i, r in enumerate(refs(40)):
            p.place(r, float(i))
        for bucket in p.buckets():
            expected = sum(p.size_of(r) for r in bucket.members)
            assert bucket.bytes == pytest.approx(expected)

    def test_split_preserves_lookup_consistency(self):
        p = ExtendibleHashPartitioner([0, 1])
        chunks = refs(120)
        for r in chunks:
            p.place(r, 1.0)
        p.scale_out([2, 3])
        for r in chunks:
            assert p.bucket_for(r).node == p.locate(r)
