"""Append, Round Robin, Consistent Hash, Extendible Hash behaviour."""

import math

import numpy as np
import pytest

from repro.arrays import ChunkRef
from repro.core.append import AppendPartitioner
from repro.core.consistent_hash import ConsistentHashPartitioner
from repro.core.extendible_hash import ExtendibleHashPartitioner
from repro.core.round_robin import RoundRobinPartitioner
from repro.errors import PartitioningError
from tests.helpers import columns, placements
from tests.oracles import Move, place_scalar


def refs(n, array="a"):
    return [ChunkRef(array, (i,)) for i in range(n)]


def items(chunks, size):
    """``(ref, size)`` items of ``chunks``, all ``size`` bytes."""
    return [(r, size) for r in chunks]


class TestAppend:
    def test_fills_in_order_and_spills(self):
        p = AppendPartitioner([0, 1, 2], node_capacity_bytes=100.0)
        # 40-byte chunks: two fit per 100-byte node before spilling
        nodes = [place_scalar(p, r, 40.0) for r in refs(5)]
        assert nodes == [0, 0, 1, 1, 2]

    def test_never_rejects_when_all_full(self):
        p = AppendPartitioner([0, 1], node_capacity_bytes=100.0)
        for r in refs(10):
            node = place_scalar(p, r, 60.0)
        assert node == 1  # last node keeps absorbing

    def test_scale_out_moves_nothing(self):
        p = AppendPartitioner([0], node_capacity_bytes=100.0)
        p.place_batch(*columns(items(refs(4), 60.0)))
        plan = p.scale_out([1, 2])
        assert plan.is_empty()

    def test_new_nodes_used_after_scale_out(self):
        p = AppendPartitioner([0], node_capacity_bytes=100.0)
        p.place_batch([ChunkRef("a", (0,))], [90.0])
        p.scale_out([1])
        assert place_scalar(p, ChunkRef("a", (1,)), 90.0) == 1
        assert p.cursor_node == 1

    def test_invalid_capacity(self):
        with pytest.raises(PartitioningError):
            AppendPartitioner([0], node_capacity_bytes=0.0)

    @pytest.mark.parametrize(
        "capacity", [math.nan, math.inf, -5.0, True, "100"],
        ids=["nan", "inf", "negative", "bool", "str"],
    )
    def test_capacity_must_be_finite_and_positive(self, capacity):
        # A NaN capacity never compares as exceeded: the fill cursor
        # would never advance and every byte would land on node 0.
        with pytest.raises(PartitioningError, match="node_capacity_bytes"):
            AppendPartitioner([0, 1, 2], node_capacity_bytes=capacity)

    def test_insert_order_preserved_not_key_order(self):
        p = AppendPartitioner([0, 1], node_capacity_bytes=100.0)
        first = place_scalar(p, ChunkRef("a", (99,)), 80.0)
        second = place_scalar(p, ChunkRef("a", (1,)), 80.0)
        assert first == 0 and second == 1


class TestRoundRobin:
    def test_cycles_nodes(self):
        p = RoundRobinPartitioner([0, 1, 2])
        assert [place_scalar(p, r, 1.0) for r in refs(6)] == [0, 1, 2] * 2

    def test_equal_chunk_counts(self):
        p = RoundRobinPartitioner([0, 1, 2])
        p.place_batch(*columns(items(refs(99), 1.0)))
        counts = {n: len(p.chunks_on(n)) for n in p.nodes}
        assert set(counts.values()) == {33}

    def test_scale_out_is_global_reshuffle(self):
        p = RoundRobinPartitioner([0, 1])
        p.place_batch(*columns(items(refs(20), 1.0)))
        plan = p.scale_out([2])
        # i mod 2 != i mod 3 for most ordinals
        assert plan.chunk_count > 10
        # moves may target preexisting nodes (not incremental)
        dests = {m.dest for m in Move.rows(plan)}
        assert dests - {2}, "global reshuffle must touch old nodes"

    def test_post_scale_out_follows_new_modulus(self):
        p = RoundRobinPartitioner([0, 1])
        p.place_batch(*columns(items(refs(4), 1.0)))
        p.scale_out([2])
        for i, r in enumerate(refs(4)):
            assert p.locate(r) == p.nodes[i % 3]


class TestConsistentHash:
    def test_deterministic_placement(self):
        a = ConsistentHashPartitioner([0, 1, 2])
        b = ConsistentHashPartitioner([0, 1, 2])
        for r in refs(30):
            assert place_scalar(a, r, 1.0) == place_scalar(b, r, 1.0)

    def test_balance_with_many_chunks(self):
        p = ConsistentHashPartitioner([0, 1, 2, 3], virtual_nodes=128)
        chunks = [ChunkRef("a", (i, i % 13)) for i in range(800)]
        p.place_batch(*columns(items(chunks, 1.0)))
        counts = [len(p.chunks_on(n)) for n in p.nodes]
        assert min(counts) > 100  # no starved node

    def test_scale_out_moves_only_to_new_nodes(self):
        p = ConsistentHashPartitioner([0, 1])
        p.place_batch(*columns(items(refs(200), 1.0)))
        plan = p.scale_out([2, 3])
        assert plan.chunk_count > 0
        assert all(m.dest in (2, 3) for m in Move.rows(plan))

    def test_scale_out_monotone(self):
        # Chunks that do not move keep their owner (ring monotonicity).
        p = ConsistentHashPartitioner([0, 1])
        chunks = refs(100)
        before = placements(p, items(chunks, 1.0))
        plan = p.scale_out([2])
        moved = {m.ref for m in Move.rows(plan)}
        for r in chunks:
            if r not in moved:
                assert p.locate(r) == before[r]

    def test_virtual_nodes_validation(self):
        with pytest.raises(PartitioningError):
            ConsistentHashPartitioner([0], virtual_nodes=0)

    @pytest.mark.parametrize(
        "vnodes", [2.5, True, math.nan, math.inf, -3, "64"],
        ids=["fraction", "bool", "nan", "inf", "negative", "str"],
    )
    def test_virtual_nodes_must_be_a_count(self, vnodes):
        # 2.5 and True were silently truncated to 2 and 1; NaN and inf
        # escaped as a bare ValueError / OverflowError.
        with pytest.raises(PartitioningError, match="virtual_nodes"):
            ConsistentHashPartitioner([0, 1], virtual_nodes=vnodes)

    def test_numpy_integer_virtual_nodes_accepted(self):
        p = ConsistentHashPartitioner([0, 1], virtual_nodes=np.int64(3))
        assert p.virtual_nodes == 3 and type(p.virtual_nodes) is int

    def test_more_vnodes_tighter_balance(self):
        def spread(vnodes):
            p = ConsistentHashPartitioner([0, 1, 2, 3], virtual_nodes=vnodes)
            p.place_batch(*columns(items(refs(600), 1.0)))
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
        for r, node in placements(p, items(refs(50), 2.0)).items():
            assert p.bucket_for(r).node == node

    def test_scale_out_splits_heaviest(self):
        p = ExtendibleHashPartitioner([0, 1])
        # Load node 0's buckets far more heavily: its chunks merge
        # another 99 bytes each.
        owners = placements(p, items(refs(100), 1.0))
        p.place_batch(*columns(
            items([r for r, node in owners.items() if node == 0], 99.0)
        ))
        plan = p.scale_out([2])
        assert all(m.dest == 2 for m in Move.rows(plan))
        assert all(m.source == 0 for m in Move.rows(plan))

    def test_directory_doubles_when_needed(self):
        p = ExtendibleHashPartitioner([0, 1])
        g0 = p.global_depth
        p.place_batch(*columns(items(refs(64), 1.0)))
        p.scale_out([2])
        p.scale_out([3])
        assert p.global_depth >= g0
        assert p.directory_size == 1 << p.global_depth

    def test_bucket_bytes_track_members(self):
        p = ExtendibleHashPartitioner([0, 1])
        p.place_batch(refs(40), [float(i) for i in range(40)])
        weight = p.bucket_bytes()
        for bucket in p.buckets():
            expected = sum(
                p.size_of(r) for r in p.assignment()
                if p.bucket_for(r) is bucket
            )
            assert weight[bucket.bucket_id] == pytest.approx(expected)

    def test_split_preserves_lookup_consistency(self):
        p = ExtendibleHashPartitioner([0, 1])
        chunks = refs(120)
        p.place_batch(*columns(items(chunks, 1.0)))
        p.scale_out([2, 3])
        for r in chunks:
            assert p.bucket_for(r).node == p.locate(r)
