"""The ElasticPartitioner framework: ledger, contracts, error paths."""

import pytest

from repro.arrays import Box, ChunkRef
from repro.core import make_partitioner
from repro.core.base import RebalancePlan
from repro.core.round_robin import RoundRobinPartitioner
from repro.errors import PartitioningError
from tests.helpers import placements

GRID = Box((0, 0), (8, 8))


class TestLedger:
    def test_place_records_assignment_and_load(self):
        p = RoundRobinPartitioner([0, 1])
        ref = ChunkRef("a", (0, 0))
        node = placements(p, [(ref, 100.0)])[ref]
        assert p.locate(ref) == node
        assert p.load_of(node) == 100.0
        assert p.total_bytes == 100.0
        assert p.chunk_count == 1

    def test_replace_existing_merges_bytes_in_place(self):
        p = RoundRobinPartitioner([0, 1])
        ref = ChunkRef("a", (0, 0))
        first = placements(p, [(ref, 100.0)])[ref]
        second = placements(p, [(ref, 50.0)])[ref]
        assert first == second
        assert p.size_of(ref) == 150.0
        assert p.chunk_count == 1

    def test_negative_size_rejected(self):
        p = RoundRobinPartitioner([0])
        with pytest.raises(PartitioningError):
            p.place_batch([ChunkRef("a", (0, 0))], [-1.0])

    def test_locate_unknown_chunk(self):
        p = RoundRobinPartitioner([0])
        with pytest.raises(PartitioningError):
            p.locate(ChunkRef("a", (9, 9)))

    def test_chunks_on(self):
        p = RoundRobinPartitioner([0, 1])
        refs = [ChunkRef("a", (i, 0)) for i in range(4)]
        p.place_batch(refs, [10.0] * len(refs))
        assert sorted(
            p.chunks_on(0) + p.chunks_on(1),
            key=lambda r: r.key,
        ) == refs
        with pytest.raises(PartitioningError):
            p.chunks_on(99)

    def test_heaviest_node(self):
        p = RoundRobinPartitioner([0, 1, 2])
        p.place_batch(  # nodes 0 and 1
            [ChunkRef("a", (0, 0)), ChunkRef("a", (1, 0))], [10.0, 500.0]
        )
        assert p.heaviest_node() == 1
        assert p.heaviest_node(among=[0, 2]) == 0  # tie-ish, 0 wins by id


class TestConstruction:
    def test_needs_nodes(self):
        with pytest.raises(PartitioningError):
            RoundRobinPartitioner([])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(PartitioningError):
            RoundRobinPartitioner([1, 1])


class TestScaleOut:
    def test_duplicate_new_node_rejected(self):
        p = RoundRobinPartitioner([0, 1])
        with pytest.raises(PartitioningError):
            p.scale_out([1])
        with pytest.raises(PartitioningError):
            p.scale_out([2, 2])

    def test_empty_scale_out_is_noop(self):
        p = RoundRobinPartitioner([0, 1])
        plan = p.scale_out([])
        assert plan.is_empty()
        assert p.node_count == 2

    def test_nodes_registered_after_scale_out(self):
        p = RoundRobinPartitioner([0, 1])
        p.scale_out([2, 3])
        assert p.nodes == (0, 1, 2, 3)
        assert p.load_of(2) == 0.0 or p.load_of(2) >= 0.0

    def test_ledger_conserved_by_scale_out(self, grid3d):
        for name in ("kd_tree", "consistent_hash", "uniform_range"):
            p = make_partitioner(
                name, [0, 1], grid=grid3d, node_capacity_bytes=1e6
            )
            refs = [
                ChunkRef("a", (i % 8, (i * 3) % 16, (i * 7) % 12))
                for i in range(50)
            ]
            p.place_batch(refs, [float(10 + i) for i in range(50)])
            total = sum(10 + i for i in range(50))
            p.scale_out([2, 3])
            assert sum(p.node_loads().values()) == pytest.approx(total)
            assert p.total_bytes == pytest.approx(total)


class TestMoveAndPlan:
    def test_degenerate_move_rejected(self):
        with pytest.raises(PartitioningError):
            RebalancePlan(
                [ChunkRef("a", (0,))], sources=[1], dests=[1], sizes=[5.0]
            )

    @pytest.mark.parametrize("column, value", [
        ("sizes", [float("nan")]),
        ("sizes", [-5.0]),
        ("sizes", [1.0, 2.0]),
        ("sources", ["a"]),
        ("dests", [1.5]),
        ("ids", [0, 1]),
    ])
    def test_malformed_column_is_named(self, column, value):
        columns = dict(sources=[0], dests=[1], sizes=[5.0], ids=[0])
        columns[column] = value
        with pytest.raises(PartitioningError, match=f"column {column}"):
            RebalancePlan([ChunkRef("a", (0,))], **columns)

    def test_plan_aggregations(self):
        plan = RebalancePlan(
            [ChunkRef("a", (0,)), ChunkRef("a", (1,)), ChunkRef("a", (2,))],
            sources=[0, 0, 1], dests=[2, 3, 2], sizes=[100.0, 50.0, 25.0],
        )
        assert plan.total_bytes == 175.0
        assert plan.chunk_count == 3
        assert plan.bytes_by_dest() == {2: 125.0, 3: 50.0}
        assert plan.touched_nodes() == (0, 1, 2, 3)
        assert not plan.is_empty()
