"""Consistent Hash partitioner (paper §4.2, after Karger et al. [24]).

Nodes and chunks hash onto the circumference of a circle; a chunk is owned
by the first node clockwise from its position.  Each physical node projects
``virtual_nodes`` replicas onto the ring so ownership arcs are fine-grained
and evenly sized in expectation.

Scale-out is naturally incremental: inserting a node's replicas claims arcs
from existing owners, so data flows *only* toward the new node.  The scheme
balances **chunk counts**, not bytes — it is not skew-aware — and hashing
destroys spatial locality, so it shines on equi-joins and embarrassingly
parallel operators rather than spatial analytics.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.base import ElasticPartitioner, Move, NodeId
from repro.core.hashing import hash_chunk_ref, hash_node_point
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError

DEFAULT_VIRTUAL_NODES = 64


class ConsistentHashPartitioner(ElasticPartitioner):
    """Hash ring with virtual nodes.

    Args:
        nodes: initial node ids.
        virtual_nodes: ring points per physical node.  More virtual nodes
            tighten the chunk-count balance at a small lookup cost (see the
            ``bench_ablation_vnodes`` benchmark).
    """

    name = "consistent_hash"
    traits: PartitionerTraits = PAPER_TAXONOMY["consistent_hash"]

    def __init__(
        self,
        nodes: Sequence[NodeId],
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        super().__init__(nodes)
        if virtual_nodes < 1:
            raise PartitioningError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = int(virtual_nodes)
        self._ring: List[Tuple[int, NodeId]] = []
        # Parallel numpy views of the sorted ring, rebuilt lazily after
        # inserts, so batch lookups are one searchsorted instead of a
        # bisect per chunk.
        self._ring_points: Optional[np.ndarray] = None
        self._ring_nodes: Optional[np.ndarray] = None
        # Chunk hashes are blake2b digests (not vectorizable); cache them
        # so each ref is hashed once across placements and scale-outs.
        self._hash_cache: Dict[ChunkRef, int] = {}
        for node in self._nodes:
            self._add_to_ring(node)

    # ------------------------------------------------------------------
    def _add_to_ring(self, node: NodeId) -> None:
        for replica in range(self.virtual_nodes):
            point = hash_node_point(node, replica)
            bisect.insort(self._ring, (point, node))
        self._ring_points = None
        self._ring_nodes = None

    def _ring_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._ring_points is None:
            self._ring_points = np.array(
                [p for p, _ in self._ring], dtype=np.uint64
            )
            self._ring_nodes = np.array(
                [n for _, n in self._ring], dtype=np.int64
            )
        return self._ring_points, self._ring_nodes

    def _hash_of(self, ref: ChunkRef) -> int:
        h = self._hash_cache.get(ref)
        if h is None:
            h = hash_chunk_ref(ref)
            self._hash_cache[ref] = h
        return h

    def owner_of(self, ref: ChunkRef) -> NodeId:
        """Ring lookup: first node clockwise from the chunk's position."""
        if not self._ring:
            raise PartitioningError("empty hash ring")
        h = self._hash_of(ref)
        idx = bisect.bisect_right(self._ring, (h, float("inf")))
        if idx == len(self._ring):
            idx = 0  # wrap around the circle
        return self._ring[idx][1]

    def _owners_of(self, refs: Sequence[ChunkRef]) -> List[NodeId]:
        """Batch ring lookup: one searchsorted over all chunk hashes."""
        if not self._ring:
            raise PartitioningError("empty hash ring")
        points, ring_nodes = self._ring_arrays()
        hashes = np.fromiter(
            (self._hash_of(r) for r in refs),
            dtype=np.uint64,
            count=len(refs),
        )
        # side="right" matches bisect_right with the (h, inf) sentinel:
        # a chunk colliding with a ring point belongs to the next arc.
        pos = np.searchsorted(points, hashes, side="right")
        pos[pos == len(points)] = 0  # wrap around the circle
        return ring_nodes[pos].tolist()

    # ------------------------------------------------------------------
    def _place_new(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        return self.owner_of(ref)

    def place_batch(self, refs_and_sizes):
        """Amortized batch placement: ring positions of every new ref
        are resolved with a single vectorized searchsorted.  Equivalent
        to sequential :meth:`place` calls per the base class's batch
        contract."""
        first_sizes, merges = self._partition_batch(list(refs_and_sizes))
        commit_nodes = (
            self._owners_of(list(first_sizes)) if first_sizes else []
        )
        return self._commit_batch(first_sizes, commit_nodes, merges)

    def _forget(self, ref, size_bytes, node) -> None:
        self._hash_cache.pop(ref, None)

    def _extend(self, new_nodes: Sequence[NodeId]) -> List[Move]:
        for node in new_nodes:
            self._add_to_ring(node)
        # Re-evaluate ownership: arcs claimed by the new replicas are
        # exactly the chunks that move, and their destination is always a
        # new node (old arcs only shrink).  One batch lookup covers the
        # whole table.
        assignment = self._ledger.assignment()
        refs = sorted(assignment, key=lambda r: (r.array, r.key))
        moves: List[Move] = []
        for ref, owner in zip(refs, self._owners_of(refs)):
            if owner != assignment[ref]:
                moves.append(self._relocate(ref, owner))
        return moves
