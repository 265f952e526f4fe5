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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ElasticPartitioner, NodeId, RebalancePlan
from repro.core.hashing import hash_node_point
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError, require_count

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
        self.virtual_nodes = require_count(
            "virtual_nodes", virtual_nodes, PartitioningError
        )
        self._ring: List[Tuple[int, NodeId]] = []
        # Parallel numpy views of the sorted ring, rebuilt lazily after
        # inserts, so batch lookups are one searchsorted instead of a
        # bisect per chunk.
        self._ring_points: Optional[np.ndarray] = None
        self._ring_nodes: Optional[np.ndarray] = None
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

    def _owners_of(self, hashes: np.ndarray) -> np.ndarray:
        """Batch ring lookup: one searchsorted over all chunk hashes."""
        if not self._ring:
            raise PartitioningError("empty hash ring")
        points, ring_nodes = self._ring_arrays()
        # side="right": a chunk colliding with a ring point belongs to
        # the next arc.
        pos = np.searchsorted(points, hashes, side="right")
        pos[pos == len(points)] = 0  # wrap around the circle
        return ring_nodes[pos]

    # ------------------------------------------------------------------
    def _derive(self, split):
        """The stable-hash column of the batch's first-time chunks (a
        blake2b digest each: the table keeps them, so each chunk is
        hashed once across placements and scale-outs)."""
        return {"hash": split.new_hashes()}

    def _place_split(self, split):
        """Amortized batch placement: ring positions of every new ref
        are resolved with a single vectorized searchsorted."""
        hashes = split.columns["hash"]
        return self._owners_of(hashes) if len(hashes) else []

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        for node in new_nodes:
            self._add_to_ring(node)
        # Re-evaluate ownership: arcs claimed by the new replicas are
        # exactly the chunks that move, in (array, key) order, and their
        # destination is always a new node (old arcs only shrink).  One
        # batch lookup covers the whole table.
        ids = self._ledger.live_ids()
        return self._reshuffle(
            ids, self._owners_of(self._ledger.column_at("hash", ids))
        )
