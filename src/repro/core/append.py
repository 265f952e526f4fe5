"""Append partitioner (paper §4.2).

Range partitioning by insert order: each new chunk goes to the first node
that is not at capacity, spilling to the next when the current target
fills.  Adding a node is a constant-time operation — it simply joins the
back of the fill order, so scale-out moves **zero** data.

The price is poor use of new hardware (recently added nodes sit idle until
the fill pointer reaches them) and no multidimensional clustering beyond
insert order, which is why the paper observes erratic query latencies when
recent data is queried most (Figure 6).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.arrays.chunk import ChunkRef
from repro.core.base import ElasticPartitioner, Move, NodeId
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError


class AppendPartitioner(ElasticPartitioner):
    """Fill nodes in order, spilling when each reaches capacity.

    Args:
        nodes: initial node ids; they are filled in this order.
        node_capacity_bytes: capacity after which the fill pointer advances.
            The partitioner never *rejects* data — if every node is full the
            last node keeps absorbing chunks (the provisioner's job is to
            add hardware before that happens).
    """

    name = "append"
    traits: PartitionerTraits = PAPER_TAXONOMY["append"]

    def __init__(
        self,
        nodes: Sequence[NodeId],
        node_capacity_bytes: float,
    ) -> None:
        super().__init__(nodes)
        if node_capacity_bytes <= 0:
            raise PartitioningError(
                f"node capacity must be positive, got {node_capacity_bytes}"
            )
        self.node_capacity_bytes = float(node_capacity_bytes)
        self._cursor = 0

    @property
    def cursor_node(self) -> NodeId:
        """The node currently receiving new chunks."""
        return self._nodes[self._cursor]

    def _place_new(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        # Advance past full nodes; stop at the last node regardless.
        while (
            self._cursor < len(self._nodes) - 1
            and self._ledger.load_of(self._nodes[self._cursor]) + size_bytes
            > self.node_capacity_bytes
        ):
            self._cursor += 1
        return self._nodes[self._cursor]

    def _extend(self, new_nodes: Sequence[NodeId]) -> List[Move]:
        # New nodes joined the back of the fill order (the base class
        # appended them to self._nodes); no data moves — this is the
        # constant-time scale-out the paper highlights.
        return []
