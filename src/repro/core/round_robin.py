"""Round Robin baseline partitioner (paper §6.1).

Chunks are assigned to nodes in circular order of arrival: chunk ``i`` of
``k`` nodes lives on node ``i mod k``.  Every host serves an equal number of
chunks, but the scheme is **not** designed for incremental elasticity: when
the cluster scales out, ``k`` changes and most chunks shift location — a
global reshuffle.  It is also not skew-aware (it reasons about chunk counts,
never bytes).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.arrays.chunk import ChunkRef
from repro.core.base import ElasticPartitioner, Move, NodeId
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits


class RoundRobinPartitioner(ElasticPartitioner):
    """The ``i mod k`` baseline with global reshuffles on scale-out."""

    name = "round_robin"
    traits: PartitionerTraits = PAPER_TAXONOMY["round_robin"]

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        super().__init__(nodes)
        self._counter = 0
        self._ordinal: Dict[ChunkRef, int] = {}

    def _place_new(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        ordinal = self._counter
        self._counter += 1
        self._ordinal[ref] = ordinal
        return self._nodes[ordinal % len(self._nodes)]

    def place_batch(self, refs_and_sizes):
        """Amortized batch placement: arrival ordinals of the batch's
        new refs are assigned arithmetically in one bulk update
        (duplicates merge, consuming no ordinal).  Equivalent to
        sequential :meth:`place` calls per the base class's batch
        contract."""
        first_sizes, merges = self._partition_batch(list(refs_and_sizes))
        nodes = self._nodes
        k = len(nodes)
        counter = self._counter
        n_new = len(first_sizes)
        commit_nodes = [
            nodes[(counter + i) % k] for i in range(n_new)
        ]
        self._ordinal.update(
            zip(first_sizes, range(counter, counter + n_new))
        )
        self._counter = counter + n_new
        return self._commit_batch(first_sizes, commit_nodes, merges)

    def _forget(self, ref, size_bytes, node) -> None:
        self._ordinal.pop(ref, None)

    def _adopt_batch(self, entries) -> None:
        # Arrival order is not persisted; re-assign ordinals in the
        # (deterministic) adoption order so post-recovery scale-outs
        # reshuffle every adopted chunk consistently.
        for ref, _size, _node in entries:
            self._ordinal[ref] = self._counter
            self._counter += 1

    def _extend(self, new_nodes: Sequence[NodeId]) -> List[Move]:
        # Recompute i mod k for every chunk under the new node count; any
        # chunk whose slot changes moves — typically (k-1)/k of the data.
        k = len(self._nodes)
        moves: List[Move] = []
        for ref, ordinal in sorted(
            self._ordinal.items(), key=lambda item: item[1]
        ):
            dest = self._nodes[ordinal % k]
            if dest != self._ledger.node_of(ref):
                moves.append(self._relocate(ref, dest))
        return moves
