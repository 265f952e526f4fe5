"""Round Robin baseline partitioner (paper §6.1).

Chunks are assigned to nodes in circular order of arrival: chunk ``i`` of
``k`` nodes lives on node ``i mod k``.  Every host serves an equal number of
chunks, but the scheme is **not** designed for incremental elasticity: when
the cluster scales out, ``k`` changes and most chunks shift location — a
global reshuffle.  It is also not skew-aware (it reasons about chunk counts,
never bytes).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.base import ElasticPartitioner, NodeId, RebalancePlan
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits


class RoundRobinPartitioner(ElasticPartitioner):
    """The ``i mod k`` baseline with global reshuffles on scale-out."""

    name = "round_robin"
    traits: PartitionerTraits = PAPER_TAXONOMY["round_robin"]

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        super().__init__(nodes)
        self._counter = 0
        self._ordinal: Dict[ChunkRef, int] = {}

    def _place_split(self, split):
        """Amortized batch placement: arrival ordinals of the batch's
        new refs are assigned arithmetically in one bulk update
        (duplicates merge, consuming no ordinal)."""
        counter, n_new = self._counter, len(split.first)
        self._ordinal.update(
            zip(split.new_refs(), range(counter, counter + n_new))
        )
        self._counter = counter + n_new
        ordinals = np.arange(counter, counter + n_new) % len(self._nodes)
        return np.asarray(self._nodes, dtype=np.int64)[ordinals]

    def _forget(self, ref, size_bytes, node) -> None:
        self._ordinal.pop(ref, None)

    def _adopt_batch(self, entries) -> None:
        # Arrival order is not persisted; re-assign ordinals in the
        # (deterministic) adoption order so post-recovery scale-outs
        # reshuffle every adopted chunk consistently.
        for ref, _size, _node in entries:
            self._ordinal[ref] = self._counter
            self._counter += 1

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        # Recompute i mod k for every chunk under the new node count; any
        # chunk whose slot changes moves — typically (k-1)/k of the data
        # — in ordinal order.
        refs = list(self._ordinal)
        ordinals = np.fromiter(
            self._ordinal.values(), dtype=np.int64, count=len(refs)
        )
        order = np.argsort(ordinals, kind="stable")  # dict order: a no-op
        ids = self._ledger.ids_of(refs)[order]
        dests = np.asarray(self._nodes, dtype=np.int64)[
            ordinals[order] % len(self._nodes)
        ]
        moving = dests != self._ledger.owners(ids)
        return self._relocate_many(ids[moving], dests[moving])
