"""Round Robin baseline partitioner (paper §6.1).

Chunks are assigned to nodes in circular order of arrival: chunk ``i`` of
``k`` nodes lives on node ``i mod k``.  Every host serves an equal number of
chunks, but the scheme is **not** designed for incremental elasticity: when
the cluster scales out, ``k`` changes and most chunks shift location — a
global reshuffle.  It is also not skew-aware (it reasons about chunk counts,
never bytes).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.base import ElasticPartitioner, NodeId, RebalancePlan
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits


class RoundRobinPartitioner(ElasticPartitioner):
    """The ``i mod k`` baseline with global reshuffles on scale-out."""

    name = "round_robin"
    traits: PartitionerTraits = PAPER_TAXONOMY["round_robin"]

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        super().__init__(nodes)
        self._counter = 0

    def _derive(self, split):
        """Arrival ordinals of the batch's new refs, assigned
        arithmetically (duplicates merge, consuming no ordinal); after
        a restart, in adoption order."""
        counter = self._counter
        self._counter = counter + len(split.first)
        return {"ordinal": np.arange(counter, self._counter, dtype=np.int64)}

    def _place_split(self, split):
        """Amortized batch placement: chunk ``i`` to node ``i mod k``."""
        ordinals = split.columns["ordinal"] % len(self._nodes)
        return np.asarray(self._nodes, dtype=np.int64)[ordinals]

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        # Recompute i mod k for every chunk under the new node count; any
        # chunk whose slot changes moves — typically (k-1)/k of the data
        # — in ordinal order.
        led = self._ledger
        ids = led.live_ids()
        ordinals = led.column_at("ordinal", ids)
        order = np.argsort(ordinals, kind="stable")
        ids = ids[order]
        dests = np.asarray(self._nodes, dtype=np.int64)[
            ordinals[order] % len(self._nodes)
        ]
        moving = dests != led.owners(ids)
        return self._relocate_many(ids[moving], dests[moving])
