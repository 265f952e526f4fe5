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

from typing import Sequence, Tuple

import numpy as np

from repro.core.base import ElasticPartitioner, NodeId, RebalancePlan
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError, require_positive


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
        self.node_capacity_bytes = require_positive(
            "node_capacity_bytes", node_capacity_bytes, PartitioningError
        )
        self._cursor = 0

    @property
    def cursor_node(self) -> NodeId:
        """The node currently receiving new chunks."""
        return self._nodes[self._cursor]

    def _place_split(self, split):
        """Batch placement by a fill walk over the nodes, not the chunks.

        For each node the cursor crosses, one ``np.cumsum`` replays the
        batch-ordered bytes that land on it, starting from its load:
        ``cumsum`` adds left to right like the ledger's ``+=``, so the
        first prefix over capacity marks the same crossing chunk, bit
        for bit, as a per-chunk walk that advances the cursor past every
        node the next chunk would overflow.  Merges count where they
        land: a known ref onto its node, a duplicate onto the node its
        first occurrence took.
        """
        fill = self._fill_positions(
            split.sizes[split.first], self._merge_events(split)
        )
        return np.asarray(self._nodes, dtype=np.int64)[fill]

    def _merge_events(
        self, split
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where each merge sits in the batch and whose bytes it grows.

        Returns ``(offset, first, target, size)`` arrays over the merges
        in batch order: ``offset`` counts the first-time refs before the
        merge; a duplicate of the batch's ``j``-th first-time ref has
        ``first = j`` and ``target = -1``; a known ref has ``first = -1``
        and ``target`` = its node's position in the fill order.
        """
        merges = split.merges
        offset = np.searchsorted(split.first, merges)
        known = split.known[merges]
        first = np.searchsorted(split.first, split.origin[merges])
        first[known] = -1
        target = np.full(len(merges), -1, dtype=np.int64)
        if known.any():
            position = {n: i for i, n in enumerate(self._nodes)}
            # every known item is a merge: ``found`` is theirs, in order
            target[known] = [
                position[n]
                for n in self._ledger.owners(split.found).tolist()
            ]
        return offset, first, target, split.sizes[merges]

    def _fill_positions(
        self,
        sizes: np.ndarray,
        merge_events: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Fill-order position of each first-time ref; advances the cursor.

        The batch becomes one event stream in batch order: first-time
        refs, with each merge slotted in before the first-time ref that
        follows it.  Entering node ``c`` at first-time ref ``i``, the
        node's load takes the known-ref merges onto it that precede
        ``i``.  From there, the bytes that grow ``c`` are every
        first-time ref, the known-ref merges onto ``c``, and the
        duplicates of first-time refs from ``i`` on: a duplicate before
        the crossing repeats a ref placed on ``c``, and one after it
        cannot move the crossing.  Every other event adds ``0.0``, which
        leaves a float sum unchanged.
        """
        offset, first, target, msize = merge_events
        m, k = len(sizes), len(offset)
        # Event stream: merge t sits at offset[t] + t, first-time ref j
        # after the merges whose offset is <= j.
        is_new = np.ones(m + k, dtype=bool)
        is_new[offset + np.arange(k)] = False
        ev_size = np.empty(m + k, dtype=np.float64)
        ev_size[is_new] = sizes
        ev_size[~is_new] = msize
        ev_ref = np.full(m + k, -1, dtype=np.int64)  # first-time ref index
        ev_ref[is_new] = np.arange(m)
        ev_first = np.full(m + k, -1, dtype=np.int64)
        ev_first[~is_new] = first
        ev_target = np.full(m + k, -1, dtype=np.int64)
        ev_target[~is_new] = target
        new_at = np.flatnonzero(is_new)

        cap = self.node_capacity_bytes
        last = len(self._nodes) - 1
        fill = np.empty(m, dtype=np.int64)
        c, i = self._cursor, 0
        while i < m and c < last:
            load = self._ledger.load_of(self._nodes[c])
            for t in np.flatnonzero((target == c) & (offset <= i)):
                load += float(msize[t])
            p = new_at[i]
            grows = (
                is_new[p:] | (ev_target[p:] == c) | (ev_first[p:] >= i)
            )
            running = np.cumsum(np.concatenate(
                ([load], np.where(grows, ev_size[p:], 0.0))
            ))
            over = np.flatnonzero(is_new[p:] & (running[1:] > cap))
            stop = m if not over.size else int(ev_ref[p + over[0]])
            fill[i:stop] = c
            i = stop
            if i < m:
                c += 1
        fill[i:] = c
        self._cursor = c
        return fill

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        # New nodes joined the back of the fill order (the base class
        # appended them to self._nodes); no data moves — this is the
        # constant-time scale-out the paper highlights.
        return RebalancePlan.empty()
