"""The per-chunk Incremental Quadtree split: the spec the masked one matches.

Moved verbatim from ``repro.core.quadtree``: one clamped ``Box.contains``
scan per donor chunk to tally bytes per child cell, then one more per
chunk to pick the chunks the new host receives.
``tests/test_range_partitioners.py`` swaps :func:`try_split_scalar` in
for :meth:`IncrementalQuadtreePartitioner._try_split` through the
``oracles`` fixture and compares the rebalance plans move for move.
The chosen chunks move one :func:`tests.oracles.rebalance.relocate_scalar`
at a time, and their moves become the split's column plan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.arrays.chunk import ChunkRef
from repro.arrays.coords import Box
from repro.core.base import NodeId, RebalancePlan

from tests.oracles.rebalance import Move, relocate_scalar


def try_split_scalar(
    self, donor: NodeId, new_node: NodeId
) -> Optional[RebalancePlan]:
    """``IncrementalQuadtreePartitioner._try_split``, one chunk at a time."""
    cells = self._cells[donor]
    donor_chunks = self.chunks_on(donor)

    if len(cells) == 1:
        children = self._orthants(cells[0])
        if len(children) == 1:
            return None  # single grid cell: unsplittable
    else:
        children = list(cells)

    cell_bytes = _bytes_per_cell(self, children, donor_chunks)
    total = sum(cell_bytes)
    subset = self._best_subset(children, cell_bytes, total)
    if subset is None:
        return None

    keep = [children[i] for i in range(len(children)) if i not in subset]
    give = [children[i] for i in sorted(subset)]
    if not keep:
        return None  # never strip a host of its entire partition
    self._cells[donor] = keep
    self._cells[new_node] = give

    moves = []
    for ref in donor_chunks:
        clamped = self._clamp(ref.key)
        if any(box.contains(clamped) for box in give):
            moves.append(relocate_scalar(self, ref, new_node))
    return Move.plan(moves)


def _bytes_per_cell(
    self, cells: Sequence[Box], chunks: Sequence[ChunkRef]
) -> List[float]:
    sizes = [0.0] * len(cells)
    for ref in chunks:
        clamped = self._clamp(ref.key)
        for i, box in enumerate(cells):
            if box.contains(clamped):
                sizes[i] += self._ledger.size_of(ref)
                break
    return sizes
