"""Per-chunk partitioner paths: the specs the batch paths match.

Sequential placement, moved from ``repro.core.base`` and the eight
schemes once every insert went through ``place_batch``:
:func:`place_scalar` is ``ElasticPartitioner.place``, and ``_PLACE_NEW``
holds each scheme's ``_place_new`` rule for a chunk seen for the first
time, which also derives the chunk's scheme column (an arrival ordinal,
a stable hash, a curve position) one chunk at a time.  A known ref
merges its bytes onto its current node.  Either way the table takes the
chunk through its one-row ``commit_batch``.
``tests/test_batch_parity.py`` compares ``place_batch`` against a loop
of :func:`place_scalar` for every scheme.

The per-chunk Incremental Quadtree split, moved from
``repro.core.quadtree``: one clamped ``Box.contains`` scan per donor
chunk to tally bytes per child cell, then one more per chunk to pick the
chunks the new host receives.  ``tests/test_range_partitioners.py``
swaps :func:`try_split_scalar` in for
:meth:`IncrementalQuadtreePartitioner._try_split` through the
``oracles`` fixture and compares the rebalance plans move for move.
The chosen chunks move one :func:`tests.oracles.rebalance.relocate_scalar`
at a time, and their moves become the split's column plan.
:func:`locate_key_scalar` is the quadtree's cell lookup for one key.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.arrays.coords import Box
from repro.core.base import (
    ElasticPartitioner,
    NodeId,
    RebalancePlan,
    check_key_arity,
)
from repro.core.hashing import hash_chunk_ref
from repro.errors import PartitioningError

from tests.oracles.rebalance import Move, relocate_scalar


def place_scalar(
    p: ElasticPartitioner, ref: ChunkRef, size_bytes: float
) -> NodeId:
    """Assign a chunk to a node and record its bytes.

    Placing an already-known chunk models a merge into an existing
    physical chunk: the bytes are added on its current node and no
    relocation happens (SciDB's no-overwrite store appends, it never
    rewrites).

    Returns:
        The node id that received the chunk.
    """
    if not 0.0 <= size_bytes < math.inf:
        raise PartitioningError(
            f"invalid chunk size {size_bytes} for {ref}"
        )
    split = p._partition_batch([ref], [size_bytes])
    existing = p._ledger.node_of(ref) if p._ledger.contains(ref) else None
    if existing is not None:
        p._commit_batch(split, np.empty(0, dtype=np.int64))
        return existing
    node = _PLACE_NEW[p.name](p, split, ref, float(size_bytes))
    p._commit_batch(split, np.array([node], dtype=np.int64))
    return node


def _append(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    # Advance past full nodes; stop at the last node regardless.
    while (
        p._cursor < len(p._nodes) - 1
        and p._ledger.load_of(p._nodes[p._cursor]) + size_bytes
        > p.node_capacity_bytes
    ):
        p._cursor += 1
    return p._nodes[p._cursor]


def _round_robin(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    ordinal = p._counter
    p._counter += 1
    split.columns["ordinal"] = np.array([ordinal], dtype=np.int64)
    return p._nodes[ordinal % len(p._nodes)]


def _consistent_hash(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    """Ring lookup: first node clockwise from the chunk's position."""
    if not p._ring:
        raise PartitioningError("empty hash ring")
    h = hash_chunk_ref(ref)
    split.columns["hash"] = np.array([h], dtype=np.uint64)
    idx = bisect.bisect_right(p._ring, (h, float("inf")))
    if idx == len(p._ring):
        idx = 0  # wrap around the circle
    return p._ring[idx][1]


def _extendible_hash(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    split.columns["hash"] = np.array([hash_chunk_ref(ref)], dtype=np.uint64)
    return p.bucket_for(ref).node


def _uniform_range(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    check_key_arity(ref, p.grid.ndim)
    return p._leaf_owner[p.leaf_index_of(ref.key)]


def _hilbert_curve(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    position = p.curve_index(ref)
    try:
        split.columns["position"] = np.array([position], dtype=np.int64)
    except OverflowError:
        split.columns["position"] = np.array([position], dtype=object)
    return p._owner_of_index(position)


def _kd_tree(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    check_key_arity(ref, p.grid.ndim)
    return p.locate_key(ref.key)


def _incremental_quadtree(p, split, ref: ChunkRef, size_bytes: float) -> NodeId:
    check_key_arity(ref, p.grid.ndim)
    return locate_key_scalar(p, ref.key)


#: Each scheme's choice of node for a chunk seen for the first time.
_PLACE_NEW: Dict[str, Callable[..., NodeId]] = {
    "append": _append,
    "round_robin": _round_robin,
    "consistent_hash": _consistent_hash,
    "extendible_hash": _extendible_hash,
    "uniform_range": _uniform_range,
    "hilbert_curve": _hilbert_curve,
    "kd_tree": _kd_tree,
    "incremental_quadtree": _incremental_quadtree,
}


def locate_key_scalar(self, key: Sequence[int]) -> NodeId:
    """``IncrementalQuadtreePartitioner.locate_key``: the owner of the
    cell containing (the clamped) ``key``."""
    clamped = self._clamp(key)
    for node in sorted(self._cells):
        for box in self._cells[node]:
            if box.contains(clamped):
                return node
    raise PartitioningError(
        f"quadtree cells do not tile the grid (key {key})"
    )


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
