"""Uniform Range partitioner (paper §4.2).

A tall, balanced binary tree subdivides the array's dimension space: with
height ``h`` the tree has ``l = 2^h`` leaves (fewer when the grid runs out
of splittable extent), each an equal-depth box of chunk-grid space, ordered
by tree traversal so consecutive leaves are spatially adjacent.

For ``n`` hosts the leaves are dealt out in **contiguous blocks of
``l / n``** in traversal order, which preserves multidimensional clustered
access without sacrificing (logical) load balance.  On scale-out the
partitioner recomputes the ``l / n`` slices for the new node count and
moves every leaf whose block owner changed — a **global** reorganization,
linear in ``l``, that may shift data between preexisting nodes.  This is
the one non-incremental scheme in the paper's lineup and the counterpoint
that motivates incremental elasticity.  It is also not skew-aware: leaves
are weighted by count, never bytes, so heavy point skew (AIS) lands many
hot chunks in one leaf block (§6.2.2: "Uniform Range is brittle to skew").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.arrays.coords import Box
from repro.core.base import (
    ElasticPartitioner,
    NodeId,
    RebalancePlan,
    grid_keys,
    split_dims_of,
)
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError, require_count

DEFAULT_HEIGHT = 8


def build_leaves(
    grid: Box,
    height: int,
    split_dims: Optional[Sequence[int]] = None,
) -> List[Box]:
    """Recursively halve ``grid`` (cycling dimensions) to depth ``height``.

    Returns the leaves in traversal order — the order that keeps
    consecutive leaves spatially adjacent.  Boxes that cannot be split in
    any allowed dimension stop early, so grids smaller than ``2^h`` cells
    yield fewer than ``2^h`` leaves.

    Args:
        split_dims: dimensions the tree may cut (default: all).  Leave
            the unbounded time dimension out for spatio-temporal arrays
            so monotone growth spreads over every leaf.
    """
    dims = split_dims_of(split_dims, grid.ndim)
    leaves: List[Box] = []

    def rec(box: Box, depth: int) -> None:
        if depth == height:
            leaves.append(box)
            return
        for offset in range(len(dims)):
            dim = dims[(depth + offset) % len(dims)]
            if box.hi[dim] - box.lo[dim] >= 2:
                lower, upper = box.halve(dim)
                rec(lower, depth + 1)
                rec(upper, depth + 1)
                return
        leaves.append(box)  # unsplittable: becomes a leaf above max depth

    rec(grid, 0)
    return leaves


class UniformRangePartitioner(ElasticPartitioner):
    """Balanced-tree leaves dealt to hosts in contiguous traversal blocks.

    Args:
        nodes: initial node ids.
        grid: chunk-grid box to subdivide.
        height: tree height ``h``; the leaf count ``l = 2^h`` should be
            much greater than the anticipated cluster size (paper §4.2).
            Higher ``h`` gives better balance at a linearly higher
            reorganization cost (see ``bench_ablation_tree_height``).
        split_dims: dimensions the tree may cut (default: all); pass the
            spatial dimensions only for spatio-temporal arrays.
    """

    name = "uniform_range"
    traits: PartitionerTraits = PAPER_TAXONOMY["uniform_range"]

    def __init__(
        self,
        nodes: Sequence[NodeId],
        grid: Box,
        height: int = DEFAULT_HEIGHT,
        split_dims: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(nodes)
        self.height = require_count("height", height, PartitioningError)
        self.grid = grid
        self.split_dims = split_dims_of(split_dims, grid.ndim)
        self._leaves = build_leaves(grid, self.height, self.split_dims)
        if len(self._leaves) < len(nodes):
            raise PartitioningError(
                f"grid yields only {len(self._leaves)} leaves for "
                f"{len(nodes)} nodes; increase height or grid size"
            )
        self._leaf_owner: List[NodeId] = self._deal(len(self._nodes))
        # Leaf-index table over the split dims, compressed to the cells
        # between cut coordinates: each leaf's box painted with its index.
        self._edges: List[List[int]] = [
            sorted({leaf.lo[d] for leaf in self._leaves})
            for d in self.split_dims
        ]
        self._leaf_table = np.empty(
            [len(edges) for edges in self._edges], dtype=np.int64
        )
        for index, leaf in enumerate(self._leaves):
            self._leaf_table[tuple(
                slice(bisect_left(edges, leaf.lo[d]),
                      bisect_left(edges, leaf.hi[d]))
                for d, edges in zip(self.split_dims, self._edges)
            )] = index

    # ------------------------------------------------------------------
    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def leaves(self) -> List[Box]:
        return list(self._leaves)

    def leaf_owners(self) -> List[NodeId]:
        return list(self._leaf_owner)

    def _deal(self, n: int) -> List[NodeId]:
        """Assign leaf ``i`` to the host owning block ``i * n // l``."""
        l = len(self._leaves)
        return [self._nodes[min(i * n // l, n - 1)] for i in range(l)]

    def leaf_index_of(self, key: Sequence[int]) -> int:
        """Index (in traversal order) of the leaf containing ``key``.

        One table lookup; keys outside the grid clamp onto its border
        cells (the first / last cut interval of each split dimension).
        """
        return int(self._leaf_table[tuple(
            max(bisect_right(edges, int(key[d])) - 1, 0)
            for d, edges in zip(self.split_dims, self._edges)
        )])

    def leaf_indices_of(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`leaf_index_of` over an ``(n, ndim)`` int64 key matrix."""
        cell = tuple(
            np.maximum(
                np.searchsorted(edges, keys[:, d], side="right") - 1, 0
            )
            for d, edges in zip(self.split_dims, self._edges)
        )
        if not cell:  # no split dims: the grid is the single leaf
            return np.zeros(len(keys), dtype=np.int64)
        return self._leaf_table[cell]

    def _owners_of(self, refs: Sequence[ChunkRef]) -> List[NodeId]:
        """Leaf owner of every ref under the current deal, in one pass."""
        if not refs:
            return []
        keys = grid_keys(refs, self.grid.ndim)
        if keys is None:  # beyond-int64 keys
            return [
                self._leaf_owner[self.leaf_index_of(r.key)] for r in refs
            ]
        owners = np.asarray(self._leaf_owner)
        return owners[self.leaf_indices_of(keys)].tolist()

    # ------------------------------------------------------------------
    def _place_split(self, split):
        """Batch placement via :meth:`leaf_indices_of`."""
        return self._owners_of(split.new_refs())

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        # Global re-slice: re-deal the leaves under the new l/n blocks and
        # move, in (array, key) order, every chunk whose block changed.
        self._leaf_owner = self._deal(len(self._nodes))
        led = self._ledger
        ids = led.live_ids()
        try:
            keys = led.keys_of(ids).reshape(-1, self.grid.ndim)
            dests = np.asarray(self._leaf_owner)[self.leaf_indices_of(keys)]
        except OverflowError:  # beyond-int64 keys
            dests = np.array(self._owners_of(led.refs_at(ids).tolist()))
        return self._reshuffle(ids, dests)
