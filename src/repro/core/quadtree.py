"""Incremental Quadtree partitioner (paper §4.2, after Finkel & Bentley [20]).

A classic quadtree assigns one host per leaf, which breaks incremental
scale-out: splitting a full host would scatter its data over four nodes,
three of them new.  The paper's *Incremental* Quadtree instead lets a host
own one or more orthant cells and splits them gradually:

* If the splitting host owns a **single** cell, the cell is quartered
  (2^k orthants for k splittable dimensions) and the quarter — or pair of
  *face-adjacent* quarters — whose summed bytes come closest to **half** of
  the host's storage becomes the new host's partition.
* If the host was **already quartered**, the cell or face-adjacent pair of
  cells closest to halving the storage moves instead (no further
  subdivision), which keeps each host's partition at exactly one level of
  the tree and contiguous in array space.

The scheme is incremental (only the split host sends data), skew-aware (it
always splits the most loaded host, weighing bytes), and n-dimensionally
clustered (cells are boxes of chunk-grid space).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.arrays.coords import Box, region_mask
from repro.core.base import (
    ElasticPartitioner,
    NodeId,
    RebalancePlan,
    grid_keys,
    split_dims_of,
)
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError


class IncrementalQuadtreePartitioner(ElasticPartitioner):
    """Orthant-cell ownership with adjacent-quarter regrouping.

    Args:
        nodes: initial node ids.  The first owns the whole grid; each
            additional initial node triggers a (volume-weighted) split.
        grid: the chunk-grid box being subdivided.  Keys outside the grid
            (unbounded dimensions) are clamped onto its boundary cells for
            ownership decisions, so placement never fails.
        split_dims: the dimensions whose planes the quadtree quarters.
            A spatio-temporal array should pass its *spatial* dimensions
            (the classic quadtree subdivides 2-d space, paper §4.2); the
            unbounded time dimension then rides along inside each cell,
            so monotone growth fills every host instead of only the
            latest-time owner.  Defaults to all dimensions.
        allow_pairs: when True (the paper's algorithm) a split may hand a
            *pair* of face-adjacent quarters to the new host, targeting
            half the donor's bytes; when False only single quarters move
            (the naive variant the ``bench_ablation_quadtree_split``
            benchmark compares against).
    """

    name = "incremental_quadtree"
    traits: PartitionerTraits = PAPER_TAXONOMY["incremental_quadtree"]

    def __init__(
        self,
        nodes: Sequence[NodeId],
        grid: Box,
        split_dims: Optional[Sequence[int]] = None,
        allow_pairs: bool = True,
    ) -> None:
        super().__init__(nodes)
        self.grid = grid
        self.allow_pairs = bool(allow_pairs)
        self.split_dims = split_dims_of(split_dims, grid.ndim)
        if not self.split_dims:
            raise PartitioningError(
                f"split_dims {split_dims} invalid for a {grid.ndim}-d grid"
            )
        self._cells: Dict[NodeId, List[Box]] = {self._nodes[0]: [grid]}
        for node in self._nodes[1:]:
            self._split_heaviest_onto(node)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def cells_of(self, node: NodeId) -> List[Box]:
        """The orthant cells one host currently owns."""
        try:
            return list(self._cells[node])
        except KeyError:
            raise PartitioningError(
                f"node {node} owns no quadtree cells"
            ) from None

    def all_cells(self) -> List[Tuple[Box, NodeId]]:
        """Every (cell, owner) pair — the full partitioning table."""
        out = []
        for node in sorted(self._cells):
            for box in self._cells[node]:
                out.append((box, node))
        return out

    def _clamp(self, key: Sequence[int]) -> Tuple[int, ...]:
        return tuple(
            min(max(int(k), lo), hi - 1)
            for k, lo, hi in zip(key, self.grid.lo, self.grid.hi)
        )

    def _clamped_keys(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """``(n, ndim)`` keys of ``refs`` clamped onto the grid."""
        keys = grid_keys(refs, self.grid.ndim)
        if keys is None:  # beyond int64: clamp the exact ints first
            keys = np.array(
                [self._clamp(r.key) for r in refs], dtype=np.int64
            )
        return self._clip(keys)

    def _clip(self, keys: np.ndarray) -> np.ndarray:
        return np.clip(
            keys, self.grid.lo, np.asarray(self.grid.hi) - 1
        )

    def locate_keys(self, keys: np.ndarray) -> np.ndarray:
        """Owners of many keys at once: each row's cell owner.

        Clamps the ``(n, ndim)`` int64 key array onto the grid, then
        paints owners with one box mask per cell of :meth:`all_cells`.
        The cells tile the grid, so each key matches exactly one cell.
        """
        table = self.all_cells()
        cell = cell_index(
            [box for box, _ in table], self._clip(np.asarray(keys))
        )
        if (cell < 0).any():
            raise PartitioningError("quadtree cells do not tile the grid")
        return np.asarray([node for _, node in table], dtype=np.int64)[
            cell
        ]

    # ------------------------------------------------------------------
    def _place_split(self, split):
        """Batch placement via :meth:`locate_keys`."""
        return self.locate_keys(self._clamped_keys(split.new_refs()))

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        return RebalancePlan.concat(
            [self._split_heaviest_onto(n) for n in new_nodes]
        )

    # ------------------------------------------------------------------
    def _split_heaviest_onto(self, new_node: NodeId) -> RebalancePlan:
        candidates = [n for n in self._cells if n != new_node]
        for donor in sorted(candidates, key=self._load_rank):
            result = self._try_split(donor, new_node)
            if result is not None:
                return result
        raise PartitioningError(
            "no host's cells can be split further; grid exhausted"
        )

    def _try_split(
        self, donor: NodeId, new_node: NodeId
    ) -> Optional[RebalancePlan]:
        cells = self._cells[donor]
        ids = self._ids_on(donor)

        if len(cells) == 1:
            children = self._orthants(cells[0])
            if len(children) == 1:
                return None  # single grid cell: unsplittable
        else:
            children = list(cells)

        # One cell index per donor chunk: bincount adds the bytes in
        # chunk order, as a per-chunk += would.
        cell = cell_index(children, self._clamped_keys_at(ids))
        held = cell >= 0
        cell_bytes = np.bincount(
            cell[held],
            weights=self._ledger.sizes_at(ids)[held],
            minlength=len(children),
        ).tolist()
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
        return self._relocate_many(ids[np.isin(cell, subset)], new_node)

    def _clamped_keys_at(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`_clamped_keys` of the chunks with table ids ``ids``."""
        try:
            return self._clip(
                self._ledger.keys_of(ids).reshape(-1, self.grid.ndim)
            )
        except OverflowError:  # beyond int64
            return self._clamped_keys(self._ledger.refs_at(ids).tolist())

    def _orthants(self, box: Box) -> List[Box]:
        """Quarter a cell along the configured split dimensions only."""
        children = [box]
        for dim in self.split_dims:
            nxt: List[Box] = []
            for b in children:
                if b.hi[dim] - b.lo[dim] >= 2:
                    nxt.extend(b.halve(dim))
                else:
                    nxt.append(b)
            children = nxt
        return children

    def _best_subset(
        self,
        cells: Sequence[Box],
        cell_bytes: Sequence[float],
        total: float,
    ) -> Optional[Tuple[int, ...]]:
        """The single cell or face-adjacent pair closest to half the bytes.

        When the donor holds no data (total == 0) the tie-break is cell
        *volume*, so initial configurations still spread array space
        sensibly.
        """
        if len(cells) < 2:
            return None
        half = total / 2.0

        candidates: List[Tuple[int, ...]] = [(i,) for i in range(len(cells))]
        if self.allow_pairs:
            for i, j in combinations(range(len(cells)), 2):
                if len(cells) - 2 < 1:
                    continue  # a pair may not take the donor's whole estate
                if cells[i].face_adjacent(cells[j]):
                    candidates.append((i, j))

        def score(subset: Tuple[int, ...]) -> Tuple[float, float, int]:
            got = sum(cell_bytes[i] for i in subset)
            vol = sum(cells[i].volume for i in subset)
            vol_half = sum(c.volume for c in cells) / 2.0
            return (
                abs(got - half),
                abs(vol - vol_half),
                len(subset),
            )

        return min(candidates, key=lambda s: (score(s), s))


def cell_index(cells: Sequence[Box], keys: np.ndarray) -> np.ndarray:
    """Index of the cell holding each key row, ``-1`` where none does.

    One box mask per cell; the cells are disjoint, so a key matches at
    most one.
    """
    cell = np.full(len(keys), -1, dtype=np.intp)
    for i, box in enumerate(cells):
        cell[region_mask(keys, box)] = i
    return cell
