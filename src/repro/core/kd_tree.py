"""K-d Tree partitioner (paper §4.2, after Bentley [9]).

The partitioning table is a binary tree over chunk-grid space: leaves are
hosts, inner nodes are splitting planes.  When a machine joins, the most
heavily burdened host finds the **storage median** of its region along the
current splitting dimension — the plane with an (approximately) equal
number of bytes on either side — keeps the lower half, and ships the upper
half to the newcomer.  Splits cycle through the array's dimensions so each
plane is cut an approximately equal number of times.

Chunk lookups descend the tree in time logarithmic in the node count.  The
scheme is skew-aware and n-dimensionally clustered but coarse-grained: it
slices whole ranges of dimension space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.arrays.coords import Box
from repro.core.base import (
    ElasticPartitioner,
    NodeId,
    RebalancePlan,
    grid_keys,
)
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError, require_index


@dataclass
class KdLeaf:
    """A leaf: one host and its box of chunk-grid space."""

    node: NodeId
    box: Box
    depth: int


@dataclass
class KdInner:
    """An inner node: a splitting plane ``dim < at`` (left) / ``>= at``."""

    dim: int
    at: int
    left: "KdNode"
    right: "KdNode"


KdNode = Union[KdLeaf, KdInner]


class KdTreePartitioner(ElasticPartitioner):
    """Binary space partitioning with storage-median splits.

    Args:
        nodes: initial node ids.  The first owns the whole grid; each
            additional initial node triggers a volume split (there is no
            data yet to weigh).
        grid: the chunk-grid box the tree subdivides.  Chunks whose keys
            fall outside (unbounded dimensions growing past the declared
            horizon) still locate correctly — tree descent only compares
            coordinates against split planes.
        split_order: the dimension indices the tree cycles through when
            choosing split planes, in priority order.  Spatio-temporal
            arrays should pass the bounded (spatial) dimensions only: the
            unbounded time dimension then stays whole on every host, so
            each node serves every epoch — the paper's §6.2.2 observation
            that the skew-aware range partitioners "evenly distribute the
            time dimension".  Dimensions left out are only cut as a last
            resort when no listed dimension can be split.  Defaults to
            all dimensions in schema order.
    """

    name = "kd_tree"
    traits: PartitionerTraits = PAPER_TAXONOMY["kd_tree"]

    def __init__(
        self,
        nodes: Sequence[NodeId],
        grid: Box,
        split_order: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(nodes)
        self.grid = grid
        if split_order is None:
            split_order = tuple(range(grid.ndim))
        order = [
            require_index("split_order", d, PartitioningError)
            for d in split_order
        ]
        if len(set(order)) != len(order) or any(
            not 0 <= d < grid.ndim for d in order
        ):
            raise PartitioningError(
                f"split_order {split_order} must be distinct dimensions "
                f"in 0..{grid.ndim - 1}"
            )
        self.split_order = tuple(order)
        self._fallback_dims = tuple(
            d for d in range(grid.ndim) if d not in self.split_order
        )
        self._root: KdNode = KdLeaf(
            node=self._nodes[0], box=grid, depth=0
        )
        self._leaves: Dict[NodeId, KdLeaf] = {self._nodes[0]: self._root}
        for node in self._nodes[1:]:
            self._split_heaviest_onto(node)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def leaf_of(self, node: NodeId) -> KdLeaf:
        """The tree leaf owned by one host."""
        try:
            return self._leaves[node]
        except KeyError:
            raise PartitioningError(
                f"node {node} owns no K-d tree leaf"
            ) from None

    def locate_key(self, key: Sequence[int]) -> NodeId:
        """Descend the tree: logarithmic-time chunk lookup (paper §4.2)."""
        node = self._root
        while isinstance(node, KdInner):
            node = node.left if key[node.dim] < node.at else node.right
        return node.node

    def depth(self) -> int:
        """Height of the partitioning tree."""
        def rec(n: KdNode) -> int:
            if isinstance(n, KdLeaf):
                return 0
            return 1 + max(rec(n.left), rec(n.right))

        return rec(self._root)

    def locate_keys(self, keys: np.ndarray) -> np.ndarray:
        """Batch tree descent: owners of many keys at once.

        Instead of walking the tree once per key, whole groups of keys
        descend together — at each inner node one vectorized comparison
        splits the group across the two subtrees, so the per-key cost is
        amortized to a few numpy operations per tree level.

        Args:
            keys: ``(n, ndim)`` int array of chunk-grid coordinates.

        Returns:
            ``(n,)`` int64 array of owning node ids, equal to
            ``[locate_key(k) for k in keys]``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        owners = np.empty(n, dtype=np.int64)
        stack = [(self._root, np.arange(n))]
        while stack:
            tree_node, idxs = stack.pop()
            if idxs.size == 0:
                continue
            if isinstance(tree_node, KdLeaf):
                owners[idxs] = tree_node.node
            else:
                left = keys[idxs, tree_node.dim] < tree_node.at
                stack.append((tree_node.left, idxs[left]))
                stack.append((tree_node.right, idxs[~left]))
        return owners

    # ------------------------------------------------------------------
    def _place_split(self, split):
        """Vectorized batch placement via :meth:`locate_keys`; per-ref
        scalar descent when a key coordinate does not fit int64."""
        unknown = split.new_refs()
        keys = grid_keys(unknown, self.grid.ndim)
        if keys is None:
            return [self.locate_key(r.key) for r in unknown]
        return self.locate_keys(keys)

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        return RebalancePlan.concat(
            [self._split_heaviest_onto(n) for n in new_nodes]
        )

    # ------------------------------------------------------------------
    def _split_heaviest_onto(self, new_node: NodeId) -> RebalancePlan:
        candidates = [n for n in self._leaves if n != new_node]
        # Prefer the heaviest splittable host; fall back through the load
        # ranking when a host's box is a single grid cell.
        for donor in sorted(candidates, key=self._load_rank):
            result = self._try_split(donor, new_node)
            if result is not None:
                return result
        raise PartitioningError(
            "no host's region can be split further; grid exhausted "
            f"(grid={self.grid}, nodes={len(self._leaves) + 1})"
        )

    def _try_split(
        self, donor: NodeId, new_node: NodeId
    ) -> Optional[RebalancePlan]:
        leaf = self._leaves[donor]
        ids = self._ids_on(donor)
        coords = self._key_coords(ids)

        # Cycle the prioritized dimensions by depth; if none can be split
        # (extent 1 everywhere), fall back to the remaining dimensions
        # (the unbounded ones left out of split_order).
        k = len(self.split_order)
        candidates = [
            self.split_order[(leaf.depth + offset) % k]
            for offset in range(k)
        ]
        candidates.extend(self._fallback_dims)
        for dim in candidates:
            lo, hi = leaf.box.lo[dim], leaf.box.hi[dim]
            if hi - lo < 2:
                continue
            at = self._storage_median(ids, coords, dim, lo, hi)
            if at is None:
                continue
            return self._apply_split(leaf, dim, at, new_node, ids, coords)
        return None

    def _key_coords(self, ids: np.ndarray):
        """The int64 key rows of ``ids``, or their exact key tuples when
        a coordinate does not fit int64."""
        try:
            return self._ledger.keys_of(ids).reshape(-1, self.grid.ndim)
        except OverflowError:
            return [r.key for r in self._ledger.refs_at(ids).tolist()]

    def _storage_median(
        self,
        ids: np.ndarray,
        coords,
        dim: int,
        lo: int,
        hi: int,
    ) -> Optional[int]:
        """The split plane that best halves the donor's bytes along ``dim``.

        Returns a coordinate strictly inside ``(lo, hi)``, or ``None`` when
        the dimension cannot be split.  With no (or degenerate) data the
        midpoint is used, mirroring the paper's Figure 2 where the first
        cut lands at the dimension's midway point.
        """
        if hi - lo < 2:
            return None
        if not len(ids):
            return (lo + hi) // 2

        sizes = self._ledger.sizes_at(ids)
        if isinstance(coords, list):
            # Coordinates beyond int64 (unbounded growth): exact Python
            # ints, scalar accumulation.
            by_coord: Dict[int, float] = {}
            for key, size in zip(coords, sizes.tolist()):
                c = min(max(key[dim], lo), hi - 1)
                by_coord[c] = by_coord.get(c, 0.0) + size
            uniq = np.array(sorted(by_coord), dtype=object)
            weights = np.array(
                [by_coord[c] for c in uniq.tolist()], dtype=np.float64
            )
        else:
            # One column gather + bincount replaces the per-ref dict
            # accumulation: the split's byte histogram is a vector op.
            uniq, inverse = np.unique(
                np.clip(coords[:, dim], lo, hi - 1), return_inverse=True
            )
            weights = np.bincount(inverse, weights=sizes)
        total = float(weights.sum())
        if uniq.size < 2:
            # All bytes at one coordinate: fall back to a volume split so
            # the new node gets usable space for future inserts.
            return (lo + hi) // 2

        running = np.cumsum(weights[:-1])
        at = uniq[:-1] + 1  # planes between adjacent coordinates
        err = np.abs(running - (total - running))
        err[~((lo < at) & (at < hi))] = np.inf
        best = int(np.argmin(err))  # first minimum, in coordinate order
        if not np.isfinite(err[best]):
            return (lo + hi) // 2
        return int(at[best])

    def _apply_split(
        self,
        leaf: KdLeaf,
        dim: int,
        at: int,
        new_node: NodeId,
        ids: np.ndarray,
        coords,
    ) -> RebalancePlan:
        lower, upper = leaf.box.split(dim, at)
        donor = leaf.node
        left = KdLeaf(node=donor, box=lower, depth=leaf.depth + 1)
        right = KdLeaf(node=new_node, box=upper, depth=leaf.depth + 1)
        inner = KdInner(dim=dim, at=at, left=left, right=right)
        self._replace_leaf(leaf, inner)
        self._leaves[donor] = left
        self._leaves[new_node] = right
        # The upper half's bytes move to the newcomer; out-of-box keys
        # (unbounded growth) side with the plane comparison used by
        # locate_key so the table and the data stay consistent.
        if isinstance(coords, list):
            above = np.array([key[dim] >= at for key in coords], dtype=bool)
        else:
            above = coords[:, dim] >= at
        return self._relocate_many(ids[above], new_node)

    def _replace_leaf(self, target: KdLeaf, replacement: KdNode) -> None:
        if self._root is target:
            self._root = replacement
            return

        def rec(node: KdNode) -> bool:
            if isinstance(node, KdInner):
                if node.left is target:
                    node.left = replacement
                    return True
                if node.right is target:
                    node.right = replacement
                    return True
                return rec(node.left) or rec(node.right)
            return False

        if not rec(self._root):
            raise PartitioningError("leaf to replace not found in tree")
