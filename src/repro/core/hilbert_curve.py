"""Hilbert Curve partitioner (paper §4.2).

The chunk grid is serialized along a (pseudo-)Hilbert space-filling curve —
neighbouring chunks on the curve are close in Euclidean space — and each
node owns a contiguous *range* of curve positions.  This preserves spatial
locality (n-dimensional clustering) while partitioning at the granularity
of a single chunk, which is finer than slicing whole dimension ranges.

Scale-out targets *point skew*: the most heavily burdened node's range is
split at its **storage median** (the curve position that best halves its
bytes), and the upper half moves to the new node.  Only the split node
sends data, so the reorganization is incremental.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.arrays.sfc import RectangleHilbert
from repro.core.base import (
    ElasticPartitioner,
    NodeId,
    RebalancePlan,
    check_key_arity,
    grid_keys,
    split_keys,
)
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError, require_count


class HilbertCurvePartitioner(ElasticPartitioner):
    """Contiguous curve ranges per node, median splits on scale-out.

    Args:
        nodes: initial node ids.  The curve's index space is divided into
            equal initial ranges, one per node, in curve order.
        grid_extents: per-dimension chunk counts of the grid the curve must
            cover.  Unbounded dimensions should pass the expected horizon;
            coordinates beyond it remain valid (they fold into overflow
            epochs past the cube) so placement never fails, but balance is
            best when the declared extent covers the experiment.
    """

    name = "hilbert_curve"
    traits: PartitionerTraits = PAPER_TAXONOMY["hilbert_curve"]

    def __init__(
        self,
        nodes: Sequence[NodeId],
        grid_extents: Sequence[int],
    ) -> None:
        super().__init__(nodes)
        self._curve = RectangleHilbert([
            require_count("grid_extents", e, PartitioningError)
            for e in grid_extents
        ])
        # Ranges are encoded as sorted boundary positions: node i owns
        # [bounds[i], bounds[i+1]).  The last node's range is unbounded
        # above so overflow epochs (growing time dimension) stay owned.
        space = self._curve.index_space
        n = len(self._nodes)
        self._bounds: List[int] = [space * i // n for i in range(n)]
        self._range_nodes: List[NodeId] = list(self._nodes)
        self._bounds_fitted = n == 1  # single node never needs fitting

    # ------------------------------------------------------------------
    @property
    def curve(self) -> RectangleHilbert:
        return self._curve

    def ranges(self) -> List[Tuple[int, Optional[int], NodeId]]:
        """Current ``(start, end, node)`` curve ranges (end None = +inf)."""
        out: List[Tuple[int, Optional[int], NodeId]] = []
        for i, start in enumerate(self._bounds):
            end = (
                self._bounds[i + 1] if i + 1 < len(self._bounds) else None
            )
            out.append((start, end, self._range_nodes[i]))
        return out

    def curve_index(self, ref: ChunkRef) -> int:
        """Curve position of a chunk (key-only, so dimension-aligned
        arrays co-locate)."""
        check_key_arity(ref, self._curve.ndim)
        return self._curve.index(ref.key)

    def _positions(self, keys: Optional[np.ndarray], refs) -> np.ndarray:
        """Curve positions of ``refs`` from their key rows: one
        :meth:`RectangleHilbert.index_batch` call, int64 — or, when a
        key (``keys`` is ``None``) or a position does not fit int64, an
        object column of exact ints."""
        if keys is None:
            return np.array([self.curve_index(r) for r in refs], dtype=object)
        return self._curve.index_batch(keys)

    def _owner_of_index(self, index: int) -> NodeId:
        slot = bisect.bisect_right(self._bounds, index) - 1
        if slot < 0:
            slot = 0
        return self._range_nodes[slot]

    # ------------------------------------------------------------------
    def _derive(self, split):
        """The curve position column of the batch's first-time chunks,
        from the batch's key rows."""
        keys = split_keys(split, self._curve.ndim)
        return {"position": self._positions(keys, split.refs[split.first])}

    def _place_split(self, split):
        """Vectorized batch placement: one searchsorted for all refs.

        Every new chunk's owning range is found from its position
        (:meth:`_derive`) with a single ``np.searchsorted`` over the
        boundary table instead of a per-ref ``bisect``.
        """
        idx_arr = split.columns["position"]
        if idx_arr.dtype == object or self._bounds[-1] >= 2**63:
            # Positions beyond int64 (gigantic overflow epochs): bisect
            # per ref on exact Python ints (the bounds ascend).
            return [self._owner_of_index(i) for i in idx_arr.tolist()]
        bounds = np.asarray(self._bounds, dtype=np.int64)
        slots = np.searchsorted(bounds, idx_arr, side="right") - 1
        np.clip(slots, 0, None, out=slots)
        return np.asarray(self._range_nodes, dtype=np.int64)[slots]

    # ------------------------------------------------------------------
    def prepare_batch(self, refs, sizes, keys=None) -> None:
        """Fit the initial range bounds to the first observed batch.

        An even division of the enclosing cube's index space can leave
        initial nodes with empty ranges when the data occupies a corner
        of the cube (the rectangle is a strict subset).  The coordinator
        hands the whole first batch over before placement, so we set the
        initial boundaries at the batch's byte medians along the curve —
        no chunks exist yet, so no data moves.
        """
        if self._bounds_fitted or self._ledger.chunk_count:
            self._bounds_fitted = True
            return
        self._bounds_fitted = True
        refs = list(refs)
        if len(refs) < 2:
            return
        # Index the whole batch with the vectorized curve transform,
        # then find the byte medians with a sort + cumulative sum instead
        # of a per-item Python loop.
        ndim = self._curve.ndim
        if keys is None or keys.shape[1] != ndim:
            keys = grid_keys(refs, ndim)
        idx = self._positions(keys, refs)
        sizes = np.asarray(sizes, dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        idx_sorted = idx[order]
        running = np.cumsum(sizes[order])
        total = float(running[-1])
        n = len(self._nodes)
        bounds = [0]
        cut = 1
        # Cuts may only fall where the curve position changes; visit just
        # those boundaries.
        for i in np.nonzero(idx_sorted[1:] > idx_sorted[:-1])[0].tolist():
            if cut >= n:
                break
            if running[i] >= total * cut / n:
                bounds.append(int(idx_sorted[i + 1]))
                cut += 1
        while len(bounds) < n:
            bounds.append(bounds[-1] + 1)
        self._bounds = bounds
        self._range_nodes = list(self._nodes)

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        return RebalancePlan.concat(
            [self._split_heaviest_onto(n) for n in new_nodes]
        )

    def _split_heaviest_onto(self, new_node: NodeId) -> RebalancePlan:
        """Split the most loaded node's range at its storage median."""
        candidates = [n for n in self._nodes if n != new_node]
        donor = self.heaviest_node(candidates)
        led = self._ledger
        ids = self._ids_on(donor)
        if len(ids) < 2:
            # Nothing meaningful to split; give the new node an empty
            # range at the tail of the donor's range so later inserts can
            # land there.
            self._insert_empty_tail_range(donor, new_node)
            return RebalancePlan.empty()

        # Donor chunks in (curve position, array, key) order: a stable
        # sort of the (array, key)-ordered ids on position (exact ints
        # in an object column beyond int64).
        pos = led.column_at("position", ids)
        order = np.argsort(pos, kind="stable")
        ids, pos = ids[order], pos[order]
        # Byte prefix sums come from one ledger column gather instead of
        # a size-dict probe per chunk (storage median, §4.2): choose the
        # prefix/suffix boundary whose byte split is closest to half,
        # with both sides non-empty.
        sizes = led.sizes_at(ids)
        total = float(sizes.sum())
        running = np.cumsum(sizes[:-1])
        # A cut between i and i+1 is only valid when the curve indices
        # differ, otherwise both chunks would land in the same range.
        valid = pos[1:] != pos[:-1]
        if not valid.any():
            # All donor chunks share one curve position: cannot split.
            self._insert_empty_tail_range(donor, new_node)
            return RebalancePlan.empty()
        err = np.abs(running - (total - running))
        err[~valid] = np.inf
        best_cut = int(np.argmin(err)) + 1  # first minimum, cut order

        self._insert_boundary(donor, int(pos[best_cut]), new_node)
        return self._relocate_many(ids[best_cut:], new_node)

    # ------------------------------------------------------------------
    def _donor_slots(self, donor: NodeId) -> List[int]:
        return [
            i for i, n in enumerate(self._range_nodes) if n == donor
        ]

    def _insert_boundary(
        self, donor: NodeId, cut_index: int, new_node: NodeId
    ) -> None:
        """Give ``new_node`` the part of donor's range at/above ``cut_index``."""
        slots = self._donor_slots(donor)
        if not slots:
            raise PartitioningError(f"node {donor} owns no curve range")
        # Find the donor slot containing the cut.
        slot = None
        for s in slots:
            start = self._bounds[s]
            end = (
                self._bounds[s + 1]
                if s + 1 < len(self._bounds)
                else None
            )
            if start <= cut_index and (end is None or cut_index < end):
                slot = s
                break
        if slot is None:
            raise PartitioningError(
                f"cut {cut_index} outside every range of node {donor}"
            )
        if self._bounds[slot] == cut_index:
            # The whole slot changes hands.
            self._range_nodes[slot] = new_node
        else:
            self._bounds.insert(slot + 1, cut_index)
            self._range_nodes.insert(slot + 1, new_node)

    def _insert_empty_tail_range(
        self, donor: NodeId, new_node: NodeId
    ) -> None:
        """Degenerate split: new node gets a zero-byte tail of donor's range.

        The tail must start strictly above every donor chunk's curve
        position — a range covering existing chunks would desynchronize
        ownership from the recorded assignment.  When the donor's slot
        has no free tail, the slot is handed over only if it is entirely
        empty; otherwise — or when the donor is itself rangeless, as
        after repeated scale-outs of an empty cluster — the table is left
        unchanged (the newcomer stays rangeless until a later,
        data-bearing split).
        """
        slots = self._donor_slots(donor)
        if not slots:
            return
        slot = slots[-1]
        end = (
            self._bounds[slot + 1]
            if slot + 1 < len(self._bounds)
            else None
        )
        ids = self._ledger.ids_on(donor)
        if len(ids):
            top = max(self._ledger.column_at("position", ids).tolist()) + 1
        else:
            top = self._bounds[slot] + 1
        if end is not None and top >= end:
            if not len(ids):
                self._range_nodes[slot] = new_node
            return
        self._bounds.insert(slot + 1, top)
        self._range_nodes.insert(slot + 1, new_node)
