"""Extendible Hash partitioner (paper §4.2, after Fagin et al. [19]).

A directory of ``2^g`` slots (``g`` = global depth) maps the low ``g`` bits
of a chunk's hash to a bucket; each bucket lives on one node and records a
*local depth* — how many hash bits it actually discriminates.

Scale-out is skew-aware: for each new node the partitioner finds the most
heavily burdened node (by **bytes**), picks its largest bucket, and splits
it on the next more significant hash bit.  Chunks whose new bit is set move
to a fresh bucket on the new node; everything else stays put, so the
reorganization is incremental.  Because the partitioning table is flat
(pure hash space), the scheme ignores the array's multidimensional
structure — good balance, no spatial locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.base import ElasticPartitioner, NodeId, RebalancePlan
from repro.core.hashing import hash_chunk_ref
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError

#: Hard ceiling on global depth; 2^20 directory slots is far beyond any
#: experiment in this repository and guards against runaway splitting.
MAX_GLOBAL_DEPTH = 20


@dataclass
class Bucket:
    """One hash bucket on one node; its members are the chunks whose
    ``hash`` column the directory maps to it."""

    bucket_id: int
    local_depth: int
    pattern: int  # the low `local_depth` bits shared by all members
    node: NodeId


class ExtendibleHashPartitioner(ElasticPartitioner):
    """Directory-based extendible hashing over chunk-hash space."""

    name = "extendible_hash"
    traits: PartitionerTraits = PAPER_TAXONOMY["extendible_hash"]

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        super().__init__(nodes)
        # Start with one bucket per directory slot at the smallest global
        # depth that gives every initial node at least one bucket.
        g = 0
        while (1 << g) < len(self._nodes):
            g += 1
        self._global_depth = g
        self._buckets: Dict[int, Bucket] = {}
        self._directory: List[int] = []
        self._next_bucket_id = 0
        for pattern in range(1 << g):
            bucket = self._new_bucket(
                local_depth=g,
                pattern=pattern,
                node=self._nodes[pattern % len(self._nodes)],
            )
            self._directory.append(bucket.bucket_id)

    # ------------------------------------------------------------------
    @property
    def global_depth(self) -> int:
        return self._global_depth

    @property
    def directory_size(self) -> int:
        return len(self._directory)

    def buckets(self) -> List[Bucket]:
        """All buckets (sorted by id, for inspection and tests)."""
        return [self._buckets[b] for b in sorted(self._buckets)]

    def _new_bucket(self, local_depth: int, pattern: int, node: NodeId
                    ) -> Bucket:
        bucket = Bucket(
            bucket_id=self._next_bucket_id,
            local_depth=local_depth,
            pattern=pattern,
            node=node,
        )
        self._next_bucket_id += 1
        self._buckets[bucket.bucket_id] = bucket
        return bucket

    def bucket_for(self, ref: ChunkRef) -> Bucket:
        """Directory lookup by the low ``g`` bits of the chunk hash."""
        slot = hash_chunk_ref(ref) & ((1 << self._global_depth) - 1)
        return self._buckets[self._directory[slot]]

    def _bucket_ids(self, hashes: np.ndarray) -> np.ndarray:
        """The bucket of each hash: its directory slot's."""
        mask = np.uint64((1 << self._global_depth) - 1)
        return np.asarray(self._directory, dtype=np.int64)[hashes & mask]

    def _membership(self):
        """Every live id, its hash and its bucket (one column gather)."""
        ids = self._ledger.live_ids()
        hashes = self._ledger.column_at("hash", ids).astype(np.uint64)
        return ids, hashes, self._bucket_ids(hashes)

    def bucket_bytes(self) -> Dict[int, float]:
        """Bytes per bucket id: its members' table sizes, summed."""
        ids, _, of = self._membership()
        sums = np.bincount(
            of, weights=self._ledger.sizes_at(ids),
            minlength=self._next_bucket_id,
        )
        return {b: float(sums[b]) for b in sorted(self._buckets)}

    # ------------------------------------------------------------------
    def _derive(self, split):
        """The stable-hash column of the batch's first-time chunks."""
        return {"hash": split.new_hashes()}

    def _place_split(self, split):
        """Vectorized batch placement: placement never changes the
        directory, so each new chunk's node is its bucket's."""
        nodes = {b: bucket.node for b, bucket in self._buckets.items()}
        of = self._bucket_ids(split.columns["hash"]).tolist()
        return np.fromiter(map(nodes.__getitem__, of), np.int64, len(of))

    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        plans: List[RebalancePlan] = []
        preexisting = [
            n for n in self._nodes if n not in set(new_nodes)
        ]
        for new_node in new_nodes:
            plans.append(self._split_heaviest_onto(new_node, preexisting))
            preexisting.append(new_node)
        return RebalancePlan.concat(plans)

    def _split_heaviest_onto(
        self, new_node: NodeId, candidates: Sequence[NodeId]
    ) -> RebalancePlan:
        """Split the largest bucket of the most loaded node onto a new node."""
        if not candidates:
            return RebalancePlan.empty()
        donor = self.heaviest_node(candidates)
        donor_buckets = [
            b for b in self._buckets.values() if b.node == donor
        ]
        if not donor_buckets:
            return RebalancePlan.empty()
        weight = self.bucket_bytes()
        bucket = max(
            donor_buckets, key=lambda b: (weight[b.bucket_id], -b.bucket_id)
        )

        if bucket.local_depth >= MAX_GLOBAL_DEPTH:
            raise PartitioningError(
                "extendible hash reached maximum directory depth"
            )
        # Members with the new bit set migrate, in (array, key) order.
        bit = 1 << bucket.local_depth
        ids, hashes, of = self._membership()
        ids = ids[(of == bucket.bucket_id) & (hashes & np.uint64(bit) != 0)]
        if bucket.local_depth == self._global_depth:
            # Double the directory: every slot s gains a twin s + 2^g
            # pointing at the same bucket.
            self._directory = self._directory + list(self._directory)
            self._global_depth += 1

        # Split `bucket` on bit `local_depth`: members with that bit set
        # migrate to a sibling bucket hosted by the new node.
        sibling = self._new_bucket(
            local_depth=bucket.local_depth + 1,
            pattern=bucket.pattern | bit,
            node=new_node,
        )
        bucket.local_depth += 1

        # Repoint directory slots that match the sibling's pattern.
        depth_mask = (1 << sibling.local_depth) - 1
        for slot in range(len(self._directory)):
            if (
                self._directory[slot] == bucket.bucket_id
                and (slot & depth_mask) == sibling.pattern
            ):
                self._directory[slot] = sibling.bucket_id

        return self._relocate_many(
            ids[self._ledger.key_order(ids)], new_node
        )
