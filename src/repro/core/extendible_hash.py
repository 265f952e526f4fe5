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

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.arrays.chunk import ChunkRef
from repro.core.base import ElasticPartitioner, Move, NodeId
from repro.core.hashing import hash_chunk_ref
from repro.core.traits import PAPER_TAXONOMY, PartitionerTraits
from repro.errors import PartitioningError

#: Hard ceiling on global depth; 2^20 directory slots is far beyond any
#: experiment in this repository and guards against runaway splitting.
MAX_GLOBAL_DEPTH = 20


@dataclass
class Bucket:
    """One hash bucket: a node assignment plus membership bookkeeping."""

    bucket_id: int
    local_depth: int
    pattern: int  # the low `local_depth` bits shared by all members
    node: NodeId
    members: Set[ChunkRef] = field(default_factory=set)
    bytes: float = 0.0


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

    # ------------------------------------------------------------------
    def _place_new(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        bucket = self.bucket_for(ref)
        bucket.members.add(ref)
        bucket.bytes += size_bytes
        return bucket.node

    # Keep the invariant ``bucket.bytes == sum of member ledger sizes``:
    # scale-out splits and :meth:`remove` subtract full ledger sizes, so
    # merges and size updates must credit the bucket too.
    def _merge_existing(self, ref, size_bytes, node):
        self.bucket_for(ref).bytes += size_bytes
        return super()._merge_existing(ref, size_bytes, node)

    def update_size(self, ref: ChunkRef, delta_bytes: float) -> None:
        super().update_size(ref, delta_bytes)
        self.bucket_for(ref).bytes += delta_bytes

    def place_batch(self, refs_and_sizes):
        """Amortized batch placement.

        Placement never changes the directory, so the depth mask and
        the directory/bucket tables are hoisted out of the loop and
        each new chunk pays one hash + two array lookups instead of the
        full ``place`` → ``bucket_for`` dispatch chain.  Equivalent to
        sequential :meth:`place` calls per the base class's batch
        contract.
        """
        first_sizes, merges = self._partition_batch(list(refs_and_sizes))
        commit_nodes: List[NodeId] = []
        mask = (1 << self._global_depth) - 1
        directory = self._directory
        buckets = self._buckets
        for ref, size in first_sizes.items():
            bucket = buckets[directory[hash_chunk_ref(ref) & mask]]
            bucket.members.add(ref)
            bucket.bytes += size
            commit_nodes.append(bucket.node)
        # Merges credit their bucket too (bucket.bytes mirrors the
        # ledger), matching the scalar path's _merge_existing override.
        for ref, size in merges:
            buckets[directory[hash_chunk_ref(ref) & mask]].bytes += \
                float(size)
        return self._commit_batch(first_sizes, commit_nodes, merges)

    def _forget(self, ref, size_bytes, node) -> None:
        bucket = self.bucket_for(ref)
        bucket.members.discard(ref)
        bucket.bytes -= size_bytes

    def _adopt_batch(self, entries) -> None:
        # Rebuild bucket membership so ``bucket.bytes == sum of member
        # ledger sizes`` holds for adopted chunks (removes and merges
        # debit/credit buckets).  The directory itself restarts at its
        # initial depth — bucket→node history is not persisted.
        for ref, size, _node in entries:
            bucket = self.bucket_for(ref)
            bucket.members.add(ref)
            bucket.bytes += float(size)

    def _extend(self, new_nodes: Sequence[NodeId]) -> List[Move]:
        moves: List[Move] = []
        preexisting = [
            n for n in self._nodes if n not in set(new_nodes)
        ]
        for new_node in new_nodes:
            split_moves = self._split_heaviest_onto(new_node, preexisting)
            moves.extend(split_moves)
            preexisting.append(new_node)
        return moves

    def _split_heaviest_onto(
        self, new_node: NodeId, candidates: Sequence[NodeId]
    ) -> List[Move]:
        """Split the largest bucket of the most loaded node onto a new node."""
        if not candidates:
            return []
        donor = self.heaviest_node(candidates)
        donor_buckets = [
            b for b in self._buckets.values() if b.node == donor
        ]
        if not donor_buckets:
            return []
        bucket = max(
            donor_buckets, key=lambda b: (b.bytes, -b.bucket_id)
        )

        if bucket.local_depth >= MAX_GLOBAL_DEPTH:
            raise PartitioningError(
                "extendible hash reached maximum directory depth"
            )
        if bucket.local_depth == self._global_depth:
            # Double the directory: every slot s gains a twin s + 2^g
            # pointing at the same bucket.
            self._directory = self._directory + list(self._directory)
            self._global_depth += 1

        # Split `bucket` on bit `local_depth`: members with that bit set
        # migrate to a sibling bucket hosted by the new node.
        bit = 1 << bucket.local_depth
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

        moves: List[Move] = []
        migrating = sorted(
            (
                ref for ref in bucket.members
                if hash_chunk_ref(ref) & bit
            ),
            key=lambda r: (r.array, r.key),
        )
        for ref in migrating:
            size = self._ledger.size_of(ref)
            bucket.members.discard(ref)
            bucket.bytes -= size
            sibling.members.add(ref)
            sibling.bytes += size
            moves.append(self._relocate(ref, new_node))
        return moves
