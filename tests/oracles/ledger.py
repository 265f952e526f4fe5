"""The dict-of-refs chunk ledger: the spec the array ledger must match.

Moved verbatim from ``repro.core.ledger``.  A parity test swaps it into
a *fresh* partitioner (``p._ledger = DictChunkLedger(p.nodes)`` before
the first placement) and drives both through identical op sequences.
Dict storage never fragments, so :meth:`DictChunkLedger.compact` is a
no-op with the array ledger's signature.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef

NodeId = int


class DictChunkLedger:
    """The dict-of-refs ledger (PR-1 structure), kept as parity oracle."""

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        self._assignment: Dict[ChunkRef, NodeId] = {}
        self._sizes: Dict[ChunkRef, float] = {}
        self._loads: Dict[NodeId, float] = {int(n): 0.0 for n in nodes}
        self._total: float = 0.0

    # -- nodes ---------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Register a node with zero load."""
        self._loads[int(node)] = 0.0

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` is registered."""
        return node in self._loads

    def load_of(self, node: NodeId) -> float:
        """Bytes currently assigned to ``node``."""
        return self._loads[node]

    def node_loads(self) -> Dict[NodeId, float]:
        """A copy of the ``node -> bytes`` load map."""
        return dict(self._loads)

    # -- reads ---------------------------------------------------------
    def contains(self, ref: ChunkRef) -> bool:
        """Whether ``ref`` is currently placed."""
        return ref in self._assignment

    def get_node(self, ref: ChunkRef) -> Optional[NodeId]:
        """Node holding ``ref``, or ``None`` when never placed."""
        return self._assignment.get(ref)

    def node_of(self, ref: ChunkRef) -> NodeId:
        """Node holding ``ref`` (KeyError when never placed)."""
        return self._assignment[ref]

    def size_of(self, ref: ChunkRef) -> float:
        """Recorded bytes of ``ref`` (KeyError when never placed)."""
        return self._sizes[ref]

    @property
    def chunk_count(self) -> int:
        """Number of live chunks."""
        return len(self._assignment)

    @property
    def total_bytes(self) -> float:
        """All live chunk bytes (O(1) running counter)."""
        return self._total

    def assignment(self) -> Dict[ChunkRef, NodeId]:
        """A copy of the full chunk → node map."""
        return dict(self._assignment)

    def refs_on(self, node: NodeId) -> List[ChunkRef]:
        """Refs assigned to one node (iteration order)."""
        return [r for r, n in self._assignment.items() if n == node]

    def sizes_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Bulk byte sizes of many placed refs."""
        sizes = self._sizes
        return np.fromiter(
            (sizes[r] for r in refs), dtype=np.float64, count=len(refs)
        )

    def key_column(
        self, refs: Sequence[ChunkRef], dim: int
    ) -> np.ndarray:
        """Bulk chunk-key coordinates of many refs along one dimension."""
        return np.fromiter(
            (r.key[dim] for r in refs), dtype=np.int64, count=len(refs)
        )

    # -- mutation ------------------------------------------------------
    def commit_new(
        self, ref: ChunkRef, size_bytes: float, node: NodeId
    ) -> None:
        """Record a first-time placement of ``ref`` on ``node``."""
        self._assignment[ref] = node
        self._sizes[ref] = size_bytes
        self._loads[node] += size_bytes
        self._total += size_bytes

    def merge(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        """Add bytes to an already-placed chunk; returns its node."""
        node = self._assignment[ref]
        self._sizes[ref] += size_bytes
        self._loads[node] += size_bytes
        self._total += size_bytes
        return node

    def remove(self, ref: ChunkRef) -> Tuple[NodeId, float]:
        """Drop a chunk; returns ``(node it held, its bytes)``."""
        node = self._assignment.pop(ref)
        size = self._sizes.pop(ref)
        self._loads[node] -= size
        self._total -= size
        return node, size

    def relocate(
        self, ref: ChunkRef, dest: NodeId
    ) -> Tuple[NodeId, float]:
        """Reassign a chunk to ``dest``; returns ``(source, bytes)``."""
        source = self._assignment[ref]
        size = self._sizes[ref]
        self._assignment[ref] = dest
        self._loads[source] -= size
        self._loads[dest] += size
        return source, size

    def update_size(self, ref: ChunkRef, delta_bytes: float) -> NodeId:
        """Grow/shrink a chunk's recorded bytes; returns its node."""
        node = self._assignment[ref]
        self._sizes[ref] += delta_bytes
        self._loads[node] += delta_bytes
        self._total += delta_bytes
        return node

    # -- compaction (no-ops: dicts do not fragment) --------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk slots (== live chunks for a dict)."""
        return len(self._assignment)

    @property
    def dead_slot_fraction(self) -> float:
        """Fraction of allocated slots holding no live chunk (always 0)."""
        return 0.0

    def compact(self, min_dead_fraction: float = 0.0) -> bool:
        """Dict storage never fragments; compaction is a no-op.

        Returns
        -------
        bool
            Always ``False`` (nothing to reclaim).
        """
        return False

    def commit_batch(
        self,
        first_sizes: Dict[ChunkRef, float],
        commit_nodes: Sequence[NodeId],
        merges: Sequence[Tuple[ChunkRef, float]],
    ) -> Dict[ChunkRef, NodeId]:
        """Apply a partitioned batch with C-level dict updates."""
        assignment = self._assignment
        sizes = self._sizes
        loads = self._loads
        placements: Dict[ChunkRef, NodeId] = {}
        total_delta = 0.0
        if first_sizes:
            # Build placements first: the dict-to-dict updates below
            # then reuse its stored hashes (no Python-level re-hashing).
            placements = dict(zip(first_sizes, commit_nodes))
            assignment.update(placements)
            sizes.update(first_sizes)
            for node, size in zip(commit_nodes, first_sizes.values()):
                loads[node] += size
                total_delta += size
        for ref, size_bytes in merges:
            size = float(size_bytes)
            node = assignment[ref]
            sizes[ref] += size
            loads[node] += size
            total_delta += size
            placements[ref] = node
        self._total += total_delta
        return placements
