"""The dict-of-refs chunk ledger: the spec the array ledger must match.

Moved verbatim from ``repro.core.ledger``.  A parity test swaps it into
a *fresh* partitioner (``p._ledger = DictChunkLedger(p.nodes)`` before
the first placement) and drives both through identical op sequences.
Dict storage never fragments, so :meth:`DictChunkLedger.compact` is a
no-op with the array ledger's signature.  A dict ledger has no table
ids: its id-column reads (``ids_of`` / ``live_ids`` / ``owners`` / ...)
take and return object arrays of the refs themselves, so a scheme's
rebalance runs on it unchanged, and :meth:`DictChunkLedger.relocate_many`
replays a call one :meth:`DictChunkLedger.relocate` at a time.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.ledger import BatchSplit
from repro.errors import PartitioningError

NodeId = int


def _column(refs) -> np.ndarray:
    """Refs as a 1-d object array (the dict ledger's "ids")."""
    out = np.empty(len(refs), dtype=object)
    out[:] = list(refs)
    return out


class DictChunkLedger:
    """The dict-of-refs ledger (PR-1 structure), kept as parity oracle."""

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        self._assignment: Dict[ChunkRef, NodeId] = {}
        self._sizes: Dict[ChunkRef, float] = {}
        self._loads: Dict[NodeId, float] = {int(n): 0.0 for n in nodes}
        self._total: float = 0.0
        # scheme columns: name -> ({ref: value}, dtype)
        self._columns: Dict[str, Tuple[Dict[ChunkRef, object], np.dtype]] = {}

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

    def split_batch(self, refs, sizes, keys=None, arrays=None) -> BatchSplit:
        """The :class:`BatchSplit` of a ref column, by a per-item walk
        (a known item's "id" is its ref)."""
        seen: Dict[ChunkRef, int] = {}
        origin = [seen.setdefault(r, i) for i, r in enumerate(refs)]
        known = [r in self._assignment for r in refs]
        first = [i for i, o in enumerate(origin) if o == i and not known[i]]
        merges = sorted(set(range(len(refs))) - set(first))
        known = np.asarray(known, dtype=bool)
        names = list(dict.fromkeys(r.array for r in refs))
        codes = np.array([names.index(r.array) for r in refs], np.int64)
        return BatchSplit(
            refs, sizes, keys, np.asarray(origin, dtype=np.int64), known,
            np.asarray(first, dtype=np.int64),
            np.asarray(merges, dtype=np.int64), _column(refs[known]),
            codes, names,
        )

    def column_at(self, name: str, ids: np.ndarray) -> np.ndarray:
        """A scheme column's values of every ref."""
        values, dtype = self._columns.get(name) or ({}, np.int64)
        return np.array([values[r] for r in ids], dtype=dtype)

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

    def ids_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """The "ids" of placed refs: the refs (KeyError on an unknown one)."""
        for ref in refs:
            self._assignment[ref]
        return _column(refs)

    def live_ids(self) -> np.ndarray:
        """Every placed ref."""
        return _column(self._assignment)

    def ids_on(self, node: NodeId) -> np.ndarray:
        """The refs assigned to one node (iteration order)."""
        return _column([r for r, n in self._assignment.items() if n == node])

    def refs_at(self, ids: np.ndarray) -> np.ndarray:
        """The refs of ids (they are the refs)."""
        return ids

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Node of every ref."""
        return np.array(
            [self._assignment[r] for r in ids], dtype=np.int64
        )

    def sizes_at(self, ids: np.ndarray) -> np.ndarray:
        """Recorded bytes of every ref."""
        sizes = self._sizes
        return np.fromiter(
            (sizes[r] for r in ids), dtype=np.float64, count=len(ids)
        )

    def keys_of(self, ids: np.ndarray) -> np.ndarray:
        """Chunk keys of every ref as ``(n, ndim)`` int64 rows."""
        return np.array([r.key for r in ids], dtype=np.int64)

    def key_order(self, ids: np.ndarray) -> np.ndarray:
        """The permutation sorting the refs by ``(array, key)``."""
        return np.array(
            sorted(
                range(len(ids)),
                key=lambda i: (ids[i].array, ids[i].key),
            ),
            dtype=np.int64,
        )

    # -- mutation ------------------------------------------------------
    def remove(self, ref: ChunkRef) -> Tuple[NodeId, float]:
        """Drop a chunk; returns ``(node it held, its bytes)``."""
        node = self._assignment.pop(ref)
        size = self._sizes.pop(ref)
        for values, _ in self._columns.values():
            del values[ref]
        self._loads[node] -= size
        self._total -= size
        self._settle_empty()
        return node, size

    def remove_ids(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One :meth:`remove` per ref (each at most once); returns the
        owners and sizes."""
        if len(set(ids)) < len(ids):
            raise PartitioningError("a chunk removed twice in one call")
        for ref in ids:
            self._assignment[ref]  # KeyError before anything is removed
        done = [self.remove(ref) for ref in ids]
        return (
            np.array([n for n, _ in done], dtype=np.int64),
            np.array([s for _, s in done], dtype=np.float64),
        )

    def relocate_many(self, ids: np.ndarray, dests: np.ndarray) -> None:
        """One :meth:`relocate` per chunk (each at most once)."""
        if len(set(ids)) < len(ids):
            raise PartitioningError("a chunk relocated twice in one call")
        for ref, dest in zip(ids, dests.tolist()):
            self.relocate(ref, dest)
        self._settle_empty()

    def _settle_empty(self) -> None:
        """An empty node (or ledger) holds exactly ``0.0`` bytes."""
        held = set(self._assignment.values())
        for node in self._loads:
            if node not in held:
                self._loads[node] = 0.0
        if not self._assignment:
            self._total = 0.0

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

    def commit_batch(self, split, nodes: np.ndarray) -> np.ndarray:
        """Apply a split batch with C-level dict updates; each item's
        "id" is its ref."""
        assignment = self._assignment
        sizes = self._sizes
        loads = self._loads
        total_delta = 0.0
        first_refs = split.refs[split.first].tolist()
        first_sizes = split.sizes[split.first].tolist()
        commit_nodes = np.asarray(nodes).tolist()
        for name, values in split.columns.items():
            column, _ = self._columns.setdefault(name, ({}, values.dtype))
            if values.dtype == object:
                self._columns[name] = (column, values.dtype)
            column.update(zip(first_refs, values.tolist()))
        if first_refs:
            assignment.update(zip(first_refs, commit_nodes))
            sizes.update(zip(first_refs, first_sizes))
            for node, size in zip(commit_nodes, first_sizes):
                loads[node] += size
                total_delta += size
        for ref, size in zip(
            split.refs[split.merges].tolist(),
            split.sizes[split.merges].tolist(),
        ):
            node = assignment[ref]
            sizes[ref] += size
            loads[node] += size
            total_delta += size
        self._total += total_delta
        return split.refs
