"""The chunk table: the one ``ChunkRef -> id`` intern table of a cluster.

The table answers "which node should hold this chunk and how big is it"
and maintains the per-node byte loads plus the running total.
:class:`ArrayChunkLedger` interns every :class:`ChunkRef` to a dense
integer id and keeps the per-chunk state in parallel numpy columns —
the ref, bytes, the **planned** owning node, and (when all refs share
one arity) the chunk-key coordinates.  Batch commits, merges, and
rebalance reads then become vector operations over those columns
instead of per-ref dict traffic through Python-level ``__hash__``.

The partitioner creates and writes the table (partitioners also run
without a cluster); in a cluster the chunk catalog
(:class:`repro.core.catalog.ChunkCatalog`) publishes from the same
object, adding a **published** owner column that equals the planned one
at quiescence (``docs/invariants.md``, "The chunk id lifecycle").

Its specification is the dict-of-refs ledger in
``tests/oracles/ledger.py``: ``tests/test_ledger.py`` drives both
through identical op sequences on every registered scheme.

Compaction
----------
Removed chunks leave their dense ids on a free list; under insert/expire
churn the columns therefore hold more slots than live chunks.
:meth:`ArrayChunkLedger.compact` re-interns the live refs into fresh,
exactly-sized columns once the dead-slot ratio crosses a configurable
threshold, bounding index memory over long churn-heavy runs.  A
published table compacts once, inside the catalog's write window
(:meth:`repro.core.catalog.ChunkCatalog.compact`); the cluster triggers
it from its reorganization cycle (``tests/test_ledger_compaction.py``).

Float semantics
---------------
Per-chunk sizes are stored and merged in batch order, so they stay
bit-identical to the dict reference.  Per-node loads and the running
total accumulate the same bytes but may reassociate the additions
(vectorized reductions), so they agree only up to float ulps — the same
contract `place_batch` already documents.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef

NodeId = int


def resize_column(rows: np.ndarray, capacity: int, fill) -> np.ndarray:
    """A fresh ``capacity``-row column: ``rows`` first, then ``fill``.

    Growth passes a whole column; compaction passes the live ids'
    gathered rows (``column[ids]``), which lands them at the front.
    """
    out = np.full((capacity,) + rows.shape[1:], fill, dtype=rows.dtype)
    out[: len(rows)] = rows
    return out


class ArrayChunkLedger:
    """Interned-ref chunk table over parallel numpy columns.

    Every first-time ref is interned to a dense integer id; the id
    indexes the ``_refs``, ``_size`` (float64 bytes), ``_node`` (int64
    planned owner) and — when every ref shares one key arity — ``_key``
    (int64 chunk coordinates) columns.  Removed ids go on a free list
    and are reused by later placements, so the columns stay dense under
    churn.

    Node ids are likewise interned to dense slots (the ``_load``
    column); the ``_node`` column stores the *slot*, not the raw node
    id, so the -1 free-slot sentinel can never collide with a caller's
    node id (node ids may be any ints, including negatives).  Batch
    commits turn the per-node load accumulation into ``np.add.at``
    over slot indices, and rebalance heuristics read whole byte
    columns (:meth:`sizes_of`, :meth:`key_column`) instead of one dict
    probe per chunk.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        cap = self._INITIAL_CAPACITY
        self._id_of: Dict[ChunkRef, int] = {}
        self._refs = np.empty(cap, dtype=object)
        self._size = np.zeros(cap, dtype=np.float64)
        self._node = np.full(cap, -1, dtype=np.int64)
        self._key: Optional[np.ndarray] = None  # (cap, ndim) int64
        self._key_width: Optional[int] = None
        self._keys_ok = True
        self._free: List[int] = []
        self._hwm = 0  # high-water mark of allocated ids
        self._total = 0.0
        # node interning
        self._slot_of: Dict[NodeId, int] = {}
        self._node_list: List[NodeId] = []  # slot -> node id
        self._load = np.zeros(0, dtype=np.float64)
        for n in nodes:
            self.add_node(int(n))
        # The catalog publishing this table, held weakly: the catalog
        # holds the table, and a cycle would outlive its cluster.
        self._publisher: Optional[weakref.ref] = None

    # -- capacity ------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = len(self._size)
        if need <= cap:
            return
        new_cap = max(need, cap * 2)
        self._refs = resize_column(self._refs, new_cap, None)
        self._size = resize_column(self._size, new_cap, 0.0)
        self._node = resize_column(self._node, new_cap, -1)
        if self._key is not None:
            self._key = resize_column(self._key, new_cap, 0)

    def _alloc(self, count: int) -> np.ndarray:
        """Allocate ``count`` ids: free-list first, then fresh slots."""
        reuse = min(count, len(self._free))
        ids = np.empty(count, dtype=np.int64)
        if reuse:
            ids[:reuse] = self._free[len(self._free) - reuse:]
            del self._free[len(self._free) - reuse:]
        fresh = count - reuse
        if fresh:
            self._grow(self._hwm + fresh)
            ids[reuse:] = np.arange(
                self._hwm, self._hwm + fresh, dtype=np.int64
            )
            self._hwm += fresh
        return ids

    def _store_keys(self, ids: np.ndarray, refs: Sequence[ChunkRef]) -> None:
        """Fill the key-coordinate column for freshly interned refs."""
        if not self._keys_ok:
            return
        try:
            keys = np.array([r.key for r in refs], dtype=np.int64)
        except (ValueError, OverflowError):
            # Mixed arities or beyond-int64 coordinates: the coordinate
            # column cannot represent this workload; disable it (bulk
            # key reads then fall back to per-ref tuples).
            self._keys_ok = False
            self._key = None
            return
        width = keys.shape[1] if keys.ndim == 2 else 1
        if self._key_width is None:
            self._key_width = width
            self._key = np.zeros(
                (len(self._size), width), dtype=np.int64
            )
        elif width != self._key_width:
            self._keys_ok = False
            self._key = None
            return
        self._key[ids] = keys.reshape(len(refs), width)

    # -- nodes ---------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Intern a node id to the next load slot with zero load."""
        slot = len(self._slot_of)
        self._slot_of[int(node)] = slot
        self._node_list.append(int(node))
        self._load = np.concatenate([self._load, np.zeros(1)])

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` is registered."""
        return node in self._slot_of

    def load_of(self, node: NodeId) -> float:
        """Bytes currently assigned to ``node``."""
        return float(self._load[self._slot_of[node]])

    def node_loads(self) -> Dict[NodeId, float]:
        """A copy of the ``node -> bytes`` load map."""
        load = self._load
        return {
            n: float(load[slot]) for n, slot in self._slot_of.items()
        }

    def _slots_of(self, nodes: np.ndarray) -> np.ndarray:
        """Map an array of node ids to load slots (KeyError on unknown)."""
        slot_of = self._slot_of
        return np.fromiter(
            (slot_of[int(n)] for n in nodes),
            dtype=np.int64,
            count=len(nodes),
        )

    # -- reads ---------------------------------------------------------
    def contains(self, ref: ChunkRef) -> bool:
        """Whether ``ref`` is currently interned (placed)."""
        return ref in self._id_of

    def get_node(self, ref: ChunkRef) -> Optional[NodeId]:
        """Node holding ``ref``, or ``None`` when never placed."""
        i = self._id_of.get(ref)
        return None if i is None else self._node_list[self._node[i]]

    def node_of(self, ref: ChunkRef) -> NodeId:
        """Node holding ``ref`` (KeyError when never placed)."""
        return self._node_list[self._node[self._id_of[ref]]]

    def size_of(self, ref: ChunkRef) -> float:
        """Recorded bytes of ``ref`` (KeyError when never placed)."""
        return float(self._size[self._id_of[ref]])

    @property
    def chunk_count(self) -> int:
        """Number of live chunks."""
        return len(self._id_of)

    @property
    def total_bytes(self) -> float:
        """All live chunk bytes (O(1) running counter)."""
        return self._total

    def assignment(self) -> Dict[ChunkRef, NodeId]:
        """A copy of the full chunk → node map."""
        node = self._node
        node_list = self._node_list
        return {r: node_list[node[i]] for r, i in self._id_of.items()}

    def refs_on(self, node: NodeId) -> List[ChunkRef]:
        """Refs assigned to one node (column-scan order)."""
        on = self._node[: self._hwm] == self._slot_of[node]
        return self._refs[: self._hwm][on].tolist()

    def ids_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Dense ids of many interned refs (KeyError on an unknown one)."""
        id_of = self._id_of
        return np.fromiter(
            (id_of[r] for r in refs), dtype=np.int64, count=len(refs)
        )

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Planned owner node ids of many dense ids (one gather)."""
        return np.asarray(self._node_list, dtype=np.int64)[self._node[ids]]

    def live_ids(self) -> np.ndarray:
        """Every interned id, ascending (a vector scan of the owners)."""
        return np.nonzero(self._node[: self._hwm] >= 0)[0]

    def sizes_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Bulk byte sizes of many refs (one column gather)."""
        return self._size[self.ids_of(refs)]

    def key_column(
        self, refs: Sequence[ChunkRef], dim: int
    ) -> np.ndarray:
        """Bulk chunk-key coordinates of many refs along one dimension."""
        if self._keys_ok and self._key is not None:
            return self._key[self.ids_of(refs), dim]
        return np.fromiter(
            (r.key[dim] for r in refs), dtype=np.int64, count=len(refs)
        )

    # -- mutation ------------------------------------------------------
    def commit_new(
        self, ref: ChunkRef, size_bytes: float, node: NodeId
    ) -> None:
        """Intern ``ref`` to a fresh (or recycled) id on ``node``."""
        i = int(self._alloc(1)[0])
        slot = self._slot_of[node]
        self._id_of[ref] = i
        self._refs[i] = ref
        self._size[i] = size_bytes
        self._node[i] = slot
        self._store_keys(np.array([i], dtype=np.int64), [ref])
        self._load[slot] += size_bytes
        self._total += size_bytes

    def merge(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        """Add bytes to an already-placed chunk; returns its node."""
        i = self._id_of[ref]
        slot = int(self._node[i])
        self._size[i] += size_bytes
        self._load[slot] += size_bytes
        self._total += size_bytes
        return self._node_list[slot]

    def remove(self, ref: ChunkRef) -> Tuple[NodeId, float]:
        """Drop a chunk; its id joins the free list for reuse."""
        i = self._id_of.pop(ref)
        slot = int(self._node[i])
        size = float(self._size[i])
        self._node[i] = -1
        self._size[i] = 0.0
        self._refs[i] = None
        self._free.append(i)
        self._load[slot] -= size
        self._total -= size
        return self._node_list[slot], size

    def relocate(
        self, ref: ChunkRef, dest: NodeId
    ) -> Tuple[NodeId, float]:
        """Reassign a chunk to ``dest``; returns ``(source, bytes)``."""
        i = self._id_of[ref]
        source_slot = int(self._node[i])
        dest_slot = self._slot_of[dest]
        size = float(self._size[i])
        self._node[i] = dest_slot
        self._load[source_slot] -= size
        self._load[dest_slot] += size
        return self._node_list[source_slot], size

    def update_size(self, ref: ChunkRef, delta_bytes: float) -> NodeId:
        """Grow/shrink a chunk's recorded bytes; returns its node."""
        i = self._id_of[ref]
        slot = int(self._node[i])
        self._size[i] += delta_bytes
        self._load[slot] += delta_bytes
        self._total += delta_bytes
        return self._node_list[slot]

    def commit_batch(
        self,
        first_sizes: Dict[ChunkRef, float],
        commit_nodes: Sequence[NodeId],
        merges: Sequence[Tuple[ChunkRef, float]],
    ) -> Dict[ChunkRef, NodeId]:
        """Apply a partitioned batch with vectorized column writes.

        First-time placements land as whole-column fancy-index writes
        plus one ``np.add.at`` into the load column; merges gather
        their ids once and accumulate sizes/loads with unbuffered adds
        (duplicate refs within ``merges`` accumulate in batch order, so
        per-chunk sizes stay bit-identical to sequential placement).
        """
        placements: Dict[ChunkRef, NodeId] = {}
        total_delta = 0.0
        if first_sizes:
            refs = list(first_sizes)
            n_new = len(refs)
            sizes = np.fromiter(
                first_sizes.values(), dtype=np.float64, count=n_new
            )
            nodes = np.asarray(commit_nodes, dtype=np.int64)
            slots = self._slots_of(nodes)  # validates node ids
            ids = self._alloc(n_new)
            self._refs[ids] = refs
            self._size[ids] = sizes
            self._node[ids] = slots
            self._store_keys(ids, refs)
            self._id_of.update(zip(refs, ids.tolist()))
            np.add.at(self._load, slots, sizes)
            total_delta += float(sizes.sum())
            placements = dict(zip(refs, nodes.tolist()))
        if merges:
            mids = self.ids_of([r for r, _ in merges])
            msizes = np.fromiter(
                (s for _, s in merges),
                dtype=np.float64,
                count=len(merges),
            )
            np.add.at(self._size, mids, msizes)
            mslots = self._node[mids]
            np.add.at(self._load, mslots, msizes)
            total_delta += float(msizes.sum())
            node_list = self._node_list
            for (ref, _), slot in zip(merges, mslots.tolist()):
                placements[ref] = node_list[slot]
        self._total += total_delta
        return placements

    # -- compaction ----------------------------------------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk column slots (live + dead + headroom).

        This is what the ledger's memory actually costs: every parallel
        column (`refs`, bytes, owner slot, key coordinates) holds this
        many entries regardless of how many are alive.
        """
        return len(self._size)

    @property
    def dead_slot_fraction(self) -> float:
        """Fraction of :attr:`column_capacity` not holding a live chunk.

        Dead slots are removed chunks parked on the free list plus the
        grown-but-never-used tail.  Churn-heavy workloads (insert +
        expire cycles) push this up; :meth:`compact` brings it back
        down.
        """
        cap = len(self._size)
        return 1.0 - len(self._id_of) / cap if cap else 0.0

    @property
    def publisher(self):
        """The live catalog that publishes this table, or ``None``."""
        return None if self._publisher is None else self._publisher()

    @publisher.setter
    def publisher(self, catalog) -> None:
        self._publisher = weakref.ref(catalog)

    def compact(self, min_dead_fraction: float = 0.0) -> bool:
        """Re-intern live refs into dense ids and shrink the columns.

        Drops every free-list slot and the unused capacity tail: live
        entries are gathered (in id order, so relative recency is
        preserved) into fresh columns sized ``max(live, initial
        capacity)``, and the ref → id interning is rebuilt to match.
        Observable state — assignment, sizes, key coordinates, per-node
        loads, the running total — is unchanged (property-checked by
        ``tests/test_ledger_compaction.py``).

        A published table compacts through its catalog's write window
        (:meth:`repro.core.catalog.ChunkCatalog.compact`), so the two
        id spaces never part.

        Parameters
        ----------
        min_dead_fraction : float
            Only compact when :attr:`dead_slot_fraction` is at least
            this ratio (the coordinator passes its configured
            threshold; 0.0 compacts whenever anything is reclaimable).

        Returns
        -------
        bool
            ``True`` when the columns were rebuilt, ``False`` when the
            threshold was not met or nothing could shrink.
        """
        catalog = self.publisher
        if catalog is not None:
            return catalog.compact(min_dead_fraction)
        return self.compact_ids(min_dead_fraction) is not None

    def compact_ids(
        self, min_dead_fraction: float = 0.0
    ) -> Optional[np.ndarray]:
        """:meth:`compact` without the catalog hand-off (its window).

        Returns the old id of every new id ``0 .. live-1`` (ascending),
        or ``None`` when nothing ran.
        """
        cap = len(self._size)
        live = len(self._id_of)
        if cap == 0 or self.dead_slot_fraction < min_dead_fraction:
            return None
        new_cap = max(self._INITIAL_CAPACITY, live)
        if not self._free and cap <= new_cap:
            return None  # already dense: nothing to reclaim
        ids = np.fromiter(
            self._id_of.values(), dtype=np.int64, count=live
        )
        ids.sort()
        self._refs = resize_column(self._refs[ids], new_cap, None)
        self._size = resize_column(self._size[ids], new_cap, 0.0)
        self._node = resize_column(self._node[ids], new_cap, -1)
        if self._key is not None:
            self._key = resize_column(self._key[ids], new_cap, 0)
        self._id_of = dict(zip(self._refs[:live].tolist(), range(live)))
        self._free = []
        self._hwm = live
        return ids
