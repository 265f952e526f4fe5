"""The chunk table: the one ``ChunkRef -> id`` intern table of a cluster.

The table answers "which node holds this chunk and how big is it" and
maintains the per-node byte loads plus the running total.
:class:`ArrayChunkLedger` interns every :class:`ChunkRef` to a dense
integer id and keeps every per-chunk fact once, in parallel numpy
columns.  Batch commits, merges, and rebalance reads then become vector
operations over those columns instead of per-ref dict traffic through
Python-level ``__hash__``.

The partitioner creates the table (partitioners also run without a
cluster); in a cluster the chunk catalog
(:class:`repro.core.catalog.ChunkCatalog`) publishes into the same
object, writing its handle and extent columns (``docs/invariants.md``,
"The chunk id lifecycle").

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
published table compacts through its catalog
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
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.errors import PartitioningError

NodeId = int

#: The extent of an unpublished id or of a chunk with its own arrays.
NO_EXTENT = (-1, 0, 0)


def resize_column(rows: np.ndarray, capacity: int, fill) -> np.ndarray:
    """A fresh ``capacity``-row column: ``rows`` first, then ``fill``.

    Growth passes a whole column; compaction passes the live ids'
    gathered rows (``column[ids]``), which lands them at the front.
    """
    out = np.full((capacity,) + rows.shape[1:], fill, dtype=rows.dtype)
    out[: len(rows)] = rows
    return out


def array_codes(refs: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """The distinct arrays of ``refs`` in first-seen order, and each
    ref's index into them (C-level ``map`` passes, no Python frame per
    ref)."""
    names = list(map(attrgetter("array"), refs.tolist()))
    index = {a: i for i, a in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(
        map(index.__getitem__, names), dtype=np.int64, count=len(names)
    )
    return list(index), codes


class ArrayChunkLedger:
    """Interned-ref chunk table over parallel numpy columns.

    Every first-time ref is interned to a dense integer id; the id
    indexes the ``_refs``, ``_size`` (float64 bytes), ``_node`` (int64
    owner), ``_chunks`` (payload handle, ``None`` while unpublished),
    ``_extent`` (``(arena number, lo, hi)`` rows) and — when every ref
    shares one key arity — ``_key`` (int64 chunk coordinates) columns.
    Removed ids go on a free list and are reused by later placements,
    so the columns stay dense under churn.

    Node ids are likewise interned to dense slots (the ``_load``
    column); the ``_node`` column stores the *slot*, not the raw node
    id, so the -1 free-slot sentinel can never collide with a caller's
    node id (node ids may be any ints, including negatives).  Batch
    commits turn the per-node load accumulation into ``np.add.at``
    over slot indices, and rebalances read and write whole id columns
    (:meth:`ids_on`, :meth:`key_order`, :meth:`relocate_many`) instead
    of one dict probe per chunk.  ``_count`` holds each slot's live
    chunks, so an emptied node's load is set to exactly ``0.0``.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        cap = self._INITIAL_CAPACITY
        self._id_of: Dict[ChunkRef, int] = {}
        self._refs = np.empty(cap, dtype=object)
        self._size = np.zeros(cap, dtype=np.float64)
        self._node = np.full(cap, -1, dtype=np.int64)
        self._chunks = np.full(cap, None, dtype=object)
        self._extent = np.full((cap, 3), NO_EXTENT, dtype=np.int64)
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
        self._count = np.zeros(0, dtype=np.int64)  # live chunks per slot
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
        self._chunks = resize_column(self._chunks, new_cap, None)
        self._extent = resize_column(self._extent, new_cap, NO_EXTENT)
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

    def _store_keys(self, ids: np.ndarray, refs: Sequence[ChunkRef],
                    keys: Optional[np.ndarray] = None) -> None:
        """Fill the key-coordinate column for freshly interned refs
        (from their ``(n, ndim)`` key rows when the caller has them)."""
        if not self._keys_ok:
            return
        try:
            if keys is None:
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
        self._count = np.append(self._count, 0)

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
        uniq, inverse = np.unique(nodes, return_inverse=True)
        slot_of = self._slot_of
        return np.array(
            [slot_of[n] for n in uniq.tolist()], dtype=np.int64
        )[inverse]

    # -- reads ---------------------------------------------------------
    def contains(self, ref: ChunkRef) -> bool:
        """Whether ``ref`` is currently interned (placed)."""
        return ref in self._id_of

    def contains_many(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """:meth:`contains` of many refs, as a bool column (one C pass)."""
        found = map(self._id_of.__contains__, refs)
        return np.fromiter(found, dtype=bool, count=len(refs))

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

    def ids_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Dense ids of many interned refs (KeyError on an unknown one)."""
        return np.fromiter(
            map(self._id_of.__getitem__, refs), dtype=np.int64,
            count=len(refs),
        )

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Owner node ids of many live ids (one gather)."""
        slots = self._node[ids]
        dead = slots < 0  # a -1 slot must not index the list from its end
        if dead.any():
            raise KeyError(int(np.asarray(ids)[dead][0]))
        return np.asarray(self._node_list, dtype=np.int64)[slots]

    def keys_of(self, ids: np.ndarray) -> np.ndarray:
        """Chunk keys of many live ids as ``(n, ndim)`` int64 rows."""
        if self._keys_ok and self._key is not None:
            return self._key[ids]
        return np.array(
            [r.key for r in self._refs[ids].tolist()], dtype=np.int64
        )

    def live_ids(self) -> np.ndarray:
        """Every interned id, ascending (a vector scan of the owners)."""
        return np.nonzero(self._node[: self._hwm] >= 0)[0]

    def ids_on(self, node: NodeId) -> np.ndarray:
        """Ids assigned to one node, ascending (KeyError on unknown)."""
        return np.nonzero(self._node[: self._hwm] == self._slot_of[node])[0]

    def refs_at(self, ids: np.ndarray) -> np.ndarray:
        """The refs of many live ids, as an object column."""
        return self._refs[ids]

    def sizes_at(self, ids: np.ndarray) -> np.ndarray:
        """Recorded bytes of many live ids (one gather)."""
        return self._size[ids]

    def key_order(self, ids: np.ndarray) -> np.ndarray:
        """The permutation that sorts ``ids`` by ``(array, key)``.

        ``sorted(refs, key=lambda r: (r.array, r.key))`` as one lexsort
        over the array ranks and key columns; without a key column
        (mixed arities, beyond-int64 coordinates) the refs sort as tuples.
        """
        refs = self._refs[ids]
        if not (self._keys_ok and self._key is not None):
            return np.array(
                sorted(
                    range(len(ids)),
                    key=lambda i: (refs[i].array, refs[i].key),
                ),
                dtype=np.int64,
            )
        arrays, codes = array_codes(refs)
        rank = np.argsort(np.argsort(np.array(arrays)))
        return np.lexsort((*self._key[ids][:, ::-1].T, rank[codes]))

    # -- mutation ------------------------------------------------------
    def remove(self, ref: ChunkRef) -> Tuple[NodeId, float]:
        """Drop a chunk; its id joins the free list for reuse."""
        i = self._id_of.pop(ref)
        slot = int(self._node[i])
        size = float(self._size[i])
        self._node[i] = -1
        self._size[i] = 0.0
        self._refs[i] = None
        self._chunks[i] = None
        self._extent[i] = NO_EXTENT
        self._free.append(i)
        self._load[slot] -= size
        self._count[slot] -= 1
        self._total -= size
        # What holds no chunk holds exactly 0.0, not the float residue.
        if not self._count[slot]:
            self._load[slot] = 0.0
        if not self._id_of:
            self._total = 0.0
        return self._node_list[slot], size

    def relocate_many(self, ids: np.ndarray, dests: np.ndarray) -> None:
        """Reassign live ids (each at most once) to ``dests``.

        Loads take one unbuffered add over the interleaved ``(source,
        -size), (dest, +size)`` pairs in call order: the additions of one
        reassignment per chunk, so the loads come out bit-identical.
        """
        if len(np.unique(ids)) < len(ids):
            raise PartitioningError("a chunk relocated twice in one call")
        src_slots, dst_slots = self._node[ids], self._slots_of(dests)
        sizes = self._size[ids]
        np.add.at(
            self._load,
            np.column_stack([src_slots, dst_slots]).ravel(),
            np.column_stack([-sizes, sizes]).ravel(),
        )
        m = len(self._count)
        self._count += np.bincount(dst_slots, minlength=m)
        self._count -= np.bincount(src_slots, minlength=m)
        self._node[ids] = dst_slots
        self._load[self._count == 0] = 0.0  # emptied sources, as remove

    def commit_batch(self, split, nodes: np.ndarray) -> np.ndarray:
        """Apply a :class:`~repro.core.base.BatchSplit` (``nodes``: one
        per first-time item) with vectorized column writes.

        First-time items land as fancy-index writes plus one
        ``np.add.at`` into the loads; merges take their ref's id (a
        known one's, or their first occurrence's) and accumulate
        sizes/loads with unbuffered adds in batch order, so per-chunk
        sizes stay bit-identical to sequential placement.  Returns each
        item's id.
        """
        first, merges = split.first, split.merges
        ids = np.full(len(split.refs), -1, dtype=np.int64)
        total_delta = 0.0
        if len(first):
            refs = split.refs[first]
            sizes = split.sizes[first]
            slots = self._slots_of(nodes)  # validates node ids
            new = ids[first] = self._alloc(len(first))
            self._refs[new] = refs
            self._size[new] = sizes
            self._node[new] = slots
            keys = split.keys
            self._store_keys(new, refs, None if keys is None else keys[first])
            self._id_of.update(zip(refs.tolist(), new.tolist()))
            np.add.at(self._load, slots, sizes)
            self._count += np.bincount(slots, minlength=len(self._count))
            total_delta += float(sizes.sum())
        if len(merges):
            known = np.flatnonzero(split.known)
            ids[known] = self.ids_of(split.refs[known].tolist())
            ids = ids[split.origin]  # duplicates share their first's id
            mids, msizes = ids[merges], split.sizes[merges]
            np.add.at(self._size, mids, msizes)
            np.add.at(self._load, self._node[mids], msizes)
            total_delta += float(msizes.sum())
        self._total += total_delta
        return ids

    # -- compaction ----------------------------------------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk column slots (live + dead + headroom).

        This is what the table's memory actually costs: every parallel
        column (`refs`, bytes, owner slot, handle, extent, key
        coordinates) holds this many entries regardless of how many are
        alive.
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

        A published table compacts through its catalog
        (:meth:`repro.core.catalog.ChunkCatalog.compact`), so the
        catalog's views never hold a stale id.

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
        """:meth:`compact` without the catalog hand-off.

        Returns the old id of every new id ``0 .. live-1`` (ascending),
        or ``None`` when nothing ran.

        Raises
        ------
        PartitioningError
            If ``min_dead_fraction`` is NaN or outside ``[0, 1]``.
        """
        if not 0.0 <= min_dead_fraction <= 1.0:
            raise PartitioningError(
                "min_dead_fraction must be in [0, 1], got "
                f"{min_dead_fraction!r}"
            )
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
        self._chunks = resize_column(self._chunks[ids], new_cap, None)
        self._extent = resize_column(self._extent[ids], new_cap, NO_EXTENT)
        if self._key is not None:
            self._key = resize_column(self._key[ids], new_cap, 0)
        self._id_of = dict(zip(self._refs[:live].tolist(), range(live)))
        self._free = []
        self._hwm = live
        return ids
