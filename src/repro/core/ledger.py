"""The chunk table: every per-chunk fact of a cluster, one row per id.

:class:`ArrayChunkLedger` interns every :class:`ChunkRef` to a dense
integer id and keeps each per-chunk fact once, in parallel numpy
columns — its own (ref, bytes, owner, array, key, payload handle,
extent) and the scheme columns a partitioner derives (a curve position,
a stable hash, an arrival ordinal) — plus the per-node byte loads and
the running total.  Commits, merges, removals and rebalance reads are
column operations, not per-ref dict traffic through ``__hash__``.

Interning reads the batch's key rows: the table keeps its live ids
sorted by the position key of their ``(key, array code)`` rows
(:func:`repro.arrays.coords.position_keys`, the packing widened on
demand), so one ``searchsorted`` finds a batch's known chunks and one
sort its duplicates.  Keys of mixed arity or beyond int64 take the
exact path (``_keys_ok`` is ``False``): the index sorts ``(key tuple,
array code)`` pairs instead.

The partitioner creates the table; in a cluster the chunk catalog
(:class:`repro.core.catalog.ChunkCatalog`) publishes into the same
object, writing its handle and extent columns (``docs/invariants.md``,
"The chunk id lifecycle").  Its specification is the dict-of-refs ledger
in ``tests/oracles/ledger.py`` (``tests/test_ledger.py``,
``tests/test_scheme_columns.py``).

Compaction
----------
Removed ids go on a free list, so under insert/expire churn the columns
hold more slots than live chunks.  :meth:`ArrayChunkLedger.compact`
gathers the live rows of every column, scheme columns included, into
exactly-sized ones once the dead-slot ratio crosses a threshold; a
published table compacts through its catalog
(:meth:`repro.core.catalog.ChunkCatalog.compact`), which the cluster
triggers from its reorganization cycle (``tests/test_ledger_compaction.py``).

Float semantics
---------------
Every write runs in batch order: a commit adds its first-time sizes,
then its merges; a removal subtracts in batch order; a relocation moves
bytes in call order — bit for bit the dict reference fed the same
batches.  Against one-chunk-at-a-time placement, a batch interleaving
merges with first-time chunks may reassociate the additions, so loads
and the total agree up to float ulps (the ``place_batch`` contract).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter, sub
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.arrays.coords import (
    distinct, joint_packing, packing_admits, position_keys, row_packing,
)
from repro.core.hashing import hash_chunk_ref, hash_chunk_rows
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


def key_rows(refs: np.ndarray, width: Optional[int]) -> Optional[np.ndarray]:
    """The ``(n, width)`` int64 key rows of ``refs`` (any one width when
    ``width`` is ``None``); ``None`` for another or mixed arities, empty
    keys or a coordinate beyond int64."""
    try:
        keys = np.array(list(map(attrgetter("key"), refs)), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    ok = keys.ndim == 2 and keys.shape[1] and width in (None, keys.shape[1])
    return keys if ok else None


def key_tuples(refs: np.ndarray) -> np.ndarray:
    """The keys of ``refs`` as an object column of exact-int tuples."""
    return np.fromiter(map(attrgetter("key"), refs), object, len(refs))


@dataclass(eq=False)
class BatchSplit:
    """An insert batch split into first-time placements and merges:
    the items (``refs``, ``sizes``, ``keys`` rows or ``None``), each
    item's first position in the batch (``origin``) and whether it was
    placed before (``known``, with ``found`` the table ids of those
    items); ``first`` holds the first positions of unknown refs,
    ``merges`` every other position, both ascending.  ``arrays`` is each
    item's array code in the table that split it (``names`` its array
    names by code); ``columns`` the scheme columns of the ``first``
    items, which the commit writes."""

    refs: np.ndarray
    sizes: np.ndarray
    keys: Optional[np.ndarray]
    origin: np.ndarray
    known: np.ndarray
    first: np.ndarray
    merges: np.ndarray
    found: np.ndarray
    arrays: np.ndarray
    names: List[str]
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def new_refs(self) -> List[ChunkRef]:
        """The first-time refs, in batch order."""
        return self.refs[self.first].tolist()

    def new_hashes(self) -> np.ndarray:
        """The first-time chunks' stable hashes, from their key rows
        (:func:`~repro.core.hashing.hash_chunk_rows`)."""
        if self.keys is None:  # ragged keys: one ref at a time
            return np.fromiter(map(hash_chunk_ref, self.new_refs()), np.uint64)
        first = self.first
        return hash_chunk_rows(self.names, self.arrays[first], self.keys[first])


class ArrayChunkLedger:
    """Interned-ref chunk table over parallel numpy columns.

    Every first-time ref is interned to a dense integer id; the id
    indexes the ``_refs``, ``_size`` (float64 bytes), ``_node`` (int64
    owner), ``_arr`` (array code), ``_chunks`` (payload handle, ``None``
    while unpublished), ``_extent`` (``(arena number, lo, hi)`` rows),
    — when every ref shares one key arity — ``_key`` (int64 chunk
    coordinates) and the scheme columns (``_extra``, read with
    :meth:`column_at`).  Removed ids go on a free list and are reused by
    later placements, so the columns stay dense under churn.

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
    #: The table's own columns: name, the value of a free slot, dtype.
    _COLUMNS = (("_refs", None, object), ("_size", 0.0, np.float64),
                ("_node", -1, np.int64), ("_arr", -1, np.int64),
                ("_chunks", None, object), ("_extent", NO_EXTENT, np.int64))

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        cap = self._INITIAL_CAPACITY
        for name, fill, dtype in self._COLUMNS:
            setattr(self, name, np.full((cap,) + np.shape(fill), fill, dtype))
        self._key: Optional[np.ndarray] = None  # (cap, ndim) int64
        self._key_width: Optional[int] = None
        self._keys_ok = True
        self._extra: Dict[str, np.ndarray] = {}  # scheme columns, free = 0
        self._array_code: Dict[str, int] = {}  # in code order
        # The key index: live ids sorted by their index keys (_encode).
        self._index = np.empty(0, dtype=np.int64)
        self._index_keys = np.empty(0, dtype=np.int64)
        self._packing = None
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
    def _resize(self, capacity: int, ids: Optional[np.ndarray] = None) -> None:
        """Every per-id column at ``capacity`` rows, holding its whole
        old column (growth) or the rows of ``ids`` first (compaction)."""
        def sized(column, fill):
            rows = column if ids is None else column[ids]
            return resize_column(rows, capacity, fill)

        for name, fill, _ in self._COLUMNS:
            setattr(self, name, sized(getattr(self, name), fill))
        if self._key is not None:
            self._key = sized(self._key, 0)
        self._extra = {n: sized(c, 0) for n, c in self._extra.items()}

    def _alloc(self, count: int) -> np.ndarray:
        """Allocate ``count`` ids: free-list first, then fresh slots."""
        reuse = min(count, len(self._free))
        ids = np.empty(count, dtype=np.int64)
        if reuse:
            ids[:reuse] = self._free[len(self._free) - reuse:]
            del self._free[len(self._free) - reuse:]
        fresh = count - reuse
        if fresh:
            if self._hwm + fresh > len(self._size):
                self._resize(max(self._hwm + fresh, 2 * len(self._size)))
            ids[reuse:] = np.arange(
                self._hwm, self._hwm + fresh, dtype=np.int64
            )
            self._hwm += fresh
        return ids

    # -- interning -----------------------------------------------------
    def _array_codes(self, refs, arrays=None) -> np.ndarray:
        """Each ref's array code (a new array gets the next one), from
        the batch's ``(names, codes)`` columns when the caller has them,
        else read off the refs (C-level ``map`` passes)."""
        if arrays is None:
            names = list(map(attrgetter("array"), refs))
            index = {a: i for i, a in enumerate(dict.fromkeys(names))}
            local = map(index.__getitem__, names)
            arrays = list(index), np.fromiter(local, np.int64, len(names))
        names, local = arrays
        code = self._array_code
        codes = [code.setdefault(a, len(code)) for a in names]
        return np.array(codes, dtype=np.int64)[local]

    def _to_exact(self) -> None:
        """Take the exact path: the index re-keyed by key tuples, and no
        key column."""
        ids = self._index
        self._index_keys = self._encode(
            self._arr[ids], key_tuples(self._refs[ids])
        )
        self._keys_ok = False
        self._key = None

    def _encode(self, arrays: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Index keys of items: position keys of their ``(key, array
        code)`` rows under the index's packing, which is widened (the
        index re-encoded) when the rows fall outside it; on the exact
        path ``(key tuple, array code)`` pairs.  The array code comes
        last, so a growing first (time) dimension stays admitted."""
        if keys.dtype == object:
            return np.fromiter(zip(keys, arrays.tolist()), object, len(keys))
        rows = np.column_stack([keys, arrays])
        if not len(self._index):
            self._packing = row_packing(rows)
            self._index_keys = position_keys(rows[:0], self._packing)
        elif not packing_admits(rows, self._packing):
            held = np.column_stack(
                [self._key[self._index], self._arr[self._index]]
            )
            self._packing = joint_packing(held, rows)
            self._index_keys = position_keys(held, self._packing)
        return position_keys(rows, self._packing)

    def _probe(self, q: np.ndarray) -> np.ndarray:
        """Each index key's live id, -1 when not interned."""
        if not len(self._index):
            return np.full(len(q), -1, dtype=np.int64)
        pos = np.searchsorted(self._index_keys, q)
        np.minimum(pos, len(self._index) - 1, out=pos)
        return np.where(self._index_keys[pos] == q, self._index[pos], -1)

    def lookup(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Each ref's live id, -1 when it is not interned."""
        n = len(refs)
        column = np.fromiter(refs, dtype=object, count=n)
        keys = (key_rows(column, self._key_width) if self._keys_ok
                else key_tuples(column))
        if keys is None and n > 1:  # one ragged or huge key among many
            return np.concatenate([self.lookup([r]) for r in refs])
        if keys is None:  # a key the table cannot hold
            return np.full(n, -1, dtype=np.int64)
        return self._probe(
            self._encode(self._array_codes(column), keys)
        )

    def split_batch(
        self, refs: np.ndarray, sizes: np.ndarray,
        keys: Optional[np.ndarray] = None, arrays=None,
    ) -> BatchSplit:
        """Split a ref column into first-time placements and merges.

        ``keys`` (key rows) and ``arrays`` (``(names, codes)``) are the
        batch's columns when the caller has them (read from the refs
        otherwise).  Registers the batch's arrays but interns nothing:
        :meth:`commit_batch` does.
        """
        n = len(refs)
        arrays = self._array_codes(refs, arrays)
        if self._keys_ok and n:
            if keys is None:
                keys = key_rows(refs, self._key_width)
            if keys is None or self._key_width not in (None, keys.shape[1]):
                self._to_exact()
        exact = not self._keys_ok or keys is None
        q = self._encode(arrays, key_tuples(refs) if exact else keys)
        ids = self._probe(q)
        _, head, group = np.unique(q, return_index=True, return_inverse=True)
        origin = head[group]
        known = ids >= 0
        first = (origin == np.arange(n)) & ~known
        return BatchSplit(
            refs, sizes, keys, origin, known, np.flatnonzero(first),
            np.flatnonzero(~first), ids[known], arrays,
            list(self._array_code),
        )

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
        return bool(self.lookup([ref])[0] >= 0)

    def node_of(self, ref: ChunkRef) -> NodeId:
        """Node holding ``ref`` (KeyError when never placed)."""
        return self._node_list[self._node[self.ids_of([ref])[0]]]

    def size_of(self, ref: ChunkRef) -> float:
        """Recorded bytes of ``ref`` (KeyError when never placed)."""
        return float(self._size[self.ids_of([ref])[0]])

    @property
    def chunk_count(self) -> int:
        """Number of live chunks."""
        return self._hwm - len(self._free)

    @property
    def total_bytes(self) -> float:
        """All live chunk bytes (O(1) running counter)."""
        return self._total

    def assignment(self) -> Dict[ChunkRef, NodeId]:
        """A copy of the full chunk → node map."""
        live = self.live_ids()
        return dict(zip(self._refs[live].tolist(), self.owners(live).tolist()))

    def ids_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Dense ids of many interned refs (KeyError naming the first
        unknown one)."""
        ids = self.lookup(refs)
        missing = ids < 0
        if missing.any():
            raise KeyError(refs[int(np.argmax(missing))])
        return ids

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Owner node ids of many live ids (one gather)."""
        slots = self._node[ids]
        dead = slots < 0  # a -1 slot must not index the list from its end
        if dead.any():
            raise KeyError(int(np.asarray(ids)[dead][0]))
        return np.asarray(self._node_list, dtype=np.int64)[slots]

    def keys_of(self, ids: np.ndarray) -> np.ndarray:
        """Chunk keys of many live ids as ``(n, ndim)`` int64 rows."""
        if self._key is not None:
            return self._key[ids]
        return np.array(
            [r.key for r in self._refs[ids].tolist()], dtype=np.int64
        )

    def array_ids(self, name: str) -> np.ndarray:
        """The live ids of array ``name`` in key order (its slice of the
        key index)."""
        ids = self._index
        return ids[self._arr[ids] == self._array_code.get(name, -1)]

    def column_at(self, name: str, ids: np.ndarray) -> np.ndarray:
        """A scheme column's values at many live ids (one gather; a
        column no chunk has written yet reads as empty int64)."""
        return self._extra.get(name, np.empty(0, np.int64))[ids]

    def arrays_at(self, ids: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """The distinct arrays of ``ids`` and each id's index into them."""
        uniq, codes = np.unique(self._arr[ids], return_inverse=True)
        names = list(self._array_code)
        return [names[c] for c in uniq.tolist()], codes

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
        if self._key is None:
            refs = self._refs[ids]
            return np.array(
                sorted(
                    range(len(ids)),
                    key=lambda i: (refs[i].array, refs[i].key),
                ),
                dtype=np.int64,
            )
        rank = np.argsort(np.argsort(np.array(list(self._array_code))))
        return np.lexsort((*self._key[ids][:, ::-1].T, rank[self._arr[ids]]))

    # -- mutation ------------------------------------------------------
    def remove(self, ref: ChunkRef) -> Tuple[NodeId, float]:
        """Drop one chunk (:meth:`remove_ids` of its id)."""
        owners, sizes = self.remove_ids(self.ids_of([ref]))
        return int(owners[0]), float(sizes[0])

    def remove_ids(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Drop live ids (each at most once); they join the free list.

        One pass: loads and the total subtract the sizes in batch order
        (bit-identical to removing one chunk at a time), every column
        frees the ids in one write, the key index drops them.
        Returns the owners and sizes the ids held.
        """
        if len(distinct(ids)) < len(ids):
            raise PartitioningError("a chunk removed twice in one call")
        owners = self.owners(ids)
        slots, sizes = self._node[ids], self._size[ids]
        np.subtract.at(self._load, slots, sizes)
        self._count -= np.bincount(slots, minlength=len(self._count))
        # What holds no chunk holds exactly 0.0, not the float residue.
        self._load[self._count == 0] = 0.0
        self._total = reduce(sub, sizes.tolist(), self._total)
        keep = ~np.isin(self._index, ids)
        self._index = self._index[keep]
        self._index_keys = self._index_keys[keep]
        for name, fill, _ in self._COLUMNS:
            getattr(self, name)[ids] = fill
        for column in self._extra.values():
            column[ids] = 0
        self._free.extend(ids.tolist())
        if not self.chunk_count:
            self._total = 0.0
        return owners, sizes

    def relocate_many(self, ids: np.ndarray, dests: np.ndarray) -> None:
        """Reassign live ids (each at most once) to ``dests``.

        Loads take one unbuffered add over the interleaved ``(source,
        -size), (dest, +size)`` pairs in call order: the additions of one
        reassignment per chunk, so the loads come out bit-identical.
        """
        if len(distinct(ids)) < len(ids):
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

    def commit_batch(self, split: BatchSplit, nodes: np.ndarray) -> np.ndarray:
        """Apply a :class:`BatchSplit` (``nodes``: one per first-time
        item) with vectorized column writes.

        First-time items land as fancy-index writes (their scheme
        columns from ``split.columns``) plus one ``np.add.at`` into the
        loads; merges take their ref's id (a known one's, or their first
        occurrence's) and accumulate sizes/loads with unbuffered adds in
        batch order, so per-chunk sizes stay bit-identical to sequential
        placement.  Returns each item's id.
        """
        first, merges = split.first, split.merges
        ids = np.full(len(split.refs), -1, dtype=np.int64)
        ids[split.known] = split.found
        total_delta = 0.0
        if len(first):
            sizes = split.sizes[first]
            slots = self._slots_of(nodes)  # validates node ids
            new = ids[first] = self._alloc(len(first))
            self._refs[new] = split.refs[first]
            self._size[new] = sizes
            self._node[new] = slots
            self._arr[new] = split.arrays[first]
            for name, values in split.columns.items():
                column = self._extra.get(name)
                if column is None:
                    column = np.zeros(len(self._size), values.dtype)
                if values.dtype == object:  # positions beyond int64
                    column = column.astype(object)
                column[new] = values
                self._extra[name] = column
            self._intern(split, new)
            np.add.at(self._load, slots, sizes)
            self._count += np.bincount(slots, minlength=len(self._count))
            total_delta = reduce(add, sizes.tolist(), total_delta)
        if len(merges):
            ids = ids[split.origin]  # duplicates share their first's id
            mids, msizes = ids[merges], split.sizes[merges]
            np.add.at(self._size, mids, msizes)
            np.add.at(self._load, self._node[mids], msizes)
            total_delta = reduce(add, msizes.tolist(), total_delta)
        self._total += total_delta
        return ids

    def _intern(self, split: BatchSplit, new: np.ndarray) -> None:
        """Record freshly allocated ids: the key column and the index."""
        first = split.first
        if not self._keys_ok:
            keys = key_tuples(split.refs[first])
        else:
            keys = split.keys[first]
            if self._key is None:
                self._key_width = keys.shape[1]
                self._key = np.zeros((len(self._size), keys.shape[1]),
                                     dtype=np.int64)
            self._key[new] = keys
        q = self._encode(split.arrays[first], keys)
        order = np.argsort(q, kind="stable")
        at = np.searchsorted(self._index_keys, q[order])
        self._index_keys = np.insert(self._index_keys, at, q[order])
        self._index = np.insert(self._index, at, new[order])

    # -- compaction ----------------------------------------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk column slots (live + dead + headroom).

        This is what the table's memory actually costs: every parallel
        column (`refs`, bytes, owner slot, array, handle, extent, key
        coordinates, scheme columns) holds this many entries regardless
        of how many are alive.
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
        return 1.0 - self.chunk_count / cap if cap else 0.0

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
        capacity)``, and the key index is remapped to match.
        Observable state — assignment, sizes, key coordinates, scheme
        columns, per-node loads, the running total — is unchanged
        (property-checked by ``tests/test_ledger_compaction.py``).

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
        live = self.chunk_count
        if cap == 0 or self.dead_slot_fraction < min_dead_fraction:
            return None
        new_cap = max(self._INITIAL_CAPACITY, live)
        if not self._free and cap <= new_cap:
            return None  # already dense: nothing to reclaim
        ids = self.live_ids()
        self._resize(new_cap, ids)
        self._index = np.searchsorted(ids, self._index)
        self._free = []
        self._hwm = live
        return ids
