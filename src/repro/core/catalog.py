"""The cluster-wide columnar chunk catalog.

:class:`ChunkCatalog` is the single authoritative, incrementally
maintained index of every chunk physically stored in the cluster:
``(array, chunk key, owner node, bytes, payload handle)``, held as
interned dense ids over parallel numpy columns in the style of the
placement ledger (:mod:`repro.core.ledger`).  The coordinator updates it
in place on every mutation — inserts, rebalances, removals, scale-outs —
so the query read path (:meth:`pairs_of_array`,
:meth:`placement_of_array`, :meth:`scan_columns_of`) is an
O(live-chunks-of-array) column gather with **no per-node store walk and
no per-query re-sort**.

Per-array sorted views
----------------------
For each array the catalog keeps its live chunk ids sorted by chunk key
(the order ``ElasticCluster.chunks_of_array`` has always returned).
The views are maintained incrementally: a batch of inserts merges its
(pre-sorted) new ids into the existing view with one ``searchsorted`` +
``insert``; removals mask ids out; relocations touch only the owner
column and leave the order alone.  Nothing is rebuilt per query.

Epochs and the payload cache
----------------------------
Every mutation that touches an array bumps that array's **epoch** (and
the global one); mutations that change cell contents — inserts, merges,
removals — additionally bump its **payload epoch**.
:meth:`payload_of_array` concatenates the array's cell coordinates and
value columns in catalog order and caches the result keyed by
``(array, normalized attrs, payload epoch)`` — repeated queries (in any
attr order) skip re-concatenation entirely, a content mutation
invalidates the cache by construction (the entry is dropped eagerly,
and a stale one could never be served because its recorded epoch no
longer matches), pure relocations keep it valid (ownership is not part
of a payload, so even rebalances don't force a re-concatenation), and a
small LRU bound (:attr:`ChunkCatalog.PAYLOAD_CACHE_MAX`) ages out attr
subsets that stop being queried.  Compaction
(:meth:`compact`) re-interns ids but preserves every observable,
including live cache entries and epochs.

Content delta log
-----------------
Every content mutation additionally appends signed rows to a per-array
**delta log** (:class:`_DeltaLog`): inserts append ``+1`` rows, removals
append ``-1`` rows, and a merge that replaces a stored payload appends
the retiring handle at ``-1`` followed by the merged handle at ``+1``.
Pure relocations append nothing — ownership changes are not content.
:meth:`deltas_since` slices the log after an epoch cursor in one
``searchsorted``, returning the added/removed chunk columns the
incremental query-maintenance layer (:mod:`repro.query.incremental`)
folds into its operator state, so steady-state maintenance touches only
what changed.  The log stores refs and payload handles, not interned
ids, so :meth:`compact` leaves it untouched, and replaying it from
epoch 0 must land exactly on the live set — :meth:`verify_delta_log`
checks that, and ``ElasticCluster.check_consistency`` calls it.

Specification
-------------
The pre-catalog read path — re-walk every node's store per query, and
execute rebalances one evict/put at a time — lives on as plain
functions of a cluster in ``tests/oracles/cluster.py``;
``tests/test_catalog.py`` compares both read paths on one cluster.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import lockdep
from repro.arrays.chunk import ChunkData, ChunkKey, ChunkRef
from repro.arrays.coords import Box, pack_rows_void
from repro.errors import ClusterError

NodeId = int


def concat_payload(
    chunks: Sequence[ChunkData],
    attrs: Sequence[str],
    ndim: int = 0,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Concatenate chunks' cells into one coordinate/value table.

    The catalog-internal twin of
    :func:`repro.query.operators.concat_chunk_payload` (kept separate so
    the cluster layer never imports the query package).  ``ndim`` shapes
    the empty coordinate table when ``chunks`` is empty.
    """
    if not chunks:
        return (
            np.empty((0, ndim), dtype=np.int64),
            {a: np.empty(0) for a in attrs},
        )
    coords = np.concatenate([c.coords for c in chunks], axis=0)
    values = {
        a: np.concatenate([c.values(a) for c in chunks]) for a in attrs
    }
    return coords, values


#: Chunk keys sort by their lexicographic void view: chunk-count-sized
#: columns, keys of any magnitude (cell positions use int64 keys).
_pack_keys = pack_rows_void


@dataclass(frozen=True)
class CatalogDelta:
    """One array's content mutations after an epoch cursor, as columns.

    A numpy-native ZSet over chunks: parallel columns in log (mutation)
    order, where ``signs`` carries the weight of each row — ``+1`` for a
    chunk that entered the live set, ``-1`` for one that left it.  A
    merge that replaced a stored payload contributes its retiring handle
    at ``-1`` immediately followed by the merged handle at ``+1``.
    Summing signs per ref therefore replays to the live set, and the
    incremental maintenance layer folds the same rows into its operator
    state (added cells at ``+1``, expired cells at ``-1``).
    """

    #: Catalog epoch at which each mutation landed (non-decreasing).
    epochs: np.ndarray
    #: ZSet weight of each row: ``+1`` added, ``-1`` removed.
    signs: np.ndarray
    #: The mutated chunks' refs (object column).
    refs: np.ndarray
    #: The payload handles as of the mutation (object column).
    chunks: np.ndarray
    #: Modeled bytes of each mutated chunk.
    sizes: np.ndarray
    #: Node holding the chunk at mutation time (added rows: the owner
    #: after the put; removed rows: the owner the chunk left).
    nodes: np.ndarray

    def __len__(self) -> int:
        return int(self.signs.shape[0])

    @property
    def added(self) -> np.ndarray:
        """Boolean mask of the ``+1`` rows."""
        return self.signs > 0

    @property
    def removed(self) -> np.ndarray:
        """Boolean mask of the ``-1`` rows."""
        return self.signs < 0

    @property
    def bytes_touched(self) -> float:
        """Total modeled bytes across added *and* removed rows.

        The incremental plan reads every delta row (removals re-enter
        the operators as negative contributions), so this — not the net
        byte change — is what the Tempura-style planner charges.
        """
        return float(self.sizes.sum())


class _DeltaLog:
    """Append-only columnar log of one array's content mutations.

    Amortized-doubling numpy columns in the style of the catalog's own
    chunk columns; ``epochs`` is non-decreasing by construction, so
    :meth:`since` finds a cursor with one ``searchsorted`` and the tail
    gather is O(delta).  Rows are keyed by ref and payload handle — not
    interned ids — so catalog compaction never rewrites the log.
    """

    __slots__ = ("epochs", "signs", "refs", "chunks", "sizes", "nodes",
                 "count")

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        cap = self._INITIAL_CAPACITY
        self.epochs = np.zeros(cap, dtype=np.int64)
        self.signs = np.zeros(cap, dtype=np.int8)
        self.refs = np.empty(cap, dtype=object)
        self.chunks = np.empty(cap, dtype=object)
        self.sizes = np.zeros(cap, dtype=np.float64)
        self.nodes = np.full(cap, -1, dtype=np.int64)
        self.count = 0

    def append(
        self,
        epoch: int,
        signs: Sequence[int],
        refs: Sequence[ChunkRef],
        chunks: Sequence[ChunkData],
        sizes: Sequence[float],
        nodes: Sequence[int],
    ) -> None:
        n = len(signs)
        need = self.count + n
        cap = len(self.signs)
        if need > cap:
            new_cap = max(need, cap * 2)
            extra = new_cap - cap
            self.epochs = np.concatenate(
                [self.epochs, np.zeros(extra, dtype=np.int64)]
            )
            self.signs = np.concatenate(
                [self.signs, np.zeros(extra, dtype=np.int8)]
            )
            self.refs = np.concatenate(
                [self.refs, np.empty(extra, dtype=object)]
            )
            self.chunks = np.concatenate(
                [self.chunks, np.empty(extra, dtype=object)]
            )
            self.sizes = np.concatenate(
                [self.sizes, np.zeros(extra, dtype=np.float64)]
            )
            self.nodes = np.concatenate(
                [self.nodes, np.full(extra, -1, dtype=np.int64)]
            )
        sl = slice(self.count, need)
        self.epochs[sl] = epoch
        self.signs[sl] = np.asarray(signs, dtype=np.int8)
        self.refs[sl] = refs
        self.chunks[sl] = chunks
        self.sizes[sl] = np.asarray(sizes, dtype=np.float64)
        self.nodes[sl] = np.asarray(nodes, dtype=np.int64)
        self.count = need

    def since(self, epoch: int) -> CatalogDelta:
        """Rows strictly after ``epoch``, as fresh column copies."""
        n = self.count
        lo = int(np.searchsorted(self.epochs[:n], epoch, side="right"))
        sl = slice(lo, n)
        return CatalogDelta(
            epochs=self.epochs[sl].copy(),
            signs=self.signs[sl].copy(),
            refs=self.refs[sl].copy(),
            chunks=self.chunks[sl].copy(),
            sizes=self.sizes[sl].copy(),
            nodes=self.nodes[sl].copy(),
        )


#: Shared empty log: ``deltas_since`` on unknown arrays slices this.
_EMPTY_LOG = _DeltaLog()


class _ArrayView:
    """One array's live chunk ids, kept sorted by chunk key.

    Alongside the packed void keys (scalar comparisons for the
    ``searchsorted`` merge), the view keeps the same keys as an
    ``(n, ndim)`` int64 matrix — region routing selects chunks with one
    vectorized per-dimension interval comparison over it
    (:meth:`ChunkCatalog.ids_in_region`), never touching ``Box``
    objects or per-chunk Python.

    ``epoch`` advances on *any* mutation touching the array;
    ``payload_epoch`` only on mutations that change cell contents
    (inserts, merges, removals) — pure relocations move ownership, not
    payloads, so the concatenation cache keys on the latter and
    survives rebalances.
    """

    __slots__ = ("ids", "keys", "rows", "epoch", "payload_epoch", "width")

    def __init__(self, width: int) -> None:
        self.width = width
        self.ids = np.empty(0, dtype=np.int64)
        self.keys = _pack_keys(np.empty((0, width), dtype=np.int64))
        self.rows = np.empty((0, width), dtype=np.int64)
        self.epoch = 0
        self.payload_epoch = 0

    def insert(self, new_ids: np.ndarray, new_keys: np.ndarray) -> None:
        """Merge pre-validated new ids into the sorted view."""
        packed = _pack_keys(new_keys)
        order = np.argsort(packed)
        packed = packed[order]
        positions = np.searchsorted(self.keys, packed)
        self.ids = np.insert(self.ids, positions, new_ids[order])
        self.keys = np.insert(self.keys, positions, packed)
        self.rows = np.insert(self.rows, positions, new_keys[order], axis=0)

    def drop(self, dead_ids: np.ndarray) -> None:
        """Remove ids from the view (order of survivors unchanged)."""
        keep = ~np.isin(self.ids, dead_ids)
        self.ids = self.ids[keep]
        self.keys = self.keys[keep]
        self.rows = self.rows[keep]


class ArraySnapshot:
    """An immutable, epoch-pinned view of one array's catalog state.

    MVCC-lite: :meth:`ChunkCatalog.snapshot` gathers fresh copies of the
    array's id/key/owner/bytes column slices (cheap — the per-array
    views are already copy-on-write-shaped) plus the length of its delta
    log at capture time.  Every read below answers from those frozen
    columns, so a query holding a snapshot never sees a half-applied
    rebalance, an expiry, or an ingest that lands after the pin —
    payload handles are immutable :class:`~repro.arrays.chunk.ChunkData`
    objects (merges create *new* objects), so even cell reads are safe
    while the coordinator mutates the live catalog.

    The API mirrors the catalog's per-array read surface
    (:meth:`pairs` / :meth:`placement` / :meth:`scan_columns` / the
    region family / :meth:`payload` / :meth:`deltas_since`) so the
    cluster session facade can route either way.  Payload
    concatenations are memoized per snapshot; the first read delegates
    to the shared payload LRU while the live catalog is still at the
    pinned payload epoch, so sessions share one concatenation.  From
    the caller's side memo and LRU are one cache: a repeat the memo
    answers counts on the catalog's ``payload_hits`` like an LRU hit.
    """

    __slots__ = (
        "array", "schema", "epoch", "payload_epoch",
        "_refs", "_chunks", "_sizes", "_nodes", "_rows",
        "_log_cols", "_log_count", "_catalog", "_memo", "_memo_lock",
    )

    def __init__(
        self,
        array: str,
        schema: Optional[object],
        epoch: int,
        payload_epoch: int,
        refs: np.ndarray,
        chunks: np.ndarray,
        sizes: np.ndarray,
        nodes: np.ndarray,
        rows: np.ndarray,
        log_cols: Optional[Tuple[np.ndarray, ...]],
        log_count: int,
        catalog: "ChunkCatalog",
    ) -> None:
        self.array = array
        self.schema = schema
        self.epoch = epoch
        self.payload_epoch = payload_epoch
        self._refs = refs
        self._chunks = chunks
        self._sizes = sizes
        self._nodes = nodes
        self._rows = rows
        self._log_cols = log_cols
        self._log_count = log_count
        self._catalog = catalog
        self._memo: Dict[Tuple, Tuple] = {}
        self._memo_lock = threading.Lock()

    def __len__(self) -> int:
        return int(self._sizes.shape[0])

    def node_ids(self) -> np.ndarray:
        """Distinct node ids holding pinned chunks (sorted int64).

        Sessions validate these against their frozen node universe so a
        pin capturing placements on a node added *after* the session
        opened is rejected as an epoch race instead of producing
        charges the session's cost accumulator cannot intern.
        """
        return np.unique(self._nodes)

    def node_bounds(self) -> Tuple[int, int]:
        """``(min, max)`` node id holding pinned chunks (memoized).

        The cheap arm of the session's node-universe admission check:
        against a contiguous node set a bounds test is equivalent to
        the full subset test, and memoizing it keeps repeated pins of
        one shared snapshot O(1).  Undefined on empty snapshots
        (callers guard on ``len``).
        """
        key = ("node_bounds",)
        with self._memo_lock:
            cached = self._memo.get(key)
        if cached is None:
            cached = (int(self._nodes.min()), int(self._nodes.max()))
            with self._memo_lock:
                self._memo[key] = cached
        return cached

    # -- whole-array reads ---------------------------------------------
    def pairs(self) -> List[Tuple[ChunkData, NodeId]]:
        """Pinned (payload, node) pairs, key-sorted."""
        return list(zip(self._chunks.tolist(), self._nodes.tolist()))

    def placement(self) -> Dict[ChunkKey, NodeId]:
        """Pinned chunk key → node map."""
        return {
            ref.key: node
            for ref, node in zip(
                self._refs.tolist(), self._nodes.tolist()
            )
        }

    def scan_columns(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """Pinned ``(sizes, nodes, schema)`` columns (fresh copies)."""
        return self._sizes.copy(), self._nodes.copy(), self.schema

    # -- region reads --------------------------------------------------
    def _positions_in_region(self, region: Box) -> np.ndarray:
        """Snapshot positions whose chunk boxes intersect ``region``."""
        if self.schema is None or not len(self):
            return np.empty(0, dtype=np.int64)
        intervals = self.schema.chunk_intervals_of(region)
        if intervals is None:
            return np.empty(0, dtype=np.int64)
        lows, highs = intervals
        mask = ((self._rows >= lows) & (self._rows <= highs)).all(axis=1)
        return np.nonzero(mask)[0]

    def pairs_in_region(
        self, region: Box
    ) -> List[Tuple[ChunkData, NodeId]]:
        """Pinned region-touched (payload, node) pairs, key-sorted."""
        pos = self._positions_in_region(region)
        return list(
            zip(self._chunks[pos].tolist(), self._nodes[pos].tolist())
        )

    def region_scan_columns(
        self, region: Box
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """Pinned ``(sizes, nodes, schema)`` columns of a region."""
        pos = self._positions_in_region(region)
        return self._sizes[pos], self._nodes[pos], self.schema

    def region_read(
        self, region: Box
    ) -> Tuple[
        List[Tuple[ChunkData, NodeId]],
        Tuple[np.ndarray, np.ndarray, Optional[object]],
    ]:
        """Pinned pairs *and* scan columns from one routing pass."""
        pos = self._positions_in_region(region)
        pairs = list(
            zip(self._chunks[pos].tolist(), self._nodes[pos].tolist())
        )
        return pairs, (self._sizes[pos], self._nodes[pos], self.schema)

    # -- payload reads -------------------------------------------------
    def _live_payload(
        self, compute, check_epoch
    ) -> Optional[Tuple[np.ndarray, Dict[str, np.ndarray]]]:
        """Serve through the live catalog cache if still at our epoch.

        The delegation is validated against the mutation seqlock, not
        just the payload epoch: mutators swap payload handles *before*
        bumping the epoch, so an epoch check alone would accept a
        concatenation that read a post-pin merged handle (or a torn
        cache entry installed mid-mutation) as the pinned bytes.  Any
        overlap with an in-flight mutation — seq odd at entry, or moved
        during the gather — discards the result and the caller falls
        back to the frozen handles.  Torn reads that raise from the
        live gather take the same fallback.
        """
        if check_epoch() != self.payload_epoch:
            return None
        cat = self._catalog
        seq = cat._write_seq
        if seq & 1:
            return None
        try:
            result = compute()
        except Exception:
            return None
        if cat._write_seq != seq:
            return None
        return result

    def payload(
        self, attrs: Sequence[str], ndim: int = 0
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Pinned concatenated cells, memoized per snapshot.

        Equivalent to :meth:`ChunkCatalog.payload_of_array` at the
        pinned epoch.  Callers must treat the arrays as read-only.
        """
        key = (tuple(sorted(set(attrs))), int(ndim))
        with self._memo_lock:
            hit = self._memo.get(key)
        cat = self._catalog
        if hit is not None:
            cat.count_payload_hit()
            return hit
        result = self._live_payload(
            lambda: cat.payload_of_array(self.array, attrs, ndim),
            lambda: cat.payload_epoch_of(self.array),
        )
        if result is None:
            result = concat_payload(self._chunks.tolist(), attrs, ndim)
        with self._memo_lock:
            self._memo[key] = result
        return result

    def payload_in_region(
        self, region: Box, attrs: Sequence[str], ndim: int = 0
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Pinned region-clipped cells, memoized per snapshot.

        Equivalent to :meth:`ChunkCatalog.payload_in_region` at the
        pinned epoch.  Callers must treat the arrays as read-only.
        """
        key = (
            tuple(sorted(set(attrs))), int(ndim), region.lo, region.hi,
        )
        with self._memo_lock:
            hit = self._memo.get(key)
        cat = self._catalog
        if hit is not None:
            cat.count_payload_hit()
            return hit
        result = self._live_payload(
            lambda: cat.payload_in_region(
                self.array, region, attrs, ndim
            ),
            lambda: cat.payload_epoch_of(self.array),
        )
        if result is None:
            pos = self._positions_in_region(region)
            coords, values = concat_payload(
                self._chunks[pos].tolist(), attrs, ndim
            )
            if coords.shape[0]:
                mask = np.ones(coords.shape[0], dtype=bool)
                for d in range(len(region.lo)):
                    mask &= coords[:, d] >= region.lo[d]
                    mask &= coords[:, d] < region.hi[d]
                coords = coords[mask]
                values = {a: v[mask] for a, v in values.items()}
            result = (coords, values)
        with self._memo_lock:
            self._memo[key] = result
        return result

    # -- delta reads ---------------------------------------------------
    def deltas_since(self, epoch: int) -> CatalogDelta:
        """Content mutations after ``epoch`` up to the pinned log end.

        The frozen twin of :meth:`ChunkCatalog.deltas_since`: rows
        appended after the snapshot was taken are invisible, so a
        maintained view refreshing against a snapshot folds exactly the
        mutations between its cursor and the pin — never a half-applied
        batch that lands mid-refresh.  (The delta log is append-only
        and rows below the pinned length are never rewritten, so the
        slice needs no copy-out at capture time.)
        """
        if self._log_cols is None or not self._log_count:
            return _EMPTY_LOG.since(0)
        epochs = self._log_cols[0][:self._log_count]
        lo = int(np.searchsorted(epochs, epoch, side="right"))
        sl = slice(lo, self._log_count)
        cols = self._log_cols
        return CatalogDelta(
            epochs=cols[0][sl].copy(),
            signs=cols[1][sl].copy(),
            refs=cols[2][sl].copy(),
            chunks=cols[3][sl].copy(),
            sizes=cols[4][sl].copy(),
            nodes=cols[5][sl].copy(),
        )

    def delta_scan_columns(
        self, epoch: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """``(sizes, nodes, schema)`` of the pinned delta's rows."""
        delta = self.deltas_since(epoch)
        return delta.sizes, delta.nodes, self.schema


class ChunkCatalog:
    """Columnar cluster-wide chunk index (see module docstring).

    The per-chunk state lives in parallel columns indexed by a dense
    interned id: the owning :class:`~repro.arrays.chunk.ChunkRef`, the
    payload handle (the exact :class:`~repro.arrays.chunk.ChunkData`
    object the owning node's store holds), modeled bytes, and the owner
    node id.  Removed ids go on a free list for reuse; :meth:`compact`
    re-interns past a dead-slot threshold, like the placement ledger.
    """

    _INITIAL_CAPACITY = 64

    #: Upper bound on live payload-cache entries (LRU eviction beyond
    #: it).  Every distinct ``(array, attr subset)`` a workload queries
    #: costs one concatenated copy of that array's cells, so an
    #: unbounded cache would grow with the *query* population, not the
    #: data; a small LRU keeps the steady-state working set (a handful
    #: of attr subsets per array) while bounding one-off queries.
    PAYLOAD_CACHE_MAX = 32

    #: Optimistic snapshot captures before falling back to the write
    #: lock (the retry-on-epoch-race guard).
    SNAPSHOT_RETRIES = 5

    def __init__(self) -> None:
        cap = self._INITIAL_CAPACITY
        self._id_of: Dict[ChunkRef, int] = {}
        self._refs = np.empty(cap, dtype=object)
        self._chunks = np.empty(cap, dtype=object)
        self._size = np.zeros(cap, dtype=np.float64)
        self._node = np.full(cap, -1, dtype=np.int64)
        self._free: List[int] = []
        self._hwm = 0
        self._views: Dict[str, _ArrayView] = {}
        self._schema_of: Dict[str, object] = {}
        self._deltas: Dict[str, _DeltaLog] = {}
        self._epoch = 0
        # payload LRU: (array, normalized attrs, ndim) -> (epoch,
        # coords, values); most recently used at the end.
        self._payload_cache: OrderedDict[
            Tuple[str, Tuple[str, ...], int],
            Tuple[int, np.ndarray, Dict[str, np.ndarray]],
        ] = OrderedDict()
        #: Cache telemetry (the retention benchmark reports these).
        self.payload_hits = 0
        self.payload_misses = 0
        # Concurrency: mutations serialize on the write lock and bracket
        # themselves with the seqlock counter (odd while a mutation is
        # in flight); snapshot captures validate against it.  The
        # payload LRU gets its own lock — reads hit it from executor
        # threads while the coordinator mutates.
        self._write_lock = threading.RLock()
        self._write_seq = 0
        self._payload_lock = threading.RLock()
        # Last snapshot per array, valid while the array's epoch
        # stands (snapshots are immutable, so sharing one across
        # sessions is safe).
        self._snapshot_cache: Dict[str, ArraySnapshot] = {}

    # -- capacity ------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = len(self._size)
        if need <= cap:
            return
        new_cap = max(need, cap * 2)
        extra = new_cap - cap
        self._refs = np.concatenate(
            [self._refs, np.empty(extra, dtype=object)]
        )
        self._chunks = np.concatenate(
            [self._chunks, np.empty(extra, dtype=object)]
        )
        self._size = np.concatenate(
            [self._size, np.zeros(extra, dtype=np.float64)]
        )
        self._node = np.concatenate(
            [self._node, np.full(extra, -1, dtype=np.int64)]
        )

    def _alloc(self, count: int) -> np.ndarray:
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

    # -- reads ---------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        """Number of live chunks across all arrays."""
        return len(self._id_of)

    @property
    def epoch(self) -> int:
        """Global mutation counter (bumps on any catalog mutation)."""
        return self._epoch

    def epoch_of(self, array: str) -> int:
        """One array's mutation counter (0 when the array is unknown)."""
        view = self._views.get(array)
        return view.epoch if view is not None else 0

    def payload_epoch_of(self, array: str) -> int:
        """One array's *content* mutation counter.

        Advances with inserts, merges, and removals but not with pure
        relocations — the payload cache keys on this, so rebalances
        leave cached concatenations valid (ownership is not part of a
        payload).
        """
        view = self._views.get(array)
        return view.payload_epoch if view is not None else 0

    def arrays(self) -> List[str]:
        """Names of arrays with at least one live chunk, sorted."""
        return sorted(
            a for a, v in self._views.items() if len(v.ids)
        )

    def contains(self, ref: ChunkRef) -> bool:
        """Whether ``ref`` is currently catalogued."""
        return ref in self._id_of

    def node_of(self, ref: ChunkRef) -> NodeId:
        """Node holding ``ref`` (KeyError when not catalogued)."""
        return int(self._node[self._id_of[ref]])

    def payload_of(self, ref: ChunkRef) -> ChunkData:
        """The stored payload handle of ``ref`` (KeyError when absent)."""
        return self._chunks[self._id_of[ref]]

    def _ids_of_array(self, array: str) -> np.ndarray:
        view = self._views.get(array)
        if view is None:
            return np.empty(0, dtype=np.int64)
        return view.ids

    def _gather_pairs(
        self, ids: np.ndarray
    ) -> List[Tuple[ChunkData, NodeId]]:
        """(payload, node) pairs of the given ids, in id order."""
        return list(
            zip(self._chunks[ids].tolist(), self._node[ids].tolist())
        )

    def _gather_columns(
        self, array: str, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """(sizes, nodes, schema) columns of the given ids, in id order."""
        return (
            self._size[ids],
            self._node[ids],
            self._schema_of.get(array),
        )

    def pairs_of_array(
        self, array: str
    ) -> List[Tuple[ChunkData, NodeId]]:
        """All (payload, node) pairs of one array, key-sorted.

        One object-column gather in view order — the implementation
        of ``ElasticCluster.chunks_of_array``.
        """
        return self._gather_pairs(self._ids_of_array(array))

    def placement_of_array(self, array: str) -> Dict[ChunkKey, NodeId]:
        """Chunk key → node map of one array, from the catalog columns."""
        ids = self._ids_of_array(array)
        return {
            ref.key: node
            for ref, node in zip(
                self._refs[ids].tolist(), self._node[ids].tolist()
            )
        }

    def scan_columns_of(
        self, array: str
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """``(sizes, nodes, schema)`` columns of one array's live chunks.

        The cost model lowers whole-array scans from these directly
        (:func:`repro.query.cost.array_scan_columns`) instead of
        materializing a (chunk, node) pair list first.  The returned
        arrays are fresh copies (fancy-indexed gathers) in view order.
        """
        return self._gather_columns(array, self._ids_of_array(array))

    # -- region routing ------------------------------------------------
    def ids_in_region(self, array: str, region: Box) -> np.ndarray:
        """Live chunk ids of one array whose boxes intersect ``region``.

        The query box is converted into per-dimension chunk-coordinate
        intervals once
        (:meth:`repro.arrays.schema.ArraySchema.chunk_intervals_of`, the
        inverse of ``chunk_box``) and the selection is a single
        vectorized comparison over the view's ``(n, ndim)`` key matrix —
        no per-chunk ``Box`` construction, no Python loop.  The result
        preserves the view's key-sorted order, exactly the order the
        per-chunk ``intersects`` oracle walks.

        Unknown arrays yield an empty selection.  Raises
        :class:`~repro.errors.SchemaError` when the region's arity does
        not match the array's.
        """
        view = self._views.get(array)
        if view is None or not len(view.ids):
            return np.empty(0, dtype=np.int64)
        schema = self._schema_of[array]
        intervals = schema.chunk_intervals_of(region)
        if intervals is None:
            return np.empty(0, dtype=np.int64)
        lows, highs = intervals
        rows = view.rows
        mask = ((rows >= lows) & (rows <= highs)).all(axis=1)
        return view.ids[mask]

    def pairs_in_region(
        self, array: str, region: Box
    ) -> List[Tuple[ChunkData, NodeId]]:
        """Region-touched (payload, node) pairs, key-sorted.

        The region-scoped sibling of :meth:`pairs_of_array` — the
        implementation of ``ElasticCluster.chunks_in_region``.
        """
        return self._gather_pairs(self.ids_in_region(array, region))

    def region_scan_columns(
        self, array: str, region: Box
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """``(sizes, nodes, schema)`` columns of a region's live chunks.

        The region-scoped sibling of :meth:`scan_columns_of`: the cost
        model charges region-touched scans straight from these gathers
        (:func:`repro.query.cost.region_scan_columns`) without
        materializing the (chunk, node) pair list.
        """
        return self._gather_columns(
            array, self.ids_in_region(array, region)
        )

    def region_read(
        self, array: str, region: Box
    ) -> Tuple[
        List[Tuple[ChunkData, NodeId]],
        Tuple[np.ndarray, np.ndarray, Optional[object]],
    ]:
        """Pairs *and* scan columns of a region, from one routing pass.

        Queries that both read the touched chunks and charge the scan
        (selections, the k-means working set) need the pair list and
        the byte/owner columns together; this runs
        :meth:`ids_in_region` once and gathers both from the same ids,
        instead of routing the region twice.
        """
        ids = self.ids_in_region(array, region)
        return (
            self._gather_pairs(ids),
            self._gather_columns(array, ids),
        )

    def payload_of_array(
        self,
        array: str,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Concatenated cells of one array, cached per payload epoch.

        Returns ``(coords, {attr: values})`` over the array's chunks in
        catalog (key-sorted) order.  The result is cached keyed by
        ``(array, attrs, ndim)`` — with ``attrs`` normalized (sorted,
        deduplicated), so permutations of one attr subset share a single
        entry — and the array's current payload epoch; any content
        mutation bumps that epoch and drops the entry, so a stale
        concatenation can never be served, while pure relocations
        (rebalances) keep the cache warm.  The cache is a small LRU
        bounded at :attr:`PAYLOAD_CACHE_MAX` entries, so attr subsets
        that stop being queried age out instead of pinning their
        concatenations forever.  Callers must treat the returned arrays
        as read-only.
        """
        key = (array, tuple(sorted(set(attrs))), int(ndim))
        with self._payload_lock, lockdep.held("payload-lru"):
            epoch = self.payload_epoch_of(array)
            cached = self._payload_cache.get(key)
            if cached is not None and cached[0] == epoch:
                self.payload_hits += 1
                self._payload_cache.move_to_end(key)
                return cached[1], cached[2]
            self.payload_misses += 1
        ids = self._ids_of_array(array)
        coords, values = concat_payload(
            self._chunks[ids].tolist(), attrs, ndim
        )
        self._store_payload(key, epoch, coords, values)
        return coords, values

    def payload_in_region(
        self,
        array: str,
        region: Box,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Cells of one array strictly inside ``region``, cached.

        The region-scoped sibling of :meth:`payload_of_array`: the
        result is the region's cells *after* the cell-level clip (not
        just the touched chunks' cells), so a hot selection served from
        the cache skips both the per-chunk concatenation and the
        per-chunk region mask.  Entries share the same LRU
        (:attr:`PAYLOAD_CACHE_MAX`) and the same payload-epoch
        invalidation as whole-array payloads — the region bounds simply
        extend the cache key — so content mutations drop them eagerly
        while pure relocations keep them warm, and regions that stop
        being queried age out of the LRU.  Callers must treat the
        returned arrays as read-only.
        """
        key = (
            array, tuple(sorted(set(attrs))), int(ndim),
            region.lo, region.hi,
        )
        with self._payload_lock, lockdep.held("payload-lru"):
            epoch = self.payload_epoch_of(array)
            cached = self._payload_cache.get(key)
            if cached is not None and cached[0] == epoch:
                self.payload_hits += 1
                self._payload_cache.move_to_end(key)
                return cached[1], cached[2]
            self.payload_misses += 1
        ids = self.ids_in_region(array, region)
        coords, values = concat_payload(
            self._chunks[ids].tolist(), attrs, ndim
        )
        if coords.shape[0]:
            mask = np.ones(coords.shape[0], dtype=bool)
            for d in range(len(region.lo)):
                mask &= coords[:, d] >= region.lo[d]
                mask &= coords[:, d] < region.hi[d]
            coords = coords[mask]
            values = {a: v[mask] for a, v in values.items()}
        self._store_payload(key, epoch, coords, values)
        return coords, values

    def count_payload_hit(self) -> None:
        """Count a repeat that a snapshot's memo answered."""
        with self._payload_lock, lockdep.held("payload-lru"):
            self.payload_hits += 1

    def _store_payload(
        self,
        key: Tuple,
        epoch: int,
        coords: np.ndarray,
        values: Dict[str, np.ndarray],
    ) -> None:
        """Install a concatenation in the LRU (lock held only here).

        The concatenation itself runs outside the payload lock so a
        slow concat never blocks cache hits on other threads; the
        install re-checks the array's payload epoch and drops the entry
        on the floor if a content mutation landed mid-concat — a stale
        concatenation must never enter the cache, even transiently,
        because a snapshot pinned at the new epoch could otherwise be
        served bytes from the old one.
        """
        with self._payload_lock, lockdep.held("payload-lru"):
            if self.payload_epoch_of(key[0]) != epoch:
                return
            self._payload_cache[key] = (epoch, coords, values)
            self._payload_cache.move_to_end(key)
            while len(self._payload_cache) > self.PAYLOAD_CACHE_MAX:
                self._payload_cache.popitem(last=False)

    # -- content delta log ---------------------------------------------
    def deltas_since(self, array: str, epoch: int) -> CatalogDelta:
        """One array's content mutations strictly after ``epoch``.

        The incremental-maintenance read path: a consumer snapshots
        :meth:`payload_epoch_of` after folding a batch in and passes
        that cursor next cycle; the log's epoch column is non-decreasing
        so the slice is one ``searchsorted`` plus an O(delta) gather.
        Pure relocations log nothing, so a cursor held across a
        rebalance sees an *empty* delta.  Unknown arrays (or a cursor at
        the current payload epoch) yield empty columns.
        """
        log = self._deltas.get(array)
        if log is None:
            return _EMPTY_LOG.since(0)
        return log.since(epoch)

    def delta_scan_columns(
        self, array: str, epoch: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[object]]:
        """``(sizes, nodes, schema)`` columns of a delta's touched rows.

        The maintenance-plan sibling of :meth:`scan_columns_of`: the
        cost model charges the incremental plan straight from the delta
        log's byte/owner columns — added *and* removed rows, since the
        operators read both — shaped exactly like the other catalog
        lowerings so :func:`repro.query.cost._lower_catalog_columns`
        applies unchanged.
        """
        delta = self.deltas_since(array, epoch)
        return delta.sizes, delta.nodes, self._schema_of.get(array)

    def verify_delta_log(self) -> None:
        """Replay every array's delta log and compare to the live set.

        Summing each ref's signs in log order must reproduce the
        catalog's current live chunks exactly: every live ref at net
        weight ``+1`` with its last-added handle being the stored one,
        every expired ref at net weight ``0``, and nothing else.  Run
        from ``ElasticCluster.check_consistency`` after every mutation
        batch in the test suites.

        Raises
        ------
        ClusterError
            On any divergence between the replayed and live sets.
        """
        replayed: Dict[str, Dict[ChunkRef, Tuple[int, ChunkData]]] = {}
        for array, log in self._deltas.items():
            net = replayed.setdefault(array, {})
            n = log.count
            for sign, ref, chunk in zip(
                log.signs[:n].tolist(),
                log.refs[:n].tolist(),
                log.chunks[:n].tolist(),
            ):
                weight, handle = net.get(ref, (0, None))
                weight += sign
                if weight < 0 or weight > 1:
                    raise ClusterError(
                        f"delta log of {array!r} reaches weight "
                        f"{weight} for {ref} during replay"
                    )
                net[ref] = (weight, chunk if sign > 0 else handle)
        for array, net in replayed.items():
            live = {
                ref: (1, self._chunks[i])
                for ref, i in self._id_of.items()
                if ref.array == array
            }
            survivors = {
                ref: entry for ref, entry in net.items()
                if entry[0] > 0
            }
            if set(survivors) != set(live):
                missing = set(live) - set(survivors)
                extra = set(survivors) - set(live)
                raise ClusterError(
                    f"delta-log replay of {array!r} diverges from the "
                    f"live set (missing={len(missing)}, "
                    f"extra={len(extra)})"
                )
            for ref, (_, handle) in survivors.items():
                if handle is not live[ref][1]:
                    raise ClusterError(
                        f"delta-log replay of {array!r} lands on a "
                        f"stale payload handle for {ref}"
                    )
        # Arrays with live chunks but no log cannot replay at all.
        for ref in self._id_of:
            if ref.array not in self._deltas:
                raise ClusterError(
                    f"array {ref.array!r} has live chunks but no "
                    "delta log"
                )

    # -- snapshots -----------------------------------------------------
    def _capture_array(self, array: str) -> ArraySnapshot:
        """Gather one array's frozen column slices (no validation)."""
        view = self._views.get(array)
        log = self._deltas.get(array)
        if log is not None:
            log_cols: Optional[Tuple[np.ndarray, ...]] = (
                log.epochs, log.signs, log.refs, log.chunks,
                log.sizes, log.nodes,
            )
            log_count = log.count
        else:
            log_cols, log_count = None, 0
        if view is None:
            width = 0
            return ArraySnapshot(
                array=array,
                schema=self._schema_of.get(array),
                epoch=0,
                payload_epoch=0,
                refs=np.empty(0, dtype=object),
                chunks=np.empty(0, dtype=object),
                sizes=np.empty(0, dtype=np.float64),
                nodes=np.empty(0, dtype=np.int64),
                rows=np.empty((0, width), dtype=np.int64),
                log_cols=log_cols,
                log_count=log_count,
                catalog=self,
            )
        ids = view.ids
        return ArraySnapshot(
            array=array,
            schema=self._schema_of.get(array),
            epoch=view.epoch,
            payload_epoch=view.payload_epoch,
            refs=self._refs[ids].copy(),
            chunks=self._chunks[ids].copy(),
            sizes=self._size[ids].copy(),
            nodes=self._node[ids].copy(),
            rows=view.rows.copy(),
            log_cols=log_cols,
            log_count=log_count,
            catalog=self,
        )

    def snapshot(self, array: str) -> ArraySnapshot:
        """An epoch-pinned :class:`ArraySnapshot` of one array.

        Snapshots are immutable, so the last capture per array is
        memoized and handed back as long as the array's epoch has not
        moved — pinning a quiescent array costs a dict probe, not a
        column gather (sessions opened per query or per refresh stay
        cheap between mutations).

        A fresh capture is optimistic: the column gather runs without
        the write lock and is validated against the mutation seqlock —
        if a mutation lands (or is in flight) during the gather, the
        capture is discarded and retried (:attr:`SNAPSHOT_RETRIES`
        times), then the final attempt takes the write lock and
        captures from a provably quiescent catalog.  Unknown arrays
        yield an empty snapshot at epoch 0, mirroring the live read
        surface.
        """
        cached = self._snapshot_cache.get(array)
        if cached is not None:
            seq = self._write_seq
            if not (seq & 1):
                view = self._views.get(array)
                if (
                    view is not None
                    and view.epoch == cached.epoch
                    and self._write_seq == seq
                ):
                    return cached
        for _ in range(self.SNAPSHOT_RETRIES):
            seq = self._write_seq
            if seq & 1:
                # A mutation is mid-flight; yield and re-read.
                continue
            try:
                snap = self._capture_array(array)
            except Exception:
                # Torn gather (columns rewritten under us): retry.
                continue
            if self._write_seq == seq:
                if len(snap):
                    self._snapshot_cache[array] = snap
                return snap
        with self._write_lock, lockdep.held("catalog-seqlock"):
            snap = self._capture_array(array)
            if len(snap):
                self._snapshot_cache[array] = snap
            return snap

    # -- mutation ------------------------------------------------------
    @contextmanager
    def _write(self) -> Iterator[None]:
        """Serialize a mutation and bracket it with the seqlock.

        The counter is odd exactly while a mutation is in flight, so an
        optimistic snapshot capture that observes the same even value
        before and after its gather is guaranteed consistent.
        """
        with self._write_lock, lockdep.held("catalog-seqlock"):
            self._write_seq += 1
            try:
                yield
            finally:
                self._write_seq += 1

    def _touch(self, arrays, contents: bool = True) -> None:
        """Bump the global epoch and every touched array's epoch.

        With ``contents`` (inserts, merges, removals) the arrays'
        payload epochs advance too and their cached payloads are dropped
        immediately — the epoch check alone would keep a stale
        concatenation pinned in memory until the same (array, attrs)
        combination is queried again, which for expired arrays is
        never.  Pure relocations pass ``contents=False``: ownership is
        not part of a payload, so the cache stays valid.
        """
        self._epoch += 1
        touched = set()
        for array in arrays:
            touched.add(array)
            view = self._views.get(array)
            if view is not None:
                view.epoch = self._epoch
                if contents:
                    view.payload_epoch = self._epoch
        if contents:
            with self._payload_lock, lockdep.held("payload-lru"):
                for key in [
                    k for k in self._payload_cache if k[0] in touched
                ]:
                    del self._payload_cache[key]

    def _log_deltas(
        self, log_by_array: Dict[str, List[Tuple]]
    ) -> None:
        """Append collected (sign, ref, chunk, size, node) rows.

        Called after :meth:`_touch`, so every appended row carries the
        epoch the mutation landed at — ``deltas_since(array, cursor)``
        with a cursor snapshotted from :meth:`payload_epoch_of` returns
        exactly the mutations the cursor holder has not yet folded in.
        """
        epoch = self._epoch
        for array, entries in log_by_array.items():
            if not entries:
                continue
            log = self._deltas.get(array)
            if log is None:
                log = self._deltas[array] = _DeltaLog()
            signs, refs, chunks, sizes, nodes = zip(*entries)
            log.append(epoch, signs, list(refs), list(chunks), sizes,
                       nodes)

    def put_batch(
        self,
        chunks: Sequence[ChunkData],
        nodes: Sequence[NodeId],
    ) -> None:
        """Record stored chunks (insert or merge), in batch order.

        ``chunks`` must be the objects the node stores actually hold
        after the physical put — for a merge the store replaces its
        payload with a new merged :class:`ChunkData`, and the catalog
        handle follows it.  New refs are interned and merged into their
        array's sorted view; known refs refresh their payload handle and
        bytes in place (their node must not change — merges never
        relocate).
        """
        if not chunks:
            return
        with self._write():
            id_of = self._id_of
            new_by_array: Dict[str, Tuple[List[int], List[ChunkKey]]] = {}
            log_by_array: Dict[str, List[Tuple]] = {}
            touched = set()
            for chunk, node in zip(chunks, nodes):
                ref = chunk.ref()
                array = ref.array
                touched.add(array)
                entries = log_by_array.setdefault(array, [])
                i = id_of.get(ref)
                if i is None:
                    i = int(self._alloc(1)[0])
                    id_of[ref] = i
                    self._refs[i] = ref
                    self._node[i] = node
                    if array not in self._schema_of:
                        self._schema_of[array] = chunk.schema
                    new_ids, new_keys = new_by_array.setdefault(
                        array, ([], [])
                    )
                    new_ids.append(i)
                    new_keys.append(ref.key)
                    entries.append(
                        (1, ref, chunk, chunk.size_bytes, node)
                    )
                else:
                    old = self._chunks[i]
                    if old is not chunk:
                        # A merge replaced the stored payload: the
                        # retiring handle leaves the ZSet, the merged
                        # one enters it.
                        old_node = int(self._node[i])
                        entries.append(
                            (-1, ref, old, float(self._size[i]),
                             old_node)
                        )
                        entries.append(
                            (1, ref, chunk, chunk.size_bytes, old_node)
                        )
                self._chunks[i] = chunk
                self._size[i] = chunk.size_bytes
            for array, (new_ids, new_keys) in new_by_array.items():
                view = self._views.get(array)
                if view is None:
                    view = _ArrayView(len(new_keys[0]))
                    self._views[array] = view
                view.insert(
                    np.asarray(new_ids, dtype=np.int64),
                    np.asarray(new_keys, dtype=np.int64),
                )
            self._touch(touched)
            self._log_deltas(log_by_array)

    def relocate_batch(
        self,
        refs: Sequence[ChunkRef],
        dests: Sequence[NodeId],
    ) -> None:
        """Reassign many chunks' owner nodes (sorted views unchanged)."""
        if not refs:
            return
        with self._write():
            id_of = self._id_of
            ids = np.fromiter(
                (id_of[r] for r in refs), dtype=np.int64,
                count=len(refs)
            )
            self._node[ids] = np.asarray(dests, dtype=np.int64)
            self._touch({r.array for r in refs}, contents=False)

    def remove_batch(self, refs: Sequence[ChunkRef]) -> None:
        """Drop chunks from the catalog; their ids join the free list.

        Each dropped chunk enters the array's delta log at ``-1`` with
        the payload handle, bytes, and owner it retired with — expiry is
        a negative delta to the incremental maintenance layer.
        """
        if not refs:
            return
        with self._write():
            by_array: Dict[str, List[int]] = {}
            log_by_array: Dict[str, List[Tuple]] = {}
            for ref in refs:
                i = self._id_of.pop(ref)
                log_by_array.setdefault(ref.array, []).append(
                    (-1, ref, self._chunks[i], float(self._size[i]),
                     int(self._node[i]))
                )
                self._refs[i] = None
                self._chunks[i] = None
                self._size[i] = 0.0
                self._node[i] = -1
                self._free.append(i)
                by_array.setdefault(ref.array, []).append(i)
            for array, dead in by_array.items():
                self._views[array].drop(
                    np.asarray(dead, dtype=np.int64)
                )
            self._touch(by_array)
            self._log_deltas(log_by_array)

    # -- compaction ----------------------------------------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk column slots (live + dead + headroom)."""
        return len(self._size)

    @property
    def dead_slot_fraction(self) -> float:
        """Fraction of :attr:`column_capacity` not holding a live chunk."""
        cap = len(self._size)
        return 1.0 - len(self._id_of) / cap if cap else 0.0

    def compact(self, min_dead_fraction: float = 0.0) -> bool:
        """Re-intern live ids into dense slots and shrink the columns.

        Observable state — pairs, placements, scan columns, epochs, and
        live payload-cache entries — is unchanged; only the internal id
        space is rewritten (the per-array views are remapped in place,
        preserving their sort order).  Mirrors
        :meth:`repro.core.ledger.ArrayChunkLedger.compact`.

        Returns
        -------
        bool
            ``True`` when the columns were rebuilt.
        """
        with self._write():
            cap = len(self._size)
            live = len(self._id_of)
            if cap == 0 or self.dead_slot_fraction < min_dead_fraction:
                return False
            new_cap = max(self._INITIAL_CAPACITY, live)
            if not self._free and cap <= new_cap:
                return False
            old_ids = np.fromiter(
                self._id_of.values(), dtype=np.int64, count=live
            )
            old_ids.sort()
            mapping = np.full(cap, -1, dtype=np.int64)
            mapping[old_ids] = np.arange(live, dtype=np.int64)
            refs = self._refs[old_ids]
            new_refs = np.empty(new_cap, dtype=object)
            new_refs[:live] = refs
            new_chunks = np.empty(new_cap, dtype=object)
            new_chunks[:live] = self._chunks[old_ids]
            new_size = np.zeros(new_cap, dtype=np.float64)
            new_size[:live] = self._size[old_ids]
            new_node = np.full(new_cap, -1, dtype=np.int64)
            new_node[:live] = self._node[old_ids]
            self._refs = new_refs
            self._chunks = new_chunks
            self._size = new_size
            self._node = new_node
            self._id_of = dict(zip(refs.tolist(), range(live)))
            self._free = []
            self._hwm = live
            for view in self._views.values():
                if len(view.ids):
                    view.ids = mapping[view.ids]
            return True
