"""The cluster-wide columnar chunk catalog.

:class:`ChunkCatalog` is the single authoritative, incrementally
maintained index of every chunk physically stored in the cluster:
``(array, chunk key, owner node, bytes, payload handle)``.  It interns
nothing: it publishes from the partitioner's chunk table
(:class:`repro.core.ledger.ArrayChunkLedger`, the one ``ChunkRef -> id``
map), in columns indexed by the table's ids — payload handles, bytes,
and the published owner.  The coordinator updates it in place on every
mutation, so a read is an O(live-chunks-of-array) column gather with
**no per-node store walk and no per-query re-sort**.

Planned and published owners
----------------------------
The table's owner is the *planned* one (``partitioner.scale_out``
rewrites it before a byte moves); the catalog copies it into the
*published* owner in the same mutation once the stores hold the
bytes (:meth:`ChunkCatalog.put_batch`,
:meth:`ChunkCatalog.relocate_batch`).  Snapshots gather published
columns only, and the two are equal at quiescence
(:meth:`ChunkCatalog.verify_published`; the id lifecycle is in
``docs/invariants.md``).

One reader
----------
Every per-array read — pairs, placement, the region family, payloads,
deltas — is answered by an :class:`ArraySnapshot`: an immutable capture
of the array's column slices, memoized per array epoch
(:meth:`ChunkCatalog.snapshot`).  A chunk read — whole array, region or
delta — is one :class:`Read`: the touched chunks' handle, byte and owner
columns from one routing pass, which the cost model prices and the
query bodies walk as ``(chunk, node)`` pairs.  Queries read through a
:class:`~repro.cluster.session.ClusterSession`, which pins one and keeps
it.  The catalog's own per-array methods
(:meth:`~ChunkCatalog.pairs_of_array`,
:meth:`~ChunkCatalog.payload_in_region`, ...) read through the current
one; only tests and the benchmark's span table call them.  A live read
and a pinned read are therefore the same code over the same frozen
columns, and nothing outside a capture ever gathers a mutable column.
(The by-ref probe :meth:`~ChunkCatalog.payload_of` is
``check_consistency``'s view of the published table, not a query read.)

Per-array sorted views
----------------------
For each array the catalog keeps its live chunk ids sorted by chunk key
(the order ``ClusterSession.chunks_of_array`` returns).
The views are maintained incrementally: a batch of inserts merges its
(pre-sorted) new ids into the existing view with one ``searchsorted`` +
``insert``; removals mask ids out; relocations touch only the owner
column and leave the order alone.  Nothing is rebuilt per query.

Epochs and the payload cache
----------------------------
Every mutation that touches an array bumps that array's **epoch** (and
the global one); mutations that change cell contents — inserts, merges,
removals — additionally bump its **payload epoch**.  A snapshot's
payload reads gather its frozen handles in catalog order
(:func:`concat_payload`: chunks are extents of their ingest batch's
arena, catalog order is batch after batch, so the gather copies one
slab per run of adjacent extents rather than one piece per chunk) and
cache the result in the catalog's one LRU, keyed by the *content
version*: ``(array, pinned payload epoch, normalized attrs, ndim[,
region])``.
An entry is therefore a pure function of its key — every snapshot of
one content version, in any session and across relocation-only epochs,
shares one concatenation (ownership is not part of a payload, so
rebalances keep the cache warm), no entry can answer a pin of another
version, and there is no protocol to validate when one is installed.
A content mutation drops the touched array's entries eagerly (for an
expired array the same query never recurs), and a small bound
(:attr:`ChunkCatalog.PAYLOAD_CACHE_MAX`) ages out attr subsets and
regions that stop being queried.  Compaction (:meth:`compact`)
re-interns the table's ids but preserves every observable, including
live cache entries and epochs.  Snapshots reach the LRU through a weak
reference to their catalog: the catalog memoizes its snapshots, so a
strong one would be a cycle, and a dropped cluster's chunk column and
cached payloads would wait for the cyclic collector instead of dying
with it.

Content delta log
-----------------
Every content mutation additionally appends signed rows to a per-array
**delta log** (:class:`_DeltaLog`): inserts append ``+1`` rows, removals
append ``-1`` rows, and a merge that replaces a stored payload appends
the retiring handle at ``-1`` followed by the merged handle at ``+1``.
Pure relocations append nothing — ownership changes are not content.
A snapshot pins the log's length; ``deltas_since`` slices the pinned
prefix after an epoch cursor in one ``searchsorted``, returning the
added/removed chunk columns the incremental query-maintenance layer
(:mod:`repro.query.incremental`) folds into its operator state, so
steady-state maintenance touches only what changed.  The log stores
refs and payload handles, not table ids, so :meth:`compact` leaves
it untouched, and replaying it from epoch 0 must land exactly on the
live set — :meth:`verify_delta_log` checks that, and
``ElasticCluster.check_consistency`` calls it.

Specification
-------------
The pre-catalog read path — re-walk every node's store per query, and
execute rebalances one evict/put at a time — lives on as plain
functions of a cluster in ``tests/oracles/cluster.py``;
``tests/test_catalog.py`` compares both read paths on one cluster.  The
per-chunk publish loops are specs in ``tests/oracles/catalog.py``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from operator import attrgetter
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.arrays.chunk import ChunkData, ChunkKey, ChunkRef
from repro.arrays.coords import Box, pack_rows_void, region_mask
from repro.core.ledger import ArrayChunkLedger, resize_column
from repro.errors import ChunkError, ClusterError

NodeId = int
#: A concatenated cell table: ``(coords, {attr: values})``.
Payload = Tuple[np.ndarray, Dict[str, np.ndarray]]


def concat_payload(
    chunks: Sequence[ChunkData],
    attrs: Sequence[str],
    ndim: int = 0,
) -> Payload:
    """Concatenate chunks' cells into one coordinate/value table.

    The one place chunks become a cell table: snapshot payload reads
    and the session's explicit-pair gather both call it.  ``ndim``
    shapes the empty coordinate table when ``chunks`` is empty.

    A gather is a walk over *runs*, not chunks.  A chunk cut from a
    batch arena is a row range of it
    (:attr:`~repro.arrays.chunk.ChunkData.extent`), and key-sorted
    neighbours of one batch are adjacent ranges, so the walk widens the
    open run while ``extent.arena is run.arena and extent.lo == run.hi``
    and starts a new one otherwise; a chunk without an extent is a run
    over its own arrays, read through one ``payload_parts()`` call (one
    fault for a spilled handle).  Each output column is then one
    ``np.concatenate`` over one slice per run — a handful of slab
    copies for a whole-array read of batch-ordered data, the per-chunk
    copy list when no two chunks are adjacent.  The result is always a
    fresh copy: it never aliases an arena or a chunk's arrays.
    """
    if not chunks:
        return (
            np.empty((0, ndim), dtype=np.int64),
            {a: np.empty(0) for a in attrs},
        )
    # One (coords, columns, lo, hi) per run.  The open arena run lives in
    # three locals and is appended when it closes: widening it is then a
    # local store per chunk, a quarter faster than updating a list slot.
    runs: List[Tuple[np.ndarray, Dict[str, np.ndarray], int, int]] = []
    arena, lo, hi = None, 0, 0
    for chunk in chunks:
        extent = chunk.extent
        if extent is not None and extent[0] is arena and extent[1] == hi:
            hi = extent[2]
            continue
        if arena is not None:
            runs.append((arena.coords, arena.columns, lo, hi))
        if extent is not None:
            arena, lo, hi = extent
            columns = arena.columns
        else:
            arena = None
            coords, columns = chunk.payload_parts()
            runs.append((coords, columns, 0, coords.shape[0]))
        for a in attrs:
            if a not in columns:
                raise ChunkError(
                    f"array {chunk.schema.name} has no attribute {a!r}"
                )
    if arena is not None:
        runs.append((arena.coords, arena.columns, lo, hi))
    coords = np.concatenate([c[lo:hi] for c, _, lo, hi in runs], axis=0)
    values = {
        a: np.concatenate([cols[a][lo:hi] for _, cols, lo, hi in runs])
        for a in attrs
    }
    return coords, values


#: Chunk keys sort by their lexicographic void view: chunk-count-sized
#: columns, keys of any magnitude (cell positions use int64 keys).
_pack_keys = pack_rows_void


def _array_codes(refs: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """The distinct arrays of ``refs`` in first-seen order, and each
    ref's index into them (C-level ``map`` passes, no Python frame per
    ref)."""
    names = list(map(attrgetter("array"), refs.tolist()))
    index = {a: i for i, a in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(
        map(index.__getitem__, names), dtype=np.int64, count=len(names)
    )
    return list(index), codes


class Read:
    """One array's chunks as one snapshot read returned them.

    The value every per-array read answers with — whole array, region
    or delta: read-only parallel columns (payload handles, modeled
    bytes, hosting nodes) plus the array's schema, from one routing
    pass.  It iterates and indexes as ``(chunk, node)`` pairs, so every
    pair-walker takes it unchanged, while the cost model prices it from
    its columns (:func:`repro.query.cost.charge_scan`) with no pair list
    in between.  ``rows`` are the chunks' ``(n, ndim)`` int64 keys.
    """

    __slots__ = ("chunks", "sizes", "nodes", "schema", "_rows")

    def __init__(
        self,
        chunks: np.ndarray,
        sizes: np.ndarray,
        nodes: np.ndarray,
        schema: Optional[object],
        rows: Optional[np.ndarray] = None,
    ) -> None:
        for column in (chunks, sizes, nodes, rows):
            if column is not None:
                column.flags.writeable = False
        self.chunks = chunks
        self.sizes = sizes
        self.nodes = nodes
        self.schema = schema
        self._rows = rows

    @property
    def rows(self) -> np.ndarray:
        """The chunks' keys as ``(n, ndim)`` int64 rows, in read order."""
        if self._rows is None:
            keys = [c.key for c in self.chunks.tolist()]
            return np.array(keys, dtype=np.int64).reshape(len(keys), -1)
        return self._rows

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def __iter__(self) -> Iterator[Tuple[ChunkData, NodeId]]:
        return zip(self.chunks.tolist(), self.nodes.tolist())

    def __getitem__(self, i: int) -> Tuple[ChunkData, NodeId]:
        if not isinstance(i, (int, np.integer)):
            raise TypeError(
                f"Read indices must be integers, not {type(i).__name__};"
                " take list(read) to slice"
            )
        return self.chunks[i], int(self.nodes[i])


class CatalogDelta(Read):
    """One array's content mutations after an epoch cursor, as a read.

    A numpy-native ZSet over chunks: the :class:`Read` columns in log
    (mutation) order, plus ``signs`` carrying the weight of each row —
    ``+1`` for a chunk that entered the live set, ``-1`` for one that
    left it.  A merge that replaced a stored payload contributes its
    retiring handle at ``-1`` immediately followed by the merged handle
    at ``+1``.  Summing signs per ref therefore replays to the live set,
    and the incremental maintenance layer folds the same rows into its
    operator state (added cells at ``+1``, expired cells at ``-1``).
    ``nodes`` holds the chunk at mutation time: added rows the owner
    after the put, removed rows the owner the chunk left.
    """

    __slots__ = ("epochs", "signs", "refs")

    def __init__(
        self,
        epochs: np.ndarray,
        signs: np.ndarray,
        refs: np.ndarray,
        chunks: np.ndarray,
        sizes: np.ndarray,
        nodes: np.ndarray,
        schema: Optional[object],
    ) -> None:
        super().__init__(chunks, sizes, nodes, schema)
        #: Catalog epoch at which each mutation landed (non-decreasing).
        self.epochs = epochs
        #: ZSet weight of each row: ``+1`` added, ``-1`` removed.
        self.signs = signs
        #: The mutated chunks' refs (object column).
        self.refs = refs

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

    Amortized-doubling numpy columns in the style of the chunk table's;
    ``epochs`` is non-decreasing by construction, so
    :meth:`since` finds a cursor with one ``searchsorted`` and the tail
    gather is O(delta).  Rows are keyed by ref and payload handle — not
    table ids — so compaction never rewrites the log.
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
            self.epochs = resize_column(self.epochs, new_cap, 0)
            self.signs = resize_column(self.signs, new_cap, 0)
            self.refs = resize_column(self.refs, new_cap, None)
            self.chunks = resize_column(self.chunks, new_cap, None)
            self.sizes = resize_column(self.sizes, new_cap, 0.0)
            self.nodes = resize_column(self.nodes, new_cap, -1)
        sl = slice(self.count, need)
        self.epochs[sl] = epoch
        self.signs[sl] = np.asarray(signs, dtype=np.int8)
        self.refs[sl] = refs
        self.chunks[sl] = chunks
        self.sizes[sl] = np.asarray(sizes, dtype=np.float64)
        self.nodes[sl] = np.asarray(nodes, dtype=np.int64)
        self.count = need

    def since(
        self, epoch: int, count: int, schema: Optional[object]
    ) -> CatalogDelta:
        """Rows strictly after ``epoch`` among the first ``count``.

        ``count`` is a log length some snapshot pinned: the log is
        append-only and rows below a pinned length are never rewritten
        (growth copies them into the new columns before rebinding), so
        the slice needs no copy-out at capture time and rows appended
        after the pin stay invisible.  Returns fresh column copies.
        """
        lo = int(
            np.searchsorted(self.epochs[:count], epoch, side="right")
        )
        sl = slice(lo, count)
        return CatalogDelta(
            epochs=self.epochs[sl].copy(),
            signs=self.signs[sl].copy(),
            refs=self.refs[sl].copy(),
            chunks=self.chunks[sl].copy(),
            sizes=self.sizes[sl].copy(),
            nodes=self.nodes[sl].copy(),
            schema=schema,
        )


#: Shared empty log: snapshots of arrays without one pin this.
_EMPTY_LOG = _DeltaLog()


class _ArrayView:
    """One array's live chunk ids, kept sorted by chunk key.

    Alongside the packed void keys (scalar comparisons for the
    ``searchsorted`` merge), the view keeps the same keys as an
    ``(n, ndim)`` int64 matrix — region routing selects chunks with one
    vectorized per-dimension interval comparison over the snapshot's
    copy of it (:meth:`ArraySnapshot.pairs_in_region` and siblings),
    never touching ``Box`` objects or per-chunk Python.

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
        """Merge pre-validated new ids into the sorted view.

        The new ``(n, ndim)`` key rows are ordered by one ``lexsort``
        over their int64 columns (first dimension most significant —
        the packed void order), then merged with one ``searchsorted``.
        """
        order = np.lexsort(new_keys.T[::-1])
        rows = new_keys[order]
        packed = _pack_keys(rows)
        positions = np.searchsorted(self.keys, packed)
        self.ids = np.insert(self.ids, positions, new_ids[order])
        self.keys = np.insert(self.keys, positions, packed)
        self.rows = np.insert(self.rows, positions, rows, axis=0)

    def drop(self, dead_ids: np.ndarray) -> None:
        """Remove ids from the view (order of survivors unchanged)."""
        keep = ~np.isin(self.ids, dead_ids)
        self.ids = self.ids[keep]
        self.keys = self.keys[keep]
        self.rows = self.rows[keep]


class ArraySnapshot:
    """An immutable, epoch-pinned view of one array's catalog state.

    MVCC-lite: :meth:`ChunkCatalog.snapshot` gathers the array's
    id/key/published-owner/bytes column slices (cheap — the per-array
    views are already copy-on-write-shaped) plus the length of its delta log at
    capture time.  Every read below answers from those frozen columns,
    so a query holding a snapshot never sees a half-applied rebalance,
    an expiry, or an ingest that lands after the pin — payload handles
    are immutable :class:`~repro.arrays.chunk.ChunkData` objects (merges
    create *new* objects), so even cell reads answer the pinned bytes
    after the coordinator mutates the live catalog.

    This is the catalog's one reader: sessions hold a snapshot per
    array, and the catalog's own per-array methods read through the
    current one (module docstring, "One reader").  Every chunk read
    returns a :class:`Read`; the whole-array one is built at capture.
    """

    __slots__ = (
        "array", "schema", "epoch", "payload_epoch",
        "_refs", "_chunks", "_sizes", "_nodes", "_rows", "_read",
        "_region_read", "_node_bounds", "_log", "_log_count", "_catalog",
    )

    def __init__(self, catalog: "ChunkCatalog", array: str) -> None:
        """Gather ``array``'s column slices from ``catalog``.

        :meth:`ChunkCatalog.snapshot` is the only caller.  Unknown
        arrays capture empty columns at epoch 0 and pin the shared
        empty log.
        """
        view = catalog._views.get(array)
        if view is None:
            ids = np.empty(0, dtype=np.int64)
            self.epoch = self.payload_epoch = 0
            self._rows = np.empty((0, 0), dtype=np.int64)
        else:
            ids = view.ids
            self.epoch = view.epoch
            self.payload_epoch = view.payload_epoch
            self._rows = view.rows.copy()
        self.array = array
        self.schema = catalog._schema_of.get(array)
        # Fancy-indexed gathers are already fresh copies.  A published
        # id's ref is fixed until the id is unpublished, so the table's
        # ref column is read like a published one.
        self._refs = catalog._table._refs[ids]
        self._chunks = catalog._chunks[ids]
        self._sizes = catalog._size[ids]
        self._nodes = nodes = catalog._owner[ids]
        self._node_bounds = (
            (int(nodes.min()), int(nodes.max())) if len(ids) else None
        )
        self._read = Read(
            self._chunks, self._sizes, nodes, self.schema, self._rows
        )
        self._region_read: Optional[Tuple[Tuple[Any, Any], Read]] = None
        self._log = log = catalog._deltas.get(array, _EMPTY_LOG)
        self._log_count = log.count
        # Weak: the catalog memoizes its snapshots, and a strong
        # back-reference would make the pair a cycle that only the
        # cyclic collector frees — every dropped cluster's chunk column
        # and payload LRU would linger until a gen-2 pass.
        self._catalog = weakref.ref(catalog)

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

    def node_bounds(self) -> Optional[Tuple[int, int]]:
        """``(min, max)`` node id holding pinned chunks.

        The cheap arm of the session's node-universe admission check:
        against a contiguous node set a bounds test is equivalent to
        the full subset test, and taking the two reductions once at
        capture keeps repeated pins of one shared snapshot O(1).
        ``None`` on empty snapshots (callers guard on ``len``).
        """
        return self._node_bounds

    # -- whole-array reads ---------------------------------------------
    def pairs(self) -> Read:
        """The pinned whole-array :class:`Read`, key-sorted."""
        return self._read

    def placement(self) -> Dict[ChunkKey, NodeId]:
        """Pinned chunk key → node map."""
        return {
            ref.key: node
            for ref, node in zip(
                self._refs.tolist(), self._nodes.tolist()
            )
        }

    # -- region reads --------------------------------------------------
    def _positions_in_region(self, region: Box) -> np.ndarray:
        """Snapshot positions whose chunk boxes intersect ``region``.

        The one region router.  The query box is converted into
        per-dimension chunk-coordinate intervals once
        (:meth:`repro.arrays.schema.ArraySchema.chunk_intervals_of`, the
        inverse of ``chunk_box``) and the selection is a single
        vectorized comparison over the pinned ``(n, ndim)`` key matrix —
        no per-chunk ``Box`` construction, no Python loop.  The result
        preserves the key-sorted order, exactly the order the per-chunk
        ``intersects`` oracle walks.

        Unknown and emptied arrays yield an empty selection.  Raises
        :class:`~repro.errors.SchemaError` when the region's arity does
        not match the array's.
        """
        if self.schema is None or not len(self):
            return np.empty(0, dtype=np.int64)
        intervals = self.schema.chunk_intervals_of(region)
        if intervals is None:
            return np.empty(0, dtype=np.int64)
        lows, highs = intervals
        mask = ((self._rows >= lows) & (self._rows <= highs)).all(axis=1)
        return np.nonzero(mask)[0]

    def pairs_in_region(self, region: Box) -> Read:
        """The pinned :class:`Read` of a region's touched chunks.

        The last region's read is kept, so a query that prices a region
        and then misses the clipped-payload cache on it
        (:meth:`payload_in_region`) routes the region once.  The
        snapshot is immutable, so the kept read never goes stale.
        """
        bounds = (region.lo, region.hi)
        kept = self._region_read
        if kept is not None and kept[0] == bounds:
            return kept[1]
        pos = self._positions_in_region(region)
        read = Read(
            self._chunks[pos], self._sizes[pos], self._nodes[pos],
            self.schema, self._rows[pos],
        )
        self._region_read = (bounds, read)
        return read

    # -- payload reads -------------------------------------------------
    def payload(self, attrs: Sequence[str], ndim: int = 0) -> Payload:
        """Pinned concatenated cells, in catalog (key-sorted) order.

        Cached in the catalog's LRU under the pinned payload epoch with
        ``attrs`` normalized (sorted, deduplicated), so permutations of
        one attr subset — and every snapshot of this content version —
        share a single entry.  Callers must treat the arrays as
        read-only.
        """
        key = (
            self.array, self.payload_epoch,
            tuple(sorted(set(attrs))), int(ndim),
        )
        return self._cached(
            key,
            lambda: concat_payload(self._chunks.tolist(), attrs, ndim),
        )

    def payload_in_region(
        self,
        region: Box,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Payload:
        """Pinned cells strictly inside ``region``, cached.

        The result is the region's cells *after* the cell-level clip
        (not just the touched chunks' cells), so a hot selection served
        from the cache skips both the per-chunk concatenation and the
        region mask.  Entries share the LRU and the eager drop of
        whole-array payloads — the region bounds simply extend the
        cache key.  A miss gathers :meth:`pairs_in_region`, so a region
        the caller just priced is not routed again.  Callers must treat
        the arrays as read-only.
        """
        key = (
            self.array, self.payload_epoch,
            tuple(sorted(set(attrs))), int(ndim), region.lo, region.hi,
        )

        def clipped() -> Payload:
            chunks = self.pairs_in_region(region).chunks.tolist()
            coords, values = concat_payload(chunks, attrs, ndim)
            mask = region_mask(coords, region)
            return coords[mask], {a: v[mask] for a, v in values.items()}

        return self._cached(key, clipped)

    def _cached(
        self, key: Tuple, compute: Callable[[], Payload]
    ) -> Payload:
        """``compute()`` through the owning catalog's payload LRU.

        A snapshot that outlives its catalog (the catalog does not keep
        itself alive through the snapshots it memoizes) still answers
        from its frozen handles — there is just no cache left to share.
        """
        catalog = self._catalog()
        if catalog is None:
            return compute()
        return catalog._cached_payload(key, compute)

    # -- delta reads ---------------------------------------------------
    def deltas_since(self, epoch: int) -> CatalogDelta:
        """Content mutations after ``epoch`` up to the pinned log end.

        The incremental-maintenance read path: a consumer takes its
        next cursor from :attr:`payload_epoch` after folding a batch in
        and passes it next cycle; the log's epoch column is
        non-decreasing so the slice is one ``searchsorted`` plus an
        O(delta) gather.  Rows appended after the snapshot was taken
        are invisible, so a maintained view refreshing against a
        snapshot folds exactly the mutations between its cursor and the
        pin — never a half-applied batch that lands mid-refresh.  Pure
        relocations log nothing, so a cursor held across a rebalance
        sees an *empty* delta; so do unknown arrays and a cursor at the
        pinned payload epoch.
        """
        return self._log.since(epoch, self._log_count, self.schema)

    # Names the benchmark's span table wraps; each is the read above.
    scan_columns = pairs
    region_scan_columns = region_read = pairs_in_region
    delta_scan_columns = deltas_since


class ChunkCatalog:
    """Columnar cluster-wide chunk index (see module docstring).

    Its columns are indexed by ``table``'s ids and sized to its
    capacity: the payload handle (the exact
    :class:`~repro.arrays.chunk.ChunkData` object the owning node's
    store holds, ``None`` for an unpublished id), modeled bytes, and the
    published owner.  A table has at most one live publisher.
    """

    #: Upper bound on live payload-cache entries (LRU eviction beyond
    #: it).  Every distinct ``(array, attr subset)`` a workload queries
    #: costs one concatenated copy of that array's cells, so an
    #: unbounded cache would grow with the *query* population, not the
    #: data; a small LRU keeps the steady-state working set (a handful
    #: of attr subsets per array) while bounding one-off queries.
    PAYLOAD_CACHE_MAX = 32

    def __init__(self, table: ArrayChunkLedger) -> None:
        if table.publisher is not None:
            raise ClusterError(
                "the chunk table is already published by another catalog"
            )
        table.publisher = self
        self._table = table
        cap = table.column_capacity
        self._chunks = np.full(cap, None, dtype=object)
        self._size = np.zeros(cap, dtype=np.float64)
        self._owner = np.full(cap, -1, dtype=np.int64)
        self._views: Dict[str, _ArrayView] = {}
        self._schema_of: Dict[str, object] = {}
        self._deltas: Dict[str, _DeltaLog] = {}
        self._epoch = 0
        # payload LRU: (array, payload epoch, normalized attrs, ndim
        # [, region.lo, region.hi]) -> (coords, values); most recently
        # used at the end.
        self._payload_cache: OrderedDict[Tuple, Payload] = OrderedDict()
        #: Cache telemetry (the retention benchmark reports these).
        self.payload_hits = 0
        self.payload_misses = 0
        # Last snapshot per array, valid while the array's epoch
        # stands (snapshots are immutable, so sharing one across
        # sessions is safe).
        self._snapshot_cache: Dict[str, ArraySnapshot] = {}

    @property
    def table(self) -> ArrayChunkLedger:
        """The chunk table this catalog publishes from."""
        return self._table

    def _fit_columns(self) -> None:
        """Grow the published columns to the table's capacity.

        Ids are born in the partitioner's commit, which may grow the
        table; the catalog catches up when it next publishes.
        """
        cap = self._table.column_capacity
        if len(self._chunks) < cap:
            self._chunks = resize_column(self._chunks, cap, None)
            self._size = resize_column(self._size, cap, 0.0)
            self._owner = resize_column(self._owner, cap, -1)

    # -- reads ---------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        """Number of published chunks across all arrays."""
        return sum(len(v.ids) for v in self._views.values())

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
        return sorted(a for a, v in self._views.items() if len(v.ids))

    def payload_of(self, ref: ChunkRef) -> Optional[ChunkData]:
        """The published payload handle of ``ref``, or ``None``."""
        i = self._table._id_of.get(ref)
        return None if i is None or i >= len(self._chunks) else self._chunks[i]

    # -- per-array reads: each is a read of the current snapshot -------
    # (entry points for tests and the benchmark's span table; queries
    # read through ClusterSession, and the bodies live on ArraySnapshot)
    def pairs_of_array(self, array: str) -> Read:
        """The :class:`Read` of one whole array, key-sorted."""
        return self.snapshot(array).pairs()

    def placement_of_array(self, array: str) -> Dict[ChunkKey, NodeId]:
        """Chunk key → node map of one array."""
        return self.snapshot(array).placement()

    def pairs_in_region(self, array: str, region: Box) -> Read:
        """The :class:`Read` of a region's touched chunks, key-sorted."""
        return self.snapshot(array).pairs_in_region(region)

    def payload_of_array(
        self,
        array: str,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Payload:
        """Concatenated cells of one array, cached per payload epoch."""
        return self.snapshot(array).payload(attrs, ndim)

    def payload_in_region(
        self,
        array: str,
        region: Box,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Payload:
        """Cells of one array strictly inside ``region``, cached."""
        return self.snapshot(array).payload_in_region(region, attrs, ndim)

    def deltas_since(self, array: str, epoch: int) -> CatalogDelta:
        """One array's content mutations strictly after ``epoch``."""
        return self.snapshot(array).deltas_since(epoch)

    # Names the benchmark's span table wraps; each is a read above.
    scan_columns_of = pairs_of_array
    region_scan_columns = region_read = pairs_in_region
    delta_scan_columns = deltas_since

    # -- the payload cache ---------------------------------------------
    def _cached_payload(
        self, key: Tuple, compute: Callable[[], Payload]
    ) -> Payload:
        """Serve ``key`` from the payload LRU, filling it on a miss.

        ``key`` names a content version — ``(array, payload epoch,
        normalized attrs, ndim[, region.lo, region.hi])`` — and
        ``compute`` concatenates a snapshot's frozen handles of exactly
        that version, so an entry is a pure function of its key: it can
        be shared by every snapshot pinned at that payload epoch and can
        never answer a pin of another.  A session pinned before a
        content mutation may install its older version after the
        mutation's eager drop (:meth:`_touch`); that is harmless — only
        a pin of that older version can ever ask for it, and it ages out
        under :attr:`PAYLOAD_CACHE_MAX` like any entry that stops being
        queried.
        """
        cache = self._payload_cache
        cached = cache.get(key)
        if cached is not None:
            self.payload_hits += 1
            cache.move_to_end(key)
            return cached
        self.payload_misses += 1
        result = cache[key] = compute()
        while len(cache) > self.PAYLOAD_CACHE_MAX:
            cache.popitem(last=False)
        return result

    # -- content delta log ---------------------------------------------
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
        refs = self._table._refs
        for array, net in replayed.items():
            view = self._views.get(array)
            ids = view.ids if view is not None else np.empty(0, np.int64)
            live = {
                ref: (1, chunk)
                for ref, chunk in zip(
                    refs[ids].tolist(), self._chunks[ids].tolist()
                )
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
        for array in self.arrays():
            if array not in self._deltas:
                raise ClusterError(
                    f"array {array!r} has live chunks but no delta log"
                )

    def verify_published(self) -> None:
        """Planned == published, as one vector compare at quiescence.

        Every id the table holds, and nothing else, must be published on
        its planned owner.  Between ``partitioner.scale_out`` and the
        rebalance's :meth:`relocate_batch` the two legitimately differ,
        so only ``ElasticCluster.check_consistency`` calls this (it
        raises :class:`ClusterError` on a difference).
        """
        live = self._table.live_ids()
        published = np.sort(np.concatenate(
            [np.empty(0, np.int64)]
            + [v.ids for v in self._views.values()]
        ))
        if not np.array_equal(live, published):
            raise ClusterError(
                f"catalog publishes {len(published)} chunks but the "
                f"table holds {len(live)}"
            )
        stale = np.count_nonzero(
            self._owner[live] != self._table.owners(live)
        )
        if stale:
            raise ClusterError(
                f"{stale} published owners differ from the planned ones"
            )

    # -- snapshots -----------------------------------------------------
    def snapshot(self, array: str) -> ArraySnapshot:
        """An epoch-pinned :class:`ArraySnapshot` of one array.

        Snapshots are immutable, so the last capture per array is
        memoized and handed back as long as the array's epoch has not
        moved — pinning a quiescent array costs a dict probe, not a
        column gather (sessions opened per query or per refresh stay
        cheap between mutations).  An empty capture is not memoized and
        drops the array's entry, so an array that empties out does not
        keep its last rows alive in the memo.  Unknown arrays yield an
        empty snapshot at epoch 0.
        """
        cached = self._snapshot_cache.get(array)
        if cached is not None:
            view = self._views.get(array)
            if view is not None and view.epoch == cached.epoch:
                return cached
        snap = ArraySnapshot(self, array)
        if len(snap):
            self._snapshot_cache[array] = snap
        else:
            self._snapshot_cache.pop(array, None)
        return snap

    # -- mutation ------------------------------------------------------
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
            for key in [
                k for k in self._payload_cache if k[0] in touched
            ]:
                del self._payload_cache[key]

    def _log_rows(
        self, arrays: List[str], codes: np.ndarray, *columns: np.ndarray
    ) -> None:
        """Append signed delta rows as columns, one slice per array.

        ``columns`` are the ``_DeltaLog.append`` columns (signs, refs,
        chunks, sizes, nodes); row ``r`` belongs to
        ``arrays[codes[r]]``.  Called after :meth:`_touch`, so every row
        carries the epoch the mutation landed at —
        ``deltas_since(array, cursor)`` with a cursor snapshotted from
        :meth:`payload_epoch_of` returns exactly the mutations the
        cursor holder has not yet folded in.
        """
        for code, array in enumerate(arrays):
            rows = codes == code
            if rows.any():
                log = self._deltas.get(array) or self._deltas.setdefault(
                    array, _DeltaLog()
                )
                log.append(self._epoch, *(c[rows] for c in columns))

    def put_batch(
        self,
        chunks: Sequence[ChunkData],
        ids: Optional[np.ndarray] = None,
    ) -> None:
        """Publish stored chunks (insert or merge), in batch order.

        ``chunks`` must be the objects the node stores hold after the
        physical put (a merge stores a new merged :class:`ChunkData`,
        and the catalog handle follows it).  ``ids`` are their table
        ids, born in the partitioner's commit — the coordinator passes
        the ones its single ``ids_of`` pass read; without them they are
        read here (:class:`ClusterError`, nothing published, when a
        chunk holds none).

        Column code: each put's predecessor is the previous put of its
        id in the batch (one stable sort of ``ids``) or else the
        published handle.  None — publish on the planned owner and
        merge the key row (the table's key column) into the array's
        view; another handle — a merge, logged as the retiring handle
        at ``-1`` then the new one at ``+1``; the same handle — nothing
        logged.  Columns are written by fancy indexing (an id's last
        put wins), delta rows appended as columns.  The per-chunk loop
        this replaced is the spec (``tests/oracles/catalog.py``).
        """
        n = len(chunks)
        if not n:
            return
        if ids is None:
            try:
                ids = self._table.ids_of([c.ref() for c in chunks])
            except KeyError as exc:
                raise ClusterError(
                    f"chunk {exc.args[0]} is not in the chunk table"
                ) from None
        self._fit_columns()
        handles = np.empty(n, dtype=object)
        handles[:] = chunks
        sizes = np.fromiter(
            map(attrgetter("size_bytes"), chunks), dtype=np.float64, count=n
        )
        refs = self._table._refs[ids]
        olds = self._chunks[ids]
        unpublished = np.equal(olds, None)
        owner = self._owner[ids]
        owner[unpublished] = self._table.owners(ids[unpublished])
        # Chain in-batch duplicates: ``prev`` is the position of the
        # previous put of the same id, -1 for its first put.
        order = np.argsort(ids, kind="stable")
        repeat = ids[order[1:]] == ids[order[:-1]]
        prev = np.full(n, -1, dtype=np.int64)
        prev[order[1:][repeat]] = order[:-1][repeat]
        before = olds
        before_size = self._size[ids]
        chained = prev >= 0
        before[chained] = handles[prev[chained]]
        before_size[chained] = sizes[prev[chained]]
        new = np.equal(before, None)
        merged = ~new & np.not_equal(before, handles)  # by identity
        last = np.ones(n, dtype=bool)
        last[order[:-1][repeat]] = False
        self._chunks[ids[last]] = handles[last]
        self._size[ids[last]] = sizes[last]
        self._owner[ids[new]] = owner[new]
        arrays, codes = _array_codes(refs)
        for code, array in enumerate(arrays):
            mine = new & (codes == code)
            if mine.any():
                keys = self._table.keys_of(ids[mine])
                self._schema_of.setdefault(
                    array, chunks[int(np.argmax(mine))].schema
                )
                view = self._views.get(array) or self._views.setdefault(
                    array, _ArrayView(keys.shape[1])
                )
                view.insert(ids[mine], keys)
        self._touch(arrays)
        # One row per new put, two per merge (retiring handle first).
        emits = new + 2 * merged
        pos = np.repeat(np.arange(n), emits)
        retire = np.zeros(len(pos), dtype=bool)
        retire[(np.cumsum(emits) - emits)[merged]] = True
        self._log_rows(
            arrays, codes[pos], np.where(retire, -1, 1), refs[pos],
            np.where(retire, before[pos], handles[pos]),
            np.where(retire, before_size[pos], sizes[pos]), owner[pos],
        )

    def relocate_batch(self, refs: Sequence[ChunkRef]) -> None:
        """Publish the planned owners of moved chunks.

        Called once the stores hold the moved bytes: the published owner
        of each id is copied from the table's planned one (sorted views
        unchanged).
        """
        if not refs:
            return
        ids = self._table.ids_of(refs)
        planned = self._table.owners(ids)
        self._owner[ids] = planned
        self._touch({r.array for r in refs}, contents=False)

    def remove_batch(self, refs: Sequence[ChunkRef]) -> None:
        """Unpublish chunks; the table frees their ids afterwards.

        Runs before ``partitioner.remove`` (the ids must still be
        interned).  One ``ids_of`` pass, then column code: each dropped
        chunk enters the array's delta log at ``-1`` with the payload
        handle, bytes, and owner it retired with (gathered as columns
        before the slots are cleared) — expiry is a negative delta to
        the incremental maintenance layer.
        """
        if not refs:
            return
        ids = self._table.ids_of(refs)
        ref_col = self._table._refs[ids]
        arrays, codes = _array_codes(ref_col)
        handles = self._chunks[ids]
        sizes = self._size[ids]
        owners = self._owner[ids]
        self._chunks[ids] = None
        self._size[ids] = 0.0
        self._owner[ids] = -1
        for code, array in enumerate(arrays):
            self._views[array].drop(ids[codes == code])
        self._touch(arrays)
        self._log_rows(
            arrays, codes, np.full(len(ids), -1), ref_col, handles,
            sizes, owners,
        )

    # -- compaction ----------------------------------------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk column slots (the table's, at quiescence)."""
        return len(self._chunks)

    def compact(self, min_dead_fraction: float = 0.0) -> bool:
        """Compact the chunk table and remap the published columns.

        The one compaction of a published table: in one step the table
        re-interns its live ids
        (:meth:`repro.core.ledger.ArrayChunkLedger.compact_ids`) and the
        published columns and per-array views are remapped with the
        same old → new ids (views keep their sort order).  Observable
        state — pairs, placements, scan columns, epochs, and live
        payload-cache entries — is unchanged.

        Returns
        -------
        bool
            ``True`` when the columns were rebuilt.
        """
        self._fit_columns()
        old_ids = self._table.compact_ids(min_dead_fraction)
        if old_ids is None:
            return False
        cap = self._table.column_capacity
        mapping = np.full(len(self._chunks), -1, dtype=np.int64)
        mapping[old_ids] = np.arange(len(old_ids), dtype=np.int64)
        self._chunks = resize_column(self._chunks[old_ids], cap, None)
        self._size = resize_column(self._size[old_ids], cap, 0.0)
        self._owner = resize_column(self._owner[old_ids], cap, -1)
        for view in self._views.values():
            if len(view.ids):
                view.ids = mapping[view.ids]
        return True
