"""The cluster-wide columnar chunk catalog.

:class:`ChunkCatalog` publishes every chunk physically stored in the
cluster: ``(array, chunk key, owner node, bytes, payload handle,
extent)``.  Every one of those per-chunk facts lives once, in the
partitioner's chunk table (:class:`repro.core.ledger.ArrayChunkLedger`,
the one ``ChunkRef -> id`` map); the catalog writes the table's handle
and extent columns ``(arena number, lo, hi)`` from each ingest batch's
columns, and an id is published exactly when its handle is set.  What
the catalog keeps itself is per array or per reader: the epochs,
the schemas, the delta logs, the declared cursors, the snapshot memo
and the payload LRU.  The coordinator updates it in place on every
mutation, so a read is an O(live-chunks-of-array) column gather with
**no per-node store walk and no per-query re-sort** (the id lifecycle
is in ``docs/invariants.md``).

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
``ElasticCluster.chunk_data``'s, not a query read.)

Per-array key order
-------------------
An array's published chunks are its slice of the chunk table's key
index — live ids sorted by chunk key (the order
``ClusterSession.chunks_of_array`` returns) — whose handle is set; the
catalog keeps no sorted copy of its own.

Epochs and the payload cache
----------------------------
Every mutation that touches an array bumps that array's **epoch** (and
the global one); mutations that change cell contents — inserts, merges,
removals — additionally bump its **payload epoch**.  Every payload
read is one :func:`concat_payload` over a :class:`Read`: the read's
extent columns give its runs of adjacent rows of one arena (catalog
order is batch after batch) and each run is one slice, with no walk
over chunks.  Snapshot payloads are cached in the catalog's one LRU,
keyed by the *content version*: ``(array, pinned payload epoch,
normalized attrs, ndim[, region])``.
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
added/removed chunk columns (extents included) the incremental
query-maintenance layer (:mod:`repro.query.incremental`) folds into its
operator state.  The log stores refs, payload handles and extents, not
table ids, so :meth:`compact` leaves it untouched.  A reader of deltas
declares its cursors (:meth:`ChunkCatalog.declare`, held weakly); before
an append, the rows at or below the lowest live one (with none, the
newest logged epoch) are dropped once they are half of the log, by
swapping in a new log of the tail, so a snapshot keeps the log it
pinned.  A cursor below that floor raises
:class:`~repro.errors.DeltaFloorError`.

Specification
-------------
The pre-catalog read path — re-walk every node's store per query, and
execute rebalances one evict/put at a time — lives on as plain
functions of a cluster in ``tests/oracles/cluster.py``;
``tests/test_catalog.py`` compares both read paths on one cluster.  The
per-chunk gather and publish loops are specs in
``tests/oracles/catalog.py``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from numbers import Integral
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.arrays.chunk import ChunkBatch, ChunkData, ChunkKey, ChunkRef
from repro.arrays.coords import (
    Box,
    joint_position_keys,
    position_keys,
    region_mask,
    row_packing,
)
from repro.core.ledger import (
    NO_EXTENT, ArrayChunkLedger, resize_column,
)
from repro.errors import ChunkError, ClusterError, DeltaFloorError, require_index

NodeId = int
#: A concatenated cell table: ``(coords, {attr: values})``.
Payload = Tuple[np.ndarray, Dict[str, np.ndarray]]


def concat_payload(read: "Read", attrs: Sequence[str], ndim: int = 0) -> Payload:
    """Concatenate a read's cells into one fresh coordinate/value table.

    The one place chunks become a cell table (``ndim`` shapes an empty
    one).  It slices *runs*, not chunks: a read carries its chunks'
    extents as columns, adjacent row ranges of one arena form a run, one
    vectorized comparison finds the run breaks, and each run reads its
    arena from its first handle.  A chunk with its own arrays
    (``arena_no = -1``) is a one-row run read through one
    ``payload_parts()`` call.  The per-chunk walk is the specification
    (``tests/oracles/catalog.py``).
    """
    n = len(read)
    if not n:
        return (
            np.empty((0, ndim), dtype=np.int64),
            {a: np.empty(0) for a in attrs},
        )
    arena, lo, hi = read.arena_no, read.lo, read.hi
    brk = np.ones(n, dtype=bool)
    brk[1:] = (arena[1:] != arena[:-1]) | (lo[1:] != hi[:-1]) | (arena[1:] < 0)
    starts = np.flatnonzero(brk)
    ends = np.append(starts[1:], n) - 1
    runs: List[Tuple[np.ndarray, Dict[str, np.ndarray], int, int]] = []
    for chunk, own, a, b in zip(
        read.chunks[starts].tolist(), (arena[starts] < 0).tolist(),
        lo[starts].tolist(), hi[ends].tolist(),
    ):
        if own:
            coords, columns = chunk.payload_parts()
            a, b = 0, coords.shape[0]
        else:
            coords, columns = chunk.extent[0].coords, chunk.extent[0].columns
        for name in attrs:
            if name not in columns:
                raise ChunkError(
                    f"array {chunk.schema.name} has no attribute {name!r}"
                )
        runs.append((coords, columns, a, b))
    coords = np.concatenate([c[a:b] for c, _, a, b in runs], axis=0)
    values = {
        name: np.concatenate([cols[name][a:b] for _, cols, a, b in runs])
        for name in attrs
    }
    return coords, values


class Read:
    """One array's chunks as one snapshot read returned them.

    The value every per-array read answers with — whole array, region
    or delta: read-only parallel columns (payload handles, modeled
    bytes, hosting nodes) plus the array's schema, from one routing
    pass.  It iterates and indexes as ``(chunk, node)`` pairs, so every
    pair-walker takes it unchanged, while the cost model prices it from
    its columns (:func:`repro.query.cost.charge_scan`) with no pair list
    in between.  ``rows`` are the chunks' ``(n, ndim)`` int64 keys and
    ``arena_no`` / ``lo`` / ``hi`` their extents (default ``(-1, 0, 0)``).
    """

    __slots__ = ("chunks", "sizes", "nodes", "schema", "_rows",
                 "_extents", "arena_no", "lo", "hi")

    def __init__(
        self,
        chunks: np.ndarray,
        sizes: np.ndarray,
        nodes: np.ndarray,
        schema: Optional[object],
        rows: Optional[np.ndarray] = None,
        extents: Optional[np.ndarray] = None,
    ) -> None:
        if extents is None:
            extents = np.full((len(sizes), 3), NO_EXTENT, dtype=np.int64)
        for column in (chunks, sizes, nodes, rows, extents):
            if column is not None:
                column.flags.writeable = False
        self.chunks = chunks
        self.sizes = sizes
        self.nodes = nodes
        self.schema = schema
        self._rows = rows
        self._extents = extents
        self.arena_no, self.lo, self.hi = extents.T

    def take(self, pos: np.ndarray) -> "Read":
        """The rows at positions ``pos``, as a read."""
        rows = None if self._rows is None else self._rows[pos]
        return Read(self.chunks[pos], self.sizes[pos], self.nodes[pos],
                    self.schema, rows, self._extents[pos])

    def union(self, other: "Read") -> "Read":
        """This read's rows, then those of ``other`` whose chunk keys it
        lacks: the first occurrence of each key, in order."""
        if not len(other):
            return self
        if not len(self):
            return other
        both = Read(
            np.concatenate([self.chunks, other.chunks]),
            np.concatenate([self.sizes, other.sizes]),
            np.concatenate([self.nodes, other.nodes]), self.schema,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self._extents, other._extents]),
        )
        keys = position_keys(both.rows, row_packing(both.rows))
        return both.take(np.sort(np.unique(keys, return_index=True)[1]))

    def key_matched(self, other: "Read") -> Tuple["Read", "Read"]:
        """The rows of this read and of ``other`` whose chunk keys both
        hold, in key order, as position slices of each (both reads
        key-sorted, as every snapshot read is)."""
        pos = [np.empty(0, dtype=np.int64)] * 2
        if len(self) and len(other):
            pos = np.intersect1d(
                *joint_position_keys(self.rows, other.rows),
                assume_unique=True, return_indices=True,
            )[1:]
        return self.take(pos[0]), other.take(pos[1])

    @property
    def cells(self) -> np.ndarray:
        """Each chunk's stored cell count, ``hi - lo`` (int64); a chunk
        with its own arrays counts through its handle."""
        cells = self.hi - self.lo
        own = np.flatnonzero(self.arena_no < 0)
        if own.size:
            cells[own] = [c.cell_count for c in self.chunks[own].tolist()]
        return cells

    @property
    def rows(self) -> np.ndarray:
        """The chunks' keys as ``(n, ndim)`` int64 rows, in read order."""
        if self._rows is None:
            keys = [c.key for c in self.chunks.tolist()]
            width = -1 if keys else 0 if self.schema is None else self.schema.ndim
            return np.array(keys, dtype=np.int64).reshape(len(keys), width)
        return self._rows

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def __iter__(self) -> Iterator[Tuple[ChunkData, NodeId]]:
        return zip(self.chunks.tolist(), self.nodes.tolist())

    def __getitem__(self, i: int) -> Tuple[ChunkData, NodeId]:
        if not isinstance(i, (int, np.integer)):
            raise TypeError(
                f"Read indices must be integers, not {type(i).__name__};"
                " take(positions) slices one"
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
        extents: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(chunks, sizes, nodes, schema, extents=extents)
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


class DeclaredCursors(list):
    """A reader's cursors (:meth:`ChunkCatalog.declare`): item ``i`` is
    the payload epoch it has folded ``arrays[i]`` in up to, and no row
    after it is dropped while the list lives (negative: holds none).
    Assigning anything but integers ``>= -1``, or resizing or
    reordering the list, raises :class:`ClusterError` and changes
    nothing: item ``i`` stays the cursor of ``arrays[i]``."""

    __slots__ = ("arrays", "__weakref__")

    def __setitem__(self, index, value) -> None:
        values = list(value) if isinstance(index, slice) else [value]
        for epoch in values:
            if isinstance(epoch, bool) or not isinstance(epoch, Integral) or (
                    epoch < -1):
                raise ClusterError(
                    f"a declared cursor must be an integer >= -1, got {epoch!r}"
                )
        if isinstance(index, slice):
            if len(values) != len(range(*index.indices(len(self)))):
                raise ClusterError(
                    f"{len(values)} cursors for a slice of another length"
                )
            value = values
        super().__setitem__(index, value)

    def _fixed(self, *args, **kwargs):
        raise ClusterError("declared cursors cannot be resized or reordered")

    append = extend = insert = pop = remove = clear = _fixed
    sort = reverse = __delitem__ = __iadd__ = __imul__ = _fixed


class _DeltaLog:
    """Append-only columnar log of one array's content mutations.

    Amortized-doubling numpy columns in the style of the chunk table's;
    ``epochs`` is non-decreasing by construction, so
    :meth:`since` finds a cursor with one ``searchsorted`` and the tail
    gather is O(delta).  Rows are keyed by ref and payload handle — not
    table ids — so compaction never rewrites the log.  ``floor`` is the
    epoch of the last row dropped (0: none); no cursor below it reads.
    """

    __slots__ = ("epochs", "signs", "refs", "chunks", "sizes", "nodes",
                 "extents", "count", "floor")

    _INITIAL_CAPACITY = 64

    def __init__(self, cap: int = _INITIAL_CAPACITY) -> None:
        self.floor = 0
        self.epochs = np.zeros(cap, dtype=np.int64)
        self.signs = np.zeros(cap, dtype=np.int8)
        self.refs = np.empty(cap, dtype=object)
        self.chunks = np.empty(cap, dtype=object)
        self.sizes = np.zeros(cap, dtype=np.float64)
        self.nodes = np.full(cap, -1, dtype=np.int64)
        self.extents = np.full((cap, 3), NO_EXTENT, dtype=np.int64)
        self.count = 0

    def append(
        self,
        epoch: int,
        signs: Sequence[int],
        refs: Sequence[ChunkRef],
        chunks: Sequence[ChunkData],
        sizes: Sequence[float],
        nodes: Sequence[int],
        extents: np.ndarray,
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
            self.extents = resize_column(self.extents, new_cap, NO_EXTENT)
        sl = slice(self.count, need)
        self.epochs[sl] = epoch
        self.signs[sl] = np.asarray(signs, dtype=np.int8)
        self.refs[sl] = refs
        self.chunks[sl] = chunks
        self.sizes[sl] = np.asarray(sizes, dtype=np.float64)
        self.nodes[sl] = np.asarray(nodes, dtype=np.int64)
        self.extents[sl] = extents
        self.count = need

    def tail(self, lo: int) -> "_DeltaLog":
        """A new log of the rows from ``lo`` on (this one is left to the
        snapshots that pinned it)."""
        n = self.count - lo
        tail = _DeltaLog(max(self._INITIAL_CAPACITY, 2 * n))
        for name in ("epochs", "signs", "refs", "chunks", "sizes", "nodes", "extents"):
            getattr(tail, name)[:n] = getattr(self, name)[lo:self.count]
        tail.count = n
        tail.floor = int(self.epochs[lo - 1])
        return tail

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
            extents=self.extents[sl].copy(),
        )


#: Shared empty log: snapshots of arrays without one pin this.
_EMPTY_LOG = _DeltaLog()


class _ArrayView:
    """One published array's mutation counters.

    Its chunks are the array's slice of the chunk table's key index
    (:meth:`~repro.core.ledger.ArrayChunkLedger.array_ids`, already in
    key order) whose handle is set (:meth:`ChunkCatalog._published`).
    ``epoch`` advances on *any* mutation touching the array;
    ``payload_epoch`` only on mutations that change cell contents
    (inserts, merges, removals) — pure relocations move ownership, not
    payloads, so the concatenation cache keys on the latter and
    survives rebalances.
    """

    __slots__ = ("epoch", "payload_epoch")

    def __init__(self) -> None:
        self.epoch = 0
        self.payload_epoch = 0


class ArraySnapshot:
    """An immutable, epoch-pinned view of one array's catalog state.

    MVCC-lite: :meth:`ChunkCatalog.snapshot` gathers the array's
    published ids' key/ref/handle/bytes/owner/extent table rows plus the
    length of its delta log at capture time.  Every read below answers from those frozen columns,
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
        ids = catalog._published(array)
        self.array = array
        self.schema = catalog._schema_of.get(array)
        # Fancy-indexed gathers are already fresh copies, so the pin
        # keeps the owners of its capture through later moves.
        table = catalog.table
        if view is None:
            self.epoch = self.payload_epoch = 0
            self._rows = np.empty((0, 0), dtype=np.int64)
        else:
            self.epoch = view.epoch
            self.payload_epoch = view.payload_epoch
            self._rows = table.keys_of(ids).reshape(len(ids), self.schema.ndim)
        self._refs = table._refs[ids]
        self._chunks = table._chunks[ids]
        self._sizes = table._size[ids]
        self._nodes = nodes = table.owners(ids)
        self._node_bounds = (
            (int(nodes.min()), int(nodes.max())) if len(ids) else None
        )
        self._read = Read(
            self._chunks, self._sizes, nodes, self.schema, self._rows,
            table._extent[ids],
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
        read = self._read.take(self._positions_in_region(region))
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
            lambda: concat_payload(self._read, attrs, ndim),
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
            read = self.pairs_in_region(region)
            coords, values = concat_payload(read, attrs, ndim)
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
        pinned payload epoch.  Raises :class:`ClusterError` unless
        ``epoch`` is an integer from 0 to the catalog's epoch, and
        :class:`DeltaFloorError` below the pinned log's floor.
        """
        epoch = require_index("epoch", epoch, ClusterError)
        catalog = self._catalog()
        if catalog is not None and epoch > catalog.epoch:
            raise ClusterError(f"epoch {epoch} is past the catalog's")
        if epoch < self._log.floor:
            raise DeltaFloorError(
                f"epoch {epoch} is below the floor {self._log.floor} of "
                f"{self.array!r}'s delta log; declare cursors to hold rows"
            )
        return self._log.since(epoch, self._log_count, self.schema)

    # Names the benchmark's span table wraps; each is the read above.
    scan_columns = pairs
    region_scan_columns = region_read = pairs_in_region
    delta_scan_columns = deltas_since


class ChunkCatalog:
    """Columnar cluster-wide chunk index (see module docstring).

    It publishes into ``table``'s handle column the exact
    :class:`~repro.arrays.chunk.ChunkData` object the owning node's
    store holds (``None`` for an unpublished id), and into its extent
    column that handle's extent.  A table has at most one live
    publisher.
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
        self._views: Dict[str, _ArrayView] = {}
        self._schema_of: Dict[str, object] = {}
        self._deltas: Dict[str, _DeltaLog] = {}
        self._readers = weakref.WeakValueDictionary()  # id -> DeclaredCursors
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

    # -- reads ---------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        """Number of published chunks across all arrays."""
        return sum(len(self._published(a)) for a in self._views)

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
        return sorted(a for a in self._views if len(self._published(a)))

    def schema_of(self, array: str) -> Optional[object]:
        """The schema ``array`` was first published with, or ``None``."""
        return self._schema_of.get(array)

    def _published(self, array: str) -> np.ndarray:
        """``array``'s published ids in key order: its slice of the
        table's key index whose handle is set."""
        ids = self._table.array_ids(array)
        return ids[np.not_equal(self._table._chunks[ids], None)]

    def payload_of(self, ref: ChunkRef) -> Optional[ChunkData]:
        """The published payload handle of ``ref``, or ``None``."""
        i = int(self._table.lookup([ref])[0])
        return None if i < 0 else self._table._chunks[i]

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

    def declare(
        self, arrays: Sequence[str], epochs: Optional[Sequence[int]] = None
    ) -> DeclaredCursors:
        """Cursors into ``arrays``' delta logs (default ``-1``, holding
        nothing), which the holder moves as it folds; held weakly.
        Raises :class:`ClusterError` unless each epoch is an integer from
        ``-1`` to :attr:`epoch`."""
        cursors = DeclaredCursors([-1] * len(arrays) if epochs is None else epochs)
        if len(cursors) != len(arrays):
            raise ClusterError(f"{len(cursors)} epochs for {len(arrays)} arrays")
        for epoch in cursors:
            if isinstance(epoch, bool) or not isinstance(epoch, Integral) or (
                    not -1 <= epoch <= self._epoch):
                raise ClusterError(
                    f"epochs must be integers from -1 to {self._epoch}, "
                    f"got {epoch!r}"
                )
        cursors.arrays = tuple(arrays)
        self._readers[id(cursors)] = cursors
        return cursors

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
        every expired ref at net weight ``0``, and nothing else.  The
        replay starts from the empty set, or in a log with a floor from
        the live set run backwards through its rows.  Run from
        ``ElasticCluster.check_consistency`` after every mutation
        batch in the test suites.

        Raises
        ------
        ClusterError
            On any divergence between the replayed and live sets.
        """
        def replay(net, rows):
            for sign, ref, chunk in rows:
                weight, handle = net.get(ref, (0, None))
                weight += sign
                if weight < 0 or weight > 1:
                    raise ClusterError(
                        f"delta log of {array!r} reaches weight "
                        f"{weight} for {ref} during replay"
                    )
                net[ref] = (weight, chunk if sign > 0 else handle)
            return {ref: entry for ref, entry in net.items() if entry[0]}

        refs, chunks = self._table._refs, self._table._chunks
        for array, log in self._deltas.items():
            ids = self._published(array)
            live = {
                ref: (1, chunk)
                for ref, chunk in zip(
                    refs[ids].tolist(), chunks[ids].tolist()
                )
            }
            rows = list(zip(*(
                c[:log.count].tolist() for c in (log.signs, log.refs, log.chunks)
            )))
            base = replay(dict(live), [
                (-sign, ref, chunk) for sign, ref, chunk in rows[::-1]
            ]) if log.floor else {}
            survivors = replay(base, rows)
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
        """Every id the table holds is published, and nothing else.

        One vector compare at quiescence: between the partitioner's
        commit and :meth:`put_batch` the table holds ids without a
        handle, so only ``ElasticCluster.check_consistency`` calls this
        (it raises :class:`ClusterError` on a difference).
        """
        live = self._table.live_ids()
        published = np.sort(np.concatenate(
            [np.empty(0, np.int64)]
            + [self._published(a) for a in self._views]
        ))
        if not np.array_equal(live, published):
            raise ClusterError(
                f"catalog publishes {len(published)} chunks but the "
                f"table holds {len(live)}"
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
        chunks, sizes, nodes, extents); row ``r`` belongs to
        ``arrays[codes[r]]``.  Called after :meth:`_touch`, so every row
        carries the epoch the mutation landed at —
        ``deltas_since(array, cursor)`` with a cursor snapshotted from
        :meth:`payload_epoch_of` returns exactly the mutations the
        cursor holder has not yet folded in.
        """
        for code, array in enumerate(arrays):
            rows = codes == code
            if rows.any():
                log = self._deltas.get(array)
                log = _DeltaLog() if log is None else self._folded(array, log)
                self._deltas[array] = log
                log.append(self._epoch, *(c[rows] for c in columns))

    def _folded(self, array: str, log: _DeltaLog) -> _DeltaLog:
        """``log`` less its rows at or below the floor once they are half
        of it: the tail copy is at most the rows dropped, so folding
        costs amortized O(rows appended)."""
        n = log.count
        if not n:
            return log
        held = [epoch for cursors in self._readers.values()
                for name, epoch in zip(cursors.arrays, cursors)
                if name == array and epoch >= 0]
        floor = min(held, default=int(log.epochs[n - 1]))
        drop = int(np.searchsorted(log.epochs[:n], floor, side="right"))
        return log.tail(drop) if drop and 2 * drop >= n else log

    def put_batch(
        self,
        chunks: Sequence[ChunkData],
        ids: Optional[np.ndarray] = None,
    ) -> None:
        """Publish stored chunks (insert or merge), in batch order.

        ``chunks`` (a :class:`~repro.arrays.chunk.ChunkBatch` or a list)
        must be the objects the node stores hold after the physical put
        (a merge stores a new merged :class:`ChunkData`, and the table's
        handle follows it); their extents come from the batch's columns.
        ``ids`` are their table ids, as ``place_batch`` returned them;
        without them they are read here (:class:`ClusterError`, nothing
        published, when a chunk holds none).

        Column code: each put's predecessor is the previous put of its
        id in the batch (one stable sort of ``ids``) or else the
        table's handle.  None — a new id: published from here on (its
        array registered on first sight); another handle — a
        merge, logged as the retiring handle (at its own ``size_bytes``)
        at ``-1`` then the new one at ``+1``; the same handle — nothing
        logged.  Handles and extents are written by fancy indexing (an
        id's last put wins), delta rows appended as columns.  The
        per-chunk loop this replaced is the spec
        (``tests/oracles/catalog.py``).
        """
        batch = ChunkBatch.of(chunks)
        n = len(batch)
        if not n:
            return
        table = self._table
        if ids is None:
            try:
                ids = table.ids_of(list(map(ChunkData.ref, batch)))
            except KeyError as exc:
                raise ClusterError(
                    f"chunk {exc.args[0]} is not in the chunk table"
                ) from None
        handles = np.fromiter(batch.chunks, dtype=object, count=n)
        sizes = batch.sizes
        extents = np.stack([batch.arena_no, batch.lo, batch.hi], axis=1)
        refs = table._refs[ids]
        owner = table.owners(ids)
        # Chain in-batch duplicates: ``prev`` is the position of the
        # previous put of the same id, -1 for its first put.
        order = np.argsort(ids, kind="stable")
        repeat = ids[order[1:]] == ids[order[:-1]]
        prev = np.full(n, -1, dtype=np.int64)
        prev[order[1:][repeat]] = order[:-1][repeat]
        before = table._chunks[ids]
        before_extent = table._extent[ids]
        chained = prev >= 0
        before[chained] = handles[prev[chained]]
        before_extent[chained] = extents[prev[chained]]
        new = np.equal(before, None)  # unpublished and not chained
        merged = ~new
        merged[merged] = before[merged] != handles[merged]  # by identity
        before_size = np.zeros(n)
        before_size[merged] = [h.size_bytes for h in before[merged].tolist()]
        last = np.ones(n, dtype=bool)
        last[order[:-1][repeat]] = False
        table._chunks[ids[last]] = handles[last]
        table._extent[ids[last]] = extents[last]
        arrays, codes = batch.arrays, batch.codes
        for code, array in enumerate(arrays):
            if (new & (codes == code)).any():
                self._schema_of.setdefault(array, batch.schemas[code])
                self._views.setdefault(array, _ArrayView())
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
            np.where(retire[:, None], before_extent[pos], extents[pos]),
        )

    def relocate_batch(self, ids: np.ndarray) -> None:
        """Mark moved chunks (table ids) as moved, once the stores hold
        their bytes: their arrays' epochs advance (payload epochs and
        key order stay; the owners are already the table's)."""
        if not len(ids):
            return
        self._touch(self._table.arrays_at(ids)[0], contents=False)

    def remove_batch(self, ids: np.ndarray) -> None:
        """Unpublish chunks (table ids); the table frees them afterwards.

        Runs before ``partitioner.remove`` (the ids must still be
        live).  Column code: each dropped chunk enters the array's
        delta log at ``-1`` with the payload handle, bytes, owner and
        extent it retired with (gathered as columns before the handles
        are cleared) — expiry is a negative delta to the incremental
        maintenance layer.
        """
        if not len(ids):
            return
        table = self._table
        arrays, codes = table.arrays_at(ids)
        handles = table._chunks[ids]
        table._chunks[ids] = None
        self._touch(arrays)
        self._log_rows(
            arrays, codes, np.full(len(ids), -1), table._refs[ids], handles,
            table._size[ids], table.owners(ids), table._extent[ids],
        )

    # -- compaction ----------------------------------------------------
    @property
    def column_capacity(self) -> int:
        """Allocated per-chunk column slots (the table's)."""
        return self._table.column_capacity

    def compact(self, min_dead_fraction: float = 0.0) -> bool:
        """Compact the chunk table.

        The one compaction of a published table
        (:meth:`repro.core.ledger.ArrayChunkLedger.compact_ids`; the
        catalog holds no ids of its own).  Observable state — pairs,
        placements, scan columns, epochs, and live payload-cache
        entries — is unchanged.

        Returns
        -------
        bool
            ``True`` when the columns were rebuilt.
        """
        return self._table.compact_ids(min_dead_fraction) is not None
