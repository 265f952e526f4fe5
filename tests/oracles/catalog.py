"""Per-chunk references for the catalog's gather and publish paths.

:func:`concat_payload_per_chunk` — the gather's body from before chunks
became extents of batch arenas, moved verbatim: one ``coords`` read and
one ``values(attr)`` read per chunk per column, one array per chunk
handed to ``np.concatenate``.  It knows nothing about arenas, extents or
runs (of a :class:`~repro.core.catalog.Read` it reads only the chunks),
so it is the specification the run-sliced gather must equal
element for element and dtype for dtype
(``tests/test_catalog.py::TestRunGather``); the store-walk payload
oracles in ``tests/oracles/cluster.py`` concatenate through it.

:func:`put_batch_per_chunk` and :func:`remove_batch_per_chunk` — the
publish and unpublish bodies from before they became column code
(``put_batch_per_chunk`` also takes the coordinator's ``ids`` and an
object-array batch, and ``_log_deltas`` became a function of the
catalog; both write the chunk table's handle and extent columns, the
extent read per handle): one branch per chunk (new / merged / same
handle), one tuple per delta-log row, one ``ChunkRef`` hash per dict
probe.  They are the
specification :meth:`ChunkCatalog.put_batch` and
:meth:`ChunkCatalog.remove_batch` must equal column for column, in view
order and delta-log row for row (``TestColumnarPublish`` in
``tests/test_catalog.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData
from repro.core.catalog import ChunkCatalog, Read, _ArrayView, _DeltaLog
from repro.core.ledger import NO_EXTENT
from repro.errors import ClusterError


def concat_payload_per_chunk(
    read,
    attrs: Sequence[str],
    ndim: int = 0,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Concatenate chunks' cells into one coordinate/value table.

    ``read`` is a :class:`~repro.core.catalog.Read` or a plain chunk
    sequence; only its chunks are read.
    """
    chunks = read.chunks.tolist() if isinstance(read, Read) else list(read)
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


def _extent(chunk: ChunkData) -> Tuple[int, int, int]:
    """A handle's ``(arena number, lo, hi)`` (own arrays: none)."""
    extent = chunk.extent
    if extent is None:
        return NO_EXTENT
    return (extent[0].number, extent[1], extent[2])


def _log_deltas(
    self: ChunkCatalog, log_by_array: Dict[str, List[Tuple]]
) -> None:
    """Append collected (sign, ref, chunk, size, node, extent) rows,
    each log first folded below its floor as ``_log_rows`` folds it.

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
        log = _DeltaLog() if log is None else self._folded(array, log)
        self._deltas[array] = log
        signs, refs, chunks, sizes, nodes, extents = zip(*entries)
        log.append(epoch, signs, list(refs), list(chunks), sizes,
                   nodes, np.array(extents, dtype=np.int64))


def put_batch_per_chunk(
    self: ChunkCatalog,
    chunks: Sequence[ChunkData],
    ids: Optional[np.ndarray] = None,
) -> None:
    """Publish stored chunks (insert or merge), in batch order."""
    if not len(chunks):
        return
    table = self.table
    refs = [chunk.ref() for chunk in chunks]
    if ids is None:
        try:
            ids = table.ids_of(refs)
        except KeyError as exc:
            raise ClusterError(
                f"chunk {exc.args[0]} is not in the chunk table"
            ) from None
    owners = table.owners(ids).tolist()
    log_by_array: Dict[str, List[Tuple]] = {}
    touched = set()
    for ref, chunk, i, node in zip(
        refs, chunks, ids.tolist(), owners
    ):
        array = ref.array
        touched.add(array)
        entries = log_by_array.setdefault(array, [])
        old = table._chunks[i]
        if old is None:
            if array not in self._schema_of:
                self._schema_of[array] = chunk.schema
            self._views.setdefault(array, _ArrayView())
            entries.append(
                (1, ref, chunk, chunk.size_bytes, node, _extent(chunk))
            )
        elif old is not chunk:
            # A merge replaced the stored payload: the retiring
            # handle leaves the ZSet, the merged one enters it.
            entries.append(
                (-1, ref, old, old.size_bytes, node,
                 tuple(table._extent[i].tolist()))
            )
            entries.append(
                (1, ref, chunk, chunk.size_bytes, node, _extent(chunk))
            )
        table._chunks[i] = chunk
        table._extent[i] = _extent(chunk)
    self._touch(touched)
    _log_deltas(self, log_by_array)


def remove_batch_per_chunk(self: ChunkCatalog, ids: np.ndarray) -> None:
    """Unpublish chunks (table ids); the table frees them afterwards."""
    if not len(ids):
        return
    table = self.table
    refs = table.refs_at(ids).tolist()
    log_by_array: Dict[str, List[Tuple]] = {}
    for ref, i in zip(refs, ids.tolist()):
        log_by_array.setdefault(ref.array, []).append(
            (-1, ref, table._chunks[i], float(table._size[i]),
             table.node_of(ref), tuple(table._extent[i].tolist()))
        )
        table._chunks[i] = None
    self._touch(log_by_array)
    _log_deltas(self, log_by_array)
