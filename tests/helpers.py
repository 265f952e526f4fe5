"""Test helpers for the columnar batch and read APIs.

:meth:`ElasticPartitioner.place_batch` takes a ref column and a size
column and returns table ids; tests written over ``(ref, size)`` item
lists go through :func:`columns` and :func:`placements`, and ledger
tests commit the :func:`split_of` such a list (one row at a time:
:func:`commit_row`; one array's key rows: :func:`commit_rows`).
:func:`~repro.core.catalog.concat_payload` gathers a
:class:`~repro.core.catalog.Read`; tests that gather hand-picked chunk
lists build one with :func:`read_of`.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkBatch, ChunkData, ChunkRef
from repro.core.base import BatchSplit
from repro.core.catalog import Read


def columns(
    items: Sequence[Tuple[ChunkRef, float]]
) -> Tuple[List[ChunkRef], List[float]]:
    """``(ref, size)`` items as ``place_batch``'s two columns."""
    return [r for r, _ in items], [s for _, s in items]


def placements(p, items: Sequence[Tuple[ChunkRef, float]]) -> Dict[ChunkRef, int]:
    """``p.place_batch`` over ``items``, read back as ``{ref: node}``."""
    refs, sizes = columns(items)
    ids = p.place_batch(refs, sizes)
    return dict(zip(refs, p.table.owners(ids).tolist()))


def split_of(ledger, items: Sequence[Tuple[ChunkRef, float]]) -> BatchSplit:
    """The :class:`BatchSplit` of ``items`` against ``ledger``."""
    refs, sizes = columns(items)
    column = np.empty(len(refs), dtype=object)
    column[:] = refs
    return ledger.split_batch(column, np.asarray(sizes, dtype=np.float64))


def commit_row(ledger, ref: ChunkRef, size: float, node: int):
    """Commit one chunk to ``ledger`` through a one-row ``commit_batch``:
    first-time onto ``node``, a known ref merged onto its own node."""
    return ledger.commit_batch(
        split_of(ledger, [(ref, size)]), np.array([node], dtype=np.int64)
    )


def commit_rows(ledger, array: str, rows: np.ndarray):
    """Commit one chunk of ``array`` per int64 key row to ``ledger`` (1
    byte each, on its first node), as one batch with its key column."""
    refs = np.empty(len(rows), dtype=object)
    refs[:] = [ChunkRef(array, tuple(r)) for r in rows.tolist()]
    split = ledger.split_batch(refs, np.ones(len(rows)), rows)
    nodes = np.full(len(split.first), ledger._node_list[0], dtype=np.int64)
    return ledger.commit_batch(split, nodes)


def read_of(chunks: Sequence[ChunkData], nodes=None) -> Read:
    """A :class:`Read` of hand-picked chunks, extents read from the
    handles now (:meth:`ChunkBatch.of` of a list); every chunk on node
    0 unless ``nodes``."""
    batch = ChunkBatch.of(list(chunks))
    handles = np.empty(len(batch), dtype=object)
    handles[:] = batch.chunks
    if nodes is None:
        nodes = np.zeros(len(batch), dtype=np.int64)
    return Read(
        handles, batch.sizes, np.asarray(nodes, dtype=np.int64),
        batch.schemas[0] if batch.schemas else None, batch.keys,
        np.stack([batch.arena_no, batch.lo, batch.hi], axis=1),
    )
