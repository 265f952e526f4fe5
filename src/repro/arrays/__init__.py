"""Array data model substrate (SciDB-style, paper §2).

Public surface:

* :class:`~repro.arrays.schema.ArraySchema`,
  :class:`~repro.arrays.schema.DimensionSpec`,
  :class:`~repro.arrays.schema.AttributeSpec`,
  :func:`~repro.arrays.schema.parse_schema` — array declarations.
* :class:`~repro.arrays.chunk.ChunkData`,
  :class:`~repro.arrays.chunk.ChunkRef`, :class:`~repro.arrays.chunk.ChunkBatch`.
* :func:`~repro.arrays.array.chunk_cells` — cell-level ingest.
* :class:`~repro.arrays.storage.ChunkStore`,
  :class:`~repro.arrays.storage.SpillTier` — node-local storage with
  an optional byte-budgeted LRU over the disk tier.
* :class:`~repro.arrays.segment.SegmentStore`,
  :class:`~repro.arrays.segment.DiskIO` — mmap-backed columnar
  segment files (the cold tier; survives process restart).
* :class:`~repro.arrays.coords.Box` — n-d box algebra.
* :func:`~repro.arrays.sfc.hilbert_index`,
  :func:`~repro.arrays.sfc.hilbert_index_batch`,
  :class:`~repro.arrays.sfc.RectangleHilbert` — space-filling curve.
"""

from repro.arrays.array import chunk_cells
from repro.arrays.chunk import ChunkBatch, ChunkData, ChunkKey, ChunkRef, empty_chunk
from repro.arrays.coords import Box, bounding_box
from repro.arrays.schema import (
    ArraySchema,
    AttributeSpec,
    DimensionSpec,
    parse_schema,
)
from repro.arrays.sfc import (
    RectangleHilbert,
    bits_for_extent,
    hilbert_index,
    hilbert_index_batch,
    hilbert_point,
)
from repro.arrays.segment import DiskIO, SegmentStore
from repro.arrays.storage import ChunkStore, SpillTier

__all__ = [
    "ArraySchema",
    "AttributeSpec",
    "Box",
    "ChunkBatch",
    "ChunkData",
    "ChunkKey",
    "ChunkRef",
    "ChunkStore",
    "DimensionSpec",
    "DiskIO",
    "SegmentStore",
    "SpillTier",
    "RectangleHilbert",
    "bits_for_extent",
    "bounding_box",
    "chunk_cells",
    "empty_chunk",
    "hilbert_index",
    "hilbert_index_batch",
    "hilbert_point",
    "parse_schema",
]
