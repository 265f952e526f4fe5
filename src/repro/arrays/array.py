"""Cell-level ingest: a batch of cells becomes a batch of chunks.

:func:`chunk_cells` is where cell memory is allocated: each call sorts
its batch by chunk key into one :class:`~repro.arrays.chunk.CellArena`
and returns the batch's chunks as extents (row ranges) of it — no
per-chunk array is created on the ingest path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import CellArena, ChunkBatch, ChunkData
from repro.arrays.coords import pack_rows, row_packing
from repro.arrays.schema import ArraySchema
from repro.errors import ChunkError


def _validated_keys(
    schema: ArraySchema,
    coords: np.ndarray,
    attributes: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Bounds-check a cell batch and return its per-cell chunk keys.

    Shared front half of :func:`chunk_cells` and its per-cell
    reference: validates attribute columns, rejects cells outside the
    schema's declared bounds, and computes every cell's chunk-grid key
    as ``(cell - start) // interval`` per dimension in one vector pass.

    Parameters
    ----------
    schema : ArraySchema
        The target array's schema.
    coords : numpy.ndarray of int64, shape (cells, ndim)
        Cell coordinates.
    attributes : mapping of str to numpy.ndarray
        One value column per schema attribute.

    Returns
    -------
    numpy.ndarray of int64, shape (cells, ndim)
        Chunk-grid key of every cell.

    Raises
    ------
    ChunkError
        On a missing/short attribute column or out-of-bounds cells.
    """
    _check_cells(schema, coords, attributes)
    starts = np.asarray([d.start for d in schema.dimensions], dtype=np.int64)
    intervals = np.asarray(
        [d.chunk_interval for d in schema.dimensions], dtype=np.int64
    )
    return (coords - starts) // intervals


def _check_cells(
    schema: ArraySchema,
    coords: np.ndarray,
    attributes: Mapping[str, np.ndarray],
) -> None:
    """The checks of :func:`_validated_keys`, without the keys."""
    n_cells = coords.shape[0]
    for name in schema.attribute_names:
        if name not in attributes:
            raise ChunkError(f"batch missing attribute {name!r}")
        if np.asarray(attributes[name]).shape != (n_cells,):
            raise ChunkError(
                f"attribute {name!r} length != cell count {n_cells}"
            )

    starts = np.asarray([d.start for d in schema.dimensions], dtype=np.int64)
    highs = np.asarray(
        [d.end if d.end is not None else np.iinfo(np.int64).max
         for d in schema.dimensions],
        dtype=np.int64,
    )
    if np.any(coords < starts) or np.any(coords > highs):
        raise ChunkError(
            f"batch contains cells outside the declared bounds of "
            f"{schema.name}"
        )


def cell_byte_width(
    schema: ArraySchema, columns: Mapping[str, np.ndarray]
) -> int:
    """Physical bytes one cell contributes (coords row + value columns).

    Matches :meth:`ChunkData._actual_nbytes` exactly: 8 bytes per
    coordinate, each column's dtype width, and the declared itemsize for
    object-dtype columns — so group footprints can be priced as one
    multiply (chunks here, whole batches in the generators).
    """
    width = 8 * schema.ndim
    for spec in schema.attributes:
        column = columns[spec.name]
        width += (
            spec.itemsize if column.dtype == object
            else column.dtype.itemsize
        )
    return width


def chunk_cells(
    schema: ArraySchema,
    coords: np.ndarray,
    attributes: Mapping[str, np.ndarray],
    inflate: float = 1.0,
) -> ChunkBatch:
    """Partition a batch of cells into per-chunk :class:`ChunkData` objects.

    This is the coordinator-side chunking step of the ingest path
    (feeding both the MODIS and AIS generators): incoming cells are
    grouped by their chunk key; each group becomes one chunk whose
    modeled size is its numpy footprint times ``inflate``.  A
    deliberately naive per-cell reference implementation
    (``tests/oracles/arrays.py``) is the specification.

    Parameters
    ----------
    schema : ArraySchema
        The target array's schema.
    coords : numpy.ndarray of int64, shape (cells, ndim)
        Cell coordinates.
    attributes : mapping of str to numpy.ndarray
        One value column per schema attribute.
    inflate : float
        Multiplier applied to each chunk's numpy footprint to obtain its
        modeled ``size_bytes`` (paper-scale chunks from laptop-scale
        cell counts); finite and non-negative.

    Returns
    -------
    ChunkBatch
        One chunk per distinct key, sorted by key; cells within a chunk
        keep their batch order.
    """
    return chunk_cell_sets(coords, [(schema, attributes)], inflate)


def chunk_cell_sets(
    coords: np.ndarray,
    sets: Sequence[Tuple[ArraySchema, Mapping[str, np.ndarray]]],
    inflate: float = 1.0,
) -> ChunkBatch:
    """:func:`chunk_cells` for several arrays over one coordinate table.

    Each ``(schema, attributes)`` set is checked against its own schema;
    the schemas must declare the same dimensions, so the chunk keys, the
    grouping sort and the sorted coordinate table are computed once and
    serve every set's arena (MODIS's two bands read the same pixels).
    Returns each set's :func:`chunk_cells` result in turn.

    The grouping is a single sort over *packed* chunk keys: each cell's
    key tuple is mixed-radix encoded into one int64 (offset by the
    batch's per-dimension key minima, so the packing is order-preserving
    and overflow-checked), one stable ``argsort`` orders the cells, and
    the group boundaries fall out of one ``diff`` over the sorted key
    column; a key extent that cannot be packed into int64 falls back to
    the per-dimension ``lexsort``.  Each set's sorted columns become one
    :class:`~repro.arrays.chunk.CellArena` and each group its row range
    through the trusted :meth:`ChunkData.from_extent`: the batch was
    checked up front and keys derive from coordinates.  The batch's
    columns are cut from the group keys, bounds and byte widths.
    """
    if not 0.0 <= inflate < math.inf:
        raise ChunkError(f"inflate must be finite and non-negative, got {inflate}")
    coords = np.asarray(coords, dtype=np.int64)
    schema, attributes = sets[0]
    for other, columns in sets[1:]:
        if other.dimensions != schema.dimensions:
            raise ChunkError(f"{other.name} and {schema.name} differ in "
                             "dimensions; they cannot share coordinates")
        _check_cells(other, coords, columns)
    keys = _validated_keys(schema, coords, attributes)
    n_cells = coords.shape[0]
    if n_cells == 0:
        return ChunkBatch.of([])

    packing = row_packing(keys)
    if packing is not None:
        packed = pack_rows(keys, *packing)
        order = np.argsort(packed, kind="stable")
        change = np.diff(packed[order]) != 0
    else:  # key extent defeats packing: per-dimension fallback
        order = np.lexsort(
            tuple(keys[:, d] for d in reversed(range(schema.ndim)))
        )
        change = np.any(np.diff(keys[order], axis=0) != 0, axis=1)

    coords_sorted = coords[order]
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [n_cells]))
    lo, hi = bounds[:-1], bounds[1:]
    # Groups come out of the order-preserving sort already key-sorted;
    # each takes its key from its first cell.
    rows = keys[order[lo]]
    group_keys = list(map(tuple, rows.tolist()))
    spans = list(zip(lo.tolist(), hi.tolist()))
    chunks: List[ChunkData] = []
    numbers, sizes = [], []
    schemas: Dict[str, ArraySchema] = {}  # each array's first schema
    for schema, _ in sets:
        schemas.setdefault(schema.name, schema)
    arrays = list(schemas)
    for schema, attributes in sets:
        columns = {
            name: np.asarray(attributes[name])[order]
            for name in schema.attribute_names
        }
        arena = CellArena(coords_sorted, columns)
        numbers.append(arena.number)
        size = (hi - lo) * cell_byte_width(schema, columns) * inflate
        sizes.append(size)
        chunks += [
            ChunkData.from_extent(schema, key, arena, a, b, s)
            for key, (a, b), s in zip(group_keys, spans, size.tolist())
        ]
    m, g = len(sets), len(group_keys)
    return ChunkBatch(
        chunks, arrays, list(schemas.values()),
        np.repeat([arrays.index(s.name) for s, _ in sets], g),
        np.tile(rows, (m, 1)), np.concatenate(sizes),
        np.repeat(numbers, g), np.tile(lo, m), np.tile(hi, m),
    )
