"""Per-cell reference for :func:`repro.arrays.array.chunk_cells`.

Moved verbatim from ``repro.arrays.array``; shares only the input
validation with the packed-sort path.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.arrays.array import _validated_keys
from repro.arrays.chunk import ChunkData
from repro.arrays.schema import ArraySchema


def chunk_cells_scalar(
    schema: ArraySchema,
    coords: np.ndarray,
    attributes: Mapping[str, np.ndarray],
    inflate: float = 1.0,
) -> List[ChunkData]:
    """Parity oracle: per-cell Python loop building a dict of cell masks.

    A deliberately naive reference implementation — one dict probe per
    cell, one boolean-mask gather per chunk — that defines the
    semantics without sharing any code with the packed-sort path.
    Output is identical to :func:`chunk_cells` (checked by
    ``tests/test_batch_parity.py``): same chunks in the same key order,
    cells in batch order within each chunk, bit-identical sizes.
    """
    coords = np.asarray(coords, dtype=np.int64)
    keys = _validated_keys(schema, coords, attributes)
    n_cells = coords.shape[0]
    if n_cells == 0:
        return []

    mask_by_key: Dict[Tuple[int, ...], np.ndarray] = {}
    for i in range(n_cells):
        key = tuple(int(v) for v in keys[i])
        mask = mask_by_key.get(key)
        if mask is None:
            mask = np.zeros(n_cells, dtype=bool)
            mask_by_key[key] = mask
        mask[i] = True

    chunks: List[ChunkData] = []
    attr_columns = {
        name: np.asarray(attributes[name])
        for name in schema.attribute_names
    }
    for key in sorted(mask_by_key):
        mask = mask_by_key[key]
        chunk_attrs = {
            name: column[mask] for name, column in attr_columns.items()
        }
        chunk = ChunkData(schema, key, coords[mask], chunk_attrs)
        if inflate != 1.0:
            chunk = ChunkData(
                schema, key, coords[mask], chunk_attrs,
                size_bytes=chunk.size_bytes * inflate,
            )
        chunks.append(chunk)
    return chunks
