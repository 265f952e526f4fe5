"""Per-chunk reference for :func:`repro.core.catalog.concat_payload`.

The gather's body from before chunks became extents of batch arenas,
moved verbatim: one ``coords`` read and one ``values(attr)`` read per
chunk per column, one array per chunk handed to ``np.concatenate``.  It
knows nothing about arenas, extents or runs, so it is the specification
the run-coalescing gather must equal element for element and dtype for
dtype (``tests/test_catalog.py::TestRunGather``); the store-walk
payload oracles in ``tests/oracles/cluster.py`` concatenate through it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData


def concat_payload_per_chunk(
    chunks: Sequence[ChunkData],
    attrs: Sequence[str],
    ndim: int = 0,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Concatenate chunks' cells into one coordinate/value table."""
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
