"""References for :mod:`repro.query.incremental`, moved verbatim from it.

``join_aggregate_scalar`` is the per-row form of
``join_aggregate_full``; ``delta_cells_per_chunk`` is ``delta_cells``
from before it lowered a delta through the run gather — one ``coords``
read, one ``values(attr)`` read and one weight array per chunk row.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def delta_cells_per_chunk(
    delta,
    attrs: Sequence[str],
    ndim: int,
) -> Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray]:
    """Lower a ``CatalogDelta`` to signed cell columns, chunk by chunk."""
    coords_parts: List[np.ndarray] = []
    value_parts: Dict[str, List[np.ndarray]] = {a: [] for a in attrs}
    weight_parts: List[np.ndarray] = []
    for chunk, sign in zip(delta.chunks.tolist(), delta.signs.tolist()):
        cells = chunk.coords.shape[0]
        coords_parts.append(chunk.coords)
        for a in value_parts:  # keys, not attrs: tolerate duplicates
            value_parts[a].append(chunk.values(a))
        weight_parts.append(np.full(cells, int(sign), dtype=np.int64))
    if not coords_parts:
        return (
            np.empty((0, ndim), dtype=np.int64),
            {a: np.empty(0) for a in attrs},
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(coords_parts, axis=0),
        {a: np.concatenate(value_parts[a]) for a in attrs},
        np.concatenate(weight_parts),
    )


def join_aggregate_scalar(
    keys_a: np.ndarray,
    values_a: np.ndarray,
    keys_b: np.ndarray,
    values_b: np.ndarray,
) -> Dict[str, float]:
    """Parity oracle: per-row dict accumulation of the join aggregates."""
    per_key: Dict[object, Tuple[int, float]] = {}
    for key, value in zip(keys_a.tolist(), values_a.tolist()):
        count, total = per_key.get(key, (0, 0.0))
        per_key[key] = (count + 1, total + float(value))
    pairs = 0
    product_sum = 0.0
    for key, value in zip(keys_b.tolist(), values_b.tolist()):
        hit = per_key.get(key)
        if hit is None:
            continue
        pairs += hit[0]
        product_sum += hit[1] * float(value)
    return {"pairs": pairs, "product_sum": product_sum}
