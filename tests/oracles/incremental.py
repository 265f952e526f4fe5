"""Per-row reference for :func:`repro.query.incremental.join_aggregate_full`.

Moved verbatim from ``repro.query.incremental``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


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
