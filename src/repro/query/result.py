"""Query results: real answers plus simulated timing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class QueryResult:
    """Outcome of one benchmark query.

    Attributes:
        name: query identifier (e.g. ``"join_ndvi"``).
        category: ``"spj"`` or ``"science"`` (Figure 5's grouping).
        value: the real computed answer (cell count, centroids, ...).
        elapsed_seconds: simulated end-to-end latency.
        per_node_seconds: simulated busy time per node (I/O + CPU + NIC).
        network_bytes: total bytes shuffled between nodes.
        scanned_bytes: total modeled bytes read from disk.
        io_bytes: real tier bytes (spill faults + write-through) moved
            by the storage LRU while this query ran; 0.0 on untiered
            clusters.
    """

    name: str
    category: str
    value: Any
    elapsed_seconds: float
    per_node_seconds: Dict[int, float] = field(default_factory=dict)
    network_bytes: float = 0.0
    scanned_bytes: float = 0.0
    io_bytes: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryResult({self.name}, {self.elapsed_seconds:.1f}s, "
            f"net={self.network_bytes:.2g}B)"
        )
