"""Insert batches: the unit of the workload model's ingest phase."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.arrays.chunk import ChunkData


@dataclass
class InsertBatch:
    """One cycle's worth of new chunks (paper §3.4: bulk loads).

    Attributes:
        cycle: 1-based workload-cycle index.
        chunks: the new chunks, across all arrays of the workload.
        description: human-readable provenance (e.g. "MODIS day 3").
    """

    cycle: int
    chunks: List[ChunkData] = field(default_factory=list)
    description: str = ""

    @property
    def total_bytes(self) -> float:
        return float(sum(c.size_bytes for c in self.chunks))

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

    @property
    def cell_count(self) -> int:
        return int(sum(c.cell_count for c in self.chunks))
