"""The cyclic workload model (paper §3.4).

Elastic array databases grow monotonically: every *workload cycle* ingests
a batch of new measurements, possibly reorganizes after a scale-out, and
then runs the science team's query benchmark.  A workload object produces
the per-cycle insert batches (deterministically, from a seed) and knows its
schemas, chunk-grid horizon, and query regions.

Concrete workloads: :class:`~repro.workloads.modis.ModisWorkload` and
:class:`~repro.workloads.ais.AisWorkload`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

from repro.arrays.coords import Box
from repro.arrays.schema import ArraySchema
from repro.cluster.costs import GB
from repro.errors import WorkloadError
from repro.workloads.batch import InsertBatch


class CyclicWorkload(ABC):
    """A monotonically growing array workload.

    Subclasses generate one :class:`InsertBatch` per cycle and expose the
    metadata the harness and query suites need.  Batches are cached: the
    generator for cycle ``i`` is seeded by ``(seed, i)`` so runs are
    reproducible and identical across partitioner sweeps.
    """

    #: short identifier, e.g. ``"modis"``.
    name: str = ""

    def __init__(self, n_cycles: int, seed: int) -> None:
        if n_cycles < 1:
            raise WorkloadError(f"n_cycles must be >= 1, got {n_cycles}")
        self.n_cycles = int(n_cycles)
        self.seed = int(seed)
        self._batch_cache: Dict[int, InsertBatch] = {}

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def schemas(self) -> Tuple[ArraySchema, ...]:
        """All array schemas of the workload (placement-managed ones)."""

    @abstractmethod
    def grid_box(self) -> Box:
        """Chunk-grid box covering the full experiment horizon.

        Range partitioners subdivide this box; its time extent covers all
        ``n_cycles`` so incremental tables never need re-fitting.
        """

    @abstractmethod
    def _generate_batch(self, cycle: int) -> InsertBatch:
        """Produce cycle ``cycle``'s chunks (1-based)."""

    @property
    @abstractmethod
    def target_total_bytes(self) -> float:
        """Modeled bytes after the final cycle (the paper-scale figure)."""

    # ------------------------------------------------------------------
    def batch(self, cycle: int) -> InsertBatch:
        """The (cached) insert batch of one 1-based cycle."""
        if not 1 <= cycle <= self.n_cycles:
            raise WorkloadError(
                f"cycle {cycle} outside 1..{self.n_cycles}"
            )
        cached = self._batch_cache.get(cycle)
        if cached is None:
            cached = self._generate_batch(cycle)
            self._batch_cache[cycle] = cached
        return cached

    def batches(self) -> List[InsertBatch]:
        """All cycles' batches in order."""
        return [self.batch(i) for i in range(1, self.n_cycles + 1)]

    def demand_curve(self) -> List[float]:
        """Cumulative post-insert bytes per cycle (Figure 8's demand)."""
        total = 0.0
        curve = []
        for batch in self.batches():
            total += batch.total_bytes
            curve.append(total)
        return curve

    def spatial_dims(self) -> Tuple[int, ...]:
        """Indices of the bounded (spatial) dimensions.

        Range partitioners prioritize these over the unbounded time
        dimension (time grows monotonically; an early time split strands
        one side with all future inserts).
        """
        primary = self.schemas[0]
        return tuple(
            i for i, d in enumerate(primary.dimensions) if d.bounded
        )

    def time_chunk_box(self, lo_chunk: int, hi_chunk: int) -> Box:
        """The slab of time chunks ``[lo_chunk, hi_chunk)``.

        Spans the whole declared domain of every other dimension, so
        routing it selects exactly the chunks whose time key falls in
        the range — how the "latest data" queries (§3.3, "cooking")
        name their working set without walking the array.
        """
        time, *space = self.schemas[0].dimensions
        return Box(
            (
                time.start + lo_chunk * time.chunk_interval,
                *(d.start for d in space),
            ),
            (
                time.start + hi_chunk * time.chunk_interval,
                *(d.end + 1 for d in space),
            ),
        )

    def schema(self, array: str) -> ArraySchema:
        """Look up one of the workload's schemas by array name."""
        for s in self.schemas:
            if s.name == array:
                return s
        raise WorkloadError(f"workload {self.name} has no array {array!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(cycles={self.n_cycles}, "
            f"target={self.target_total_bytes / GB:.0f} GB)"
        )
