"""The paper's primary contribution: elastic partitioners + provisioning.

* Eight partitioning schemes (§4) behind one
  :class:`~repro.core.base.ElasticPartitioner` interface, constructed via
  :func:`~repro.core.registry.make_partitioner`.
* The :class:`~repro.core.provisioner.LeadingStaircase` PD control loop
  (§5.1) and its two tuners (§5.2):
  :func:`~repro.core.tuning.fit_sample_count` (Algorithm 1) and
  :class:`~repro.core.tuning.ScaleOutCostModel` (Eqs. 5–9).
"""

from repro.core.append import AppendPartitioner
from repro.core.base import ElasticPartitioner, NodeId, RebalancePlan
from repro.core.catalog import ChunkCatalog
from repro.core.consistent_hash import ConsistentHashPartitioner
from repro.core.extendible_hash import ExtendibleHashPartitioner
from repro.core.hashing import hash_chunk_ref, stable_hash64
from repro.core.hilbert_curve import HilbertCurvePartitioner
from repro.core.kd_tree import KdTreePartitioner
from repro.core.provisioner import LeadingStaircase, ProvisioningDecision
from repro.core.quadtree import IncrementalQuadtreePartitioner
from repro.core.registry import (
    ALL_PARTITIONERS,
    PARTITIONER_CLASSES,
    make_partitioner,
)
from repro.core.round_robin import RoundRobinPartitioner
from repro.core.traits import (
    DISPLAY_NAMES,
    PAPER_ORDER,
    PAPER_TAXONOMY,
    PartitionerTraits,
)
from repro.core.tuning import (
    ScaleOutCostModel,
    best_planning_cycles,
    best_sample_count,
    fit_sample_count,
    sampling_error,
)
from repro.core.uniform_range import UniformRangePartitioner

__all__ = [
    "ALL_PARTITIONERS",
    "AppendPartitioner",
    "ChunkCatalog",
    "ConsistentHashPartitioner",
    "DISPLAY_NAMES",
    "ElasticPartitioner",
    "ExtendibleHashPartitioner",
    "HilbertCurvePartitioner",
    "IncrementalQuadtreePartitioner",
    "KdTreePartitioner",
    "LeadingStaircase",
    "NodeId",
    "PAPER_ORDER",
    "PAPER_TAXONOMY",
    "PARTITIONER_CLASSES",
    "PartitionerTraits",
    "ProvisioningDecision",
    "RebalancePlan",
    "RoundRobinPartitioner",
    "ScaleOutCostModel",
    "UniformRangePartitioner",
    "best_planning_cycles",
    "best_sample_count",
    "fit_sample_count",
    "hash_chunk_ref",
    "make_partitioner",
    "sampling_error",
    "stable_hash64",
]
