"""repro — Incremental Elasticity for Array Databases (SIGMOD 2014).

A from-scratch reproduction of Duggan & Stonebraker's elastic array
database: a SciDB-style array substrate, eight elastic partitioners, the
leading-staircase provisioner with its tuners, the MODIS/AIS workloads and
their SPJ + science benchmarks, and a harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import (
        ElasticCluster, make_partitioner, ModisWorkload, GB,
    )
    workload = ModisWorkload(n_cycles=4, cells_per_band_per_cycle=500)
    partitioner = make_partitioner(
        "kd_tree", nodes=[0, 1], grid=workload.grid_box()
    )
    cluster = ElasticCluster(partitioner, node_capacity_bytes=100 * GB)
    cluster.ingest(workload.batch(1).chunks)

See ``examples/`` for full scenarios and ``benchmarks/`` for the paper's
tables and figures.
"""

from repro.arrays import (
    ArraySchema,
    AttributeSpec,
    Box,
    ChunkData,
    ChunkRef,
    DimensionSpec,
    parse_schema,
)
from repro.cluster import (
    DEFAULT_COSTS,
    GB,
    ClusterSession,
    CostParameters,
    CycleMetrics,
    ElasticCluster,
    RunMetrics,
)
from repro.config import ParityConfig, parity
from repro.core import (
    ALL_PARTITIONERS,
    ElasticPartitioner,
    LeadingStaircase,
    RebalancePlan,
    ScaleOutCostModel,
    fit_sample_count,
    make_partitioner,
)
from repro.harness import ExperimentRunner, RunConfig
from repro.query import QueryResult, ais_suite, modis_suite, suite_for
from repro.workloads import AisWorkload, InsertBatch, ModisWorkload

__version__ = "1.0.0"

__all__ = [
    "ALL_PARTITIONERS",
    "AisWorkload",
    "ArraySchema",
    "AttributeSpec",
    "Box",
    "ChunkData",
    "ChunkRef",
    "ClusterSession",
    "CostParameters",
    "CycleMetrics",
    "DEFAULT_COSTS",
    "DimensionSpec",
    "ElasticCluster",
    "ElasticPartitioner",
    "ExperimentRunner",
    "GB",
    "InsertBatch",
    "LeadingStaircase",
    "ModisWorkload",
    "ParityConfig",
    "QueryResult",
    "RebalancePlan",
    "RunConfig",
    "RunMetrics",
    "ScaleOutCostModel",
    "__version__",
    "ais_suite",
    "fit_sample_count",
    "make_partitioner",
    "modis_suite",
    "parity",
    "parse_schema",
    "suite_for",
]
