"""Shared-nothing cluster substrate: nodes, network model, coordinator.

The cluster executes real chunk movement (stores hold actual payloads)
while pricing every phase with the §5.2 cost structure — I/O at ``δ`` per
GB, network at ``t`` per GB — so experiments report the quantities the
paper reasons about.
"""

from repro.cluster.cluster import (
    ElasticCluster,
    IngestReport,
    TieredStorage,
)
from repro.cluster.coordinator import (
    InsertReport,
    RebalanceReport,
    RemoveReport,
    execute_insert,
    execute_rebalance,
    execute_remove,
)
from repro.cluster.costs import DEFAULT_COSTS, GB, CostParameters
from repro.cluster.metrics import CycleMetrics, RunMetrics, relative_std
from repro.cluster.network import insert_time, nic_bytes, rebalance_time
from repro.cluster.node import Node
from repro.cluster.session import ClusterSession, SnapshotRaceError

__all__ = [
    "ClusterSession",
    "CostParameters",
    "CycleMetrics",
    "DEFAULT_COSTS",
    "ElasticCluster",
    "GB",
    "IngestReport",
    "InsertReport",
    "Node",
    "RebalanceReport",
    "RemoveReport",
    "RunMetrics",
    "SnapshotRaceError",
    "TieredStorage",
    "execute_insert",
    "execute_rebalance",
    "execute_remove",
    "insert_time",
    "nic_bytes",
    "rebalance_time",
    "relative_std",
]
