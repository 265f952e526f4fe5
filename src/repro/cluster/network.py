"""Network time model for the shared-nothing cluster.

Each node has one NIC: a node's inbound plus outbound bytes serialize at
the network rate ``t``, while transfers between *different* node pairs
proceed in parallel.  The elapsed time of a transfer schedule is therefore
the maximum per-node NIC time.

This single assumption reproduces the paper's headline reorganization
result: an incremental plan touches one donor and one newcomer per split
(small max), while a global reshuffle pushes data through every NIC at
once — lots of parallelism but far more total bytes, for a ~2.5× longer
reorganization (§6.2.1).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.cluster.costs import CostParameters
from repro.core.base import RebalancePlan, sum_by_node


def nic_bytes(plan: RebalancePlan) -> Dict[int, float]:
    """Inbound + outbound bytes per node (source, then dest, per move)."""
    return sum_by_node(
        np.column_stack([plan.sources, plan.dests]).ravel(),
        np.repeat(plan.sizes, 2),
    )


def rebalance_time(plan: RebalancePlan, costs: CostParameters) -> float:
    """Elapsed seconds to execute a rebalance plan.

    Two bandwidth ceilings apply: the bottleneck NIC (max in+out bytes on
    one node) and the cluster fabric (total bytes across all links divided
    by the fabric's concurrent-transfer capacity).  The slower one sets
    the pace; the receiving node also pays local I/O to persist what it
    ingests.  Incremental plans are NIC-bound (few nodes, few bytes);
    global reshuffles are fabric-bound (every NIC busy, many more total
    bytes) — which is where the paper's ~2.5x penalty comes from.
    """
    if plan.is_empty():
        return 0.0
    per_node = nic_bytes(plan)
    slowest_nic = max(per_node.values())
    fabric = plan.total_bytes / costs.fabric_concurrency
    inbound = plan.bytes_by_dest()
    slowest_write = max(inbound.values()) if inbound else 0.0
    return (
        costs.network_time(max(slowest_nic, fabric))
        + costs.io_time(slowest_write)
    )


def insert_time(
    bytes_by_node: Mapping[int, float],
    coordinator: int,
    costs: CostParameters,
) -> float:
    """Elapsed seconds for a coordinator-routed insert (Eq. 6 semantics).

    The coordinator receives the batch, writes its own share at the I/O
    rate ``δ``, and ships every other node's share over its NIC at ``t``
    (the coordinator NIC serializes the fan-out, exactly as the paper's
    insert model assumes: ``I = μ(1/N)δ + μ((N-1)/N)t``).
    """
    local = float(bytes_by_node.get(coordinator, 0.0))
    remote = float(
        sum(v for n, v in bytes_by_node.items() if n != coordinator)
    )
    return costs.io_time(local) + costs.network_time(remote)
