"""The per-move rebalance path: the spec the column plans match.

Moved from ``repro.core.base`` and ``repro.cluster.network`` when a
rebalance plan became parallel columns: the frozen :class:`Move` record
(one per chunk), ``_relocate`` (one ledger write per chunk, here
:func:`relocate_scalar`), and the loops over ``plan.moves`` that priced a
plan.  ``tests/test_rebalance_parity.py`` replays every scheme's plans
through them; :func:`tests.oracles.partitioners.try_split_scalar` and
:func:`tests.oracles.cluster.execute_rebalance_scalar` are built on
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.cluster.costs import CostParameters
from repro.core.base import NodeId, RebalancePlan
from repro.errors import PartitioningError


@dataclass(frozen=True)
class Move:
    """One chunk relocation in a rebalance plan."""

    ref: ChunkRef
    source: NodeId
    dest: NodeId
    size_bytes: float

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise PartitioningError(
                f"degenerate move of {self.ref}: {self.source} -> {self.dest}"
            )

    @classmethod
    def rows(cls, plan: RebalancePlan) -> List["Move"]:
        """A column plan's moves, one record each, in move order."""
        return [
            cls(ref, source, dest, size)
            for ref, source, dest, size in zip(
                plan.refs.tolist(), plan.sources.tolist(),
                plan.dests.tolist(), plan.sizes.tolist(),
            )
        ]

    @staticmethod
    def plan(moves: List["Move"]) -> RebalancePlan:
        """The column plan of ``moves`` (no table ids)."""
        return RebalancePlan(
            [m.ref for m in moves], [m.source for m in moves],
            [m.dest for m in moves], [m.size_bytes for m in moves],
        )


def relocate_scalar(self, ref: ChunkRef, dest: NodeId) -> Move:
    """``ElasticPartitioner._relocate``: move one chunk, return its move."""
    if not self._ledger.has_node(dest):
        raise PartitioningError(f"relocation to unknown node {dest}")
    source = self._ledger.node_of(ref)
    size = self._ledger.size_of(ref)
    move = Move(ref=ref, source=source, dest=dest, size_bytes=size)
    self._ledger.relocate_many(
        self._ledger.ids_of([ref]), np.array([dest], dtype=np.int64)
    )
    return move


def total_bytes_scalar(plan: RebalancePlan) -> float:
    """``RebalancePlan.total_bytes``, one move at a time."""
    return float(sum(m.size_bytes for m in Move.rows(plan)))


def bytes_by_dest_scalar(plan: RebalancePlan) -> Dict[NodeId, float]:
    """``RebalancePlan.bytes_by_dest``, one move at a time."""
    out: Dict[NodeId, float] = {}
    for m in Move.rows(plan):
        out[m.dest] = out.get(m.dest, 0.0) + m.size_bytes
    return out


def nic_bytes_scalar(plan: RebalancePlan) -> Dict[int, float]:
    """``repro.cluster.network.nic_bytes``, one move at a time."""
    per_node: Dict[int, float] = {}
    for move in Move.rows(plan):
        per_node[move.source] = per_node.get(move.source, 0.0) + move.size_bytes
        per_node[move.dest] = per_node.get(move.dest, 0.0) + move.size_bytes
    return per_node


def rebalance_time_scalar(
    plan: RebalancePlan, costs: CostParameters
) -> float:
    """``repro.cluster.network.rebalance_time`` over the per-move loops."""
    if not Move.rows(plan):
        return 0.0
    per_node = nic_bytes_scalar(plan)
    slowest_nic = max(per_node.values())
    fabric = total_bytes_scalar(plan) / costs.fabric_concurrency
    inbound = bytes_by_dest_scalar(plan)
    slowest_write = max(inbound.values()) if inbound else 0.0
    return (
        costs.network_time(max(slowest_nic, fabric))
        + costs.io_time(slowest_write)
    )
