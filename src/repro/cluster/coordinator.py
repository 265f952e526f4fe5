"""Coordinator-side execution of inserts, removals, and rebalances.

The coordinator is the node that receives each insert batch (paper §3.4),
asks the partitioner where every chunk belongs, and distributes the chunks
over the cluster.  On scale-out it also executes the partitioner's
rebalance plan, and it retires expired chunks (:func:`execute_remove`) so
churn-heavy retention workloads shrink instead of growing monotonically.

Every mutation keeps the cluster's columnar chunk catalog
(:class:`repro.core.catalog.ChunkCatalog`) current, so the query read
path never re-scans node stores.  The rebalance executor runs as one
grouped pass — whole-plan validation, per-source bulk evictions,
per-destination bulk installs, one catalog relocation; the original
per-move evict/put loop is its specification
(``tests/oracles/cluster.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData, ChunkRef
from repro.cluster.costs import CostParameters
from repro.cluster.network import insert_time, rebalance_time
from repro.cluster.node import Node
from repro.core.base import ElasticPartitioner, RebalancePlan
from repro.core.catalog import ChunkCatalog
from repro.errors import ClusterError


@dataclass
class InsertReport:
    """Outcome of distributing one batch of chunks."""

    chunk_count: int
    total_bytes: float
    bytes_by_node: Dict[int, float]
    elapsed_seconds: float


@dataclass
class RebalanceReport:
    """Outcome of executing one rebalance plan."""

    chunks_moved: int
    bytes_moved: float
    elapsed_seconds: float
    touched_nodes: int


def execute_insert(
    nodes: Mapping[int, Node],
    partitioner: ElasticPartitioner,
    chunks: Iterable[ChunkData],
    costs: CostParameters,
    coordinator_id: int,
    catalog: ChunkCatalog,
) -> InsertReport:
    """Place and store a batch of chunks; price it per Eq. 6 semantics.

    One ``place_batch`` call routes the batch (and updates the byte
    ledger); one ``ids_of`` pass then reads its table ids, whose planned
    owners are the targets.  Chunks are stored grouped per destination
    (a stable argsort, so each store pays one bulk install and same-ref
    merges replay in batch order) and the stored objects (merges
    produce new ones) are published with those ids.  The elapsed time
    charges the coordinator's local I/O for its own share and its NIC
    for everything shipped elsewhere.
    """
    if coordinator_id not in nodes:
        raise ClusterError(f"unknown coordinator node {coordinator_id}")
    chunks = list(chunks)
    count = len(chunks)
    refs = list(map(ChunkData.ref, chunks))
    size_list = list(map(attrgetter("size_bytes"), chunks))
    sizes = np.array(size_list, dtype=np.float64)
    refs_and_sizes = list(zip(refs, size_list))
    partitioner.prepare_batch(refs_and_sizes)
    partitioner.place_batch(refs_and_sizes)
    table = catalog.table
    ids = table.ids_of(refs)
    targets = table.owners(ids)
    # Per-node byte totals and store groups from one unique pass.
    uniq_targets, first, inverse, counts = np.unique(
        targets, return_index=True, return_inverse=True,
        return_counts=True,
    )
    unknown = [int(t) for t in uniq_targets.tolist() if t not in nodes]
    if unknown:
        raise ClusterError(
            f"partitioner placed chunks on unknown nodes {unknown}"
        )
    node_bytes = np.bincount(inverse, weights=sizes)
    bytes_by_node: Dict[int, float] = {
        int(t): float(b)
        for t, b in zip(uniq_targets.tolist(), node_bytes.tolist())
    }
    # Stores are visited in order of first appearance in the batch, so
    # a mid-batch I/O fault leaves the same stores written as per-chunk
    # routing would.
    groups = np.split(
        np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1]
    )
    stored = np.empty(count, dtype=object)
    for g in np.argsort(first).tolist():
        idxs = groups[g]
        stored[idxs] = nodes[int(uniq_targets[g])].store.put_many(
            [chunks[i] for i in idxs.tolist()]
        )
    catalog.put_batch(stored, ids)
    elapsed = insert_time(bytes_by_node, coordinator_id, costs)
    return InsertReport(
        chunk_count=count,
        total_bytes=float(sizes.sum()),
        bytes_by_node=bytes_by_node,
        elapsed_seconds=elapsed,
    )


def execute_rebalance(
    nodes: Mapping[int, Node],
    plan: RebalancePlan,
    costs: CostParameters,
    catalog: ChunkCatalog,
) -> RebalanceReport:
    """Physically move chunks between stores per a rebalance plan.

    The batch executor validates the whole plan up front (known nodes,
    every first source actually holding its chunk), collapses per-ref
    move chains to ``first source → final destination``, then runs one
    bulk eviction per donor and one bulk install per receiver, followed
    by a single catalog relocation pass that publishes the moved
    chunks' planned owners.
    """
    moves = plan.moves
    if not moves:
        return RebalanceReport(
            chunks_moved=0,
            bytes_moved=0.0,
            elapsed_seconds=rebalance_time(plan, costs),
            touched_nodes=0,
        )
    # Whole-plan validation before the first eviction.
    for move in moves:
        if move.source not in nodes or move.dest not in nodes:
            raise ClusterError(
                f"rebalance references unknown node: {move}"
            )
    # Collapse chains: a chunk moved twice within one plan (sequential
    # splits) leaves its first source once and lands on its final
    # destination once — the same end state as replaying the moves.
    # Chains must be continuous (each hop starts where the previous one
    # ended), exactly as the per-move oracle enforces physically.
    first_source: Dict[ChunkRef, int] = {}
    final_dest: Dict[ChunkRef, int] = {}
    order: List[ChunkRef] = []
    for move in moves:
        if move.ref not in first_source:
            first_source[move.ref] = move.source
            order.append(move.ref)
        elif move.source != final_dest[move.ref]:
            raise ClusterError(
                f"discontinuous move chain for {move.ref}: hop from "
                f"{move.source} but the chunk is on "
                f"{final_dest[move.ref]}"
            )
        final_dest[move.ref] = move.dest
    # Every chained chunk must exist at its first source — including
    # cyclic chains that net out to no movement, which the per-move
    # oracle would still try (and fail) to evict.
    for ref in order:
        if ref not in nodes[first_source[ref]].store:
            raise ClusterError(
                f"rebalance source {first_source[ref]} does not "
                f"hold {ref}"
            )
    net = [r for r in order if first_source[r] != final_dest[r]]
    by_source: Dict[int, List[ChunkRef]] = {}
    for ref in net:
        by_source.setdefault(first_source[ref], []).append(ref)
    # Grouped physical movement: bulk evictions, then bulk installs.
    payload: Dict[ChunkRef, ChunkData] = {}
    for source, refs in by_source.items():
        payload.update(
            zip(refs, nodes[source].store.evict_many(refs))
        )
    by_dest: Dict[int, List[ChunkRef]] = {}
    for ref in net:
        by_dest.setdefault(final_dest[ref], []).append(ref)
    for dest, refs in by_dest.items():
        nodes[dest].store.put_many([payload[r] for r in refs])
    catalog.relocate_batch(net)
    return RebalanceReport(
        chunks_moved=plan.chunk_count,
        bytes_moved=plan.total_bytes,
        elapsed_seconds=rebalance_time(plan, costs),
        touched_nodes=len(plan.touched_nodes()),
    )


@dataclass
class RemoveReport:
    """Outcome of retiring a batch of chunks (expiry / deletion)."""

    chunk_count: int
    bytes_freed: float
    elapsed_seconds: float
    touched_nodes: int


def execute_remove(
    nodes: Mapping[int, Node],
    partitioner: ElasticPartitioner,
    refs: Sequence[ChunkRef],
    costs: CostParameters,
    catalog: ChunkCatalog,
) -> RemoveReport:
    """Retire chunks: evict from their stores and drop from the ledger.

    The elapsed time charges each holding node's local I/O for rewriting
    its store (deletes are local; no network).  The ledger slots freed
    here are what :meth:`ElasticPartitioner.compact_ledger` later
    reclaims — the cluster wires that into its reorganization cycle.

    The whole batch is validated (known refs, known nodes, no
    duplicates) before the first eviction, so a bad ref raises without
    leaving earlier chunks half-removed; the evictions then run as one
    bulk pass per holding node.
    """
    resolved: List[Tuple[ChunkRef, int, float]] = []
    seen = set()
    for ref in refs:
        if ref in seen:
            raise ClusterError(f"duplicate chunk {ref} in remove batch")
        seen.add(ref)
        node = partitioner.locate(ref)  # raises on unknown chunks
        if node not in nodes:
            raise ClusterError(
                f"chunk {ref} mapped to unknown node {node}"
            )
        resolved.append((ref, node, partitioner.size_of(ref)))

    by_node: Dict[int, List[ChunkRef]] = {}
    freed_by_node: Dict[int, float] = {}
    for ref, node, size in resolved:
        by_node.setdefault(node, []).append(ref)
        freed_by_node[node] = freed_by_node.get(node, 0.0) + size
    for node, node_refs in by_node.items():
        nodes[node].store.evict_many(node_refs)
    # Unpublish before the table frees the ids.
    catalog.remove_batch([ref for ref, _, _ in resolved])
    for ref, _node, _size in resolved:
        partitioner.remove(ref)
    elapsed = max(
        (costs.io_time(b) for b in freed_by_node.values()), default=0.0
    )
    return RemoveReport(
        chunk_count=len(resolved),
        bytes_freed=float(sum(freed_by_node.values())),
        elapsed_seconds=elapsed,
        touched_nodes=len(freed_by_node),
    )
