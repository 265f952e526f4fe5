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
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkBatch, ChunkData, ChunkRef
from repro.cluster.costs import CostParameters
from repro.cluster.network import insert_time, rebalance_time
from repro.cluster.node import Node
from repro.core.base import ElasticPartitioner, RebalancePlan, sum_by_node
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

    Runs on the batch's columns (a :class:`ChunkBatch`; a list is
    converted once), its schemas checked against the published ones
    first.  One ``place_batch`` call routes the batch, updates the byte
    ledger and returns the table ids, whose owners are the
    targets.  Chunks are stored grouped per destination (a stable
    argsort, so each store pays one bulk install and same-ref merges
    replay in batch order) and the stored objects are published with
    those ids (re-read when a merge or a tiered store left a handle
    with its own arrays).  The elapsed time charges the coordinator's
    local I/O for its own share and its NIC for everything shipped
    elsewhere.
    """
    if coordinator_id not in nodes:
        raise ClusterError(f"unknown coordinator node {coordinator_id}")
    batch = ChunkBatch.of(chunks)
    for array, schema in zip(batch.arrays, batch.schemas):
        published = catalog.schema_of(array)
        if published is not None and published is not schema and (
                published.declaration() != schema.declaration()):
            raise ClusterError(
                f"array {array!r} is published as "
                f"{published.declaration()}, not {schema.declaration()}"
            )
    count = len(batch)
    refs = list(map(ChunkData.ref, batch.chunks))
    sizes = batch.sizes
    partitioner.prepare_batch(refs, sizes, batch.keys)
    ids = partitioner.place_batch(
        refs, sizes, batch.keys, (batch.arrays, batch.codes)
    )
    targets = catalog.table.owners(ids)
    groups = _groups(targets)
    unknown = sorted(node for node, _ in groups if node not in nodes)
    if unknown:
        raise ClusterError(
            f"partitioner placed chunks on unknown nodes {unknown}"
        )
    bytes_by_node = dict(sorted(sum_by_node(targets, sizes).items()))
    # Stores are visited in order of first appearance in the batch, so
    # a mid-batch I/O fault leaves the same stores written as per-chunk
    # routing would.
    # (``np.fromiter``: assigning a list probes each item as a sequence.)
    handles = np.fromiter(batch.chunks, dtype=object, count=count)
    stored = np.empty(count, dtype=object)
    tiered = np.zeros(count, dtype=bool)
    for node, idx in groups:
        store = nodes[node].store
        stored[idx] = np.fromiter(
            store.put_many(handles[idx].tolist()), dtype=object,
            count=len(idx),
        )
        tiered[idx] = store.tier is not None
    if tiered.any() or (stored != handles).any():  # merged or adopted
        batch = ChunkBatch.of(stored.tolist())
    catalog.put_batch(batch, ids)
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
    continuous move chains, every first source actually holding its
    chunk), collapses per-chunk move chains to ``first source → final
    destination``, then runs one bulk eviction per donor and one bulk
    install per receiver (stores in order of first appearance), followed
    by one catalog relocation pass over the plan's ids.  It
    reads the plan's columns: one stable argsort groups moves by chunk.
    """
    n = plan.chunk_count
    if not n:
        return RebalanceReport(
            chunks_moved=0,
            bytes_moved=0.0,
            elapsed_seconds=rebalance_time(plan, costs),
            touched_nodes=0,
        )
    refs, sources, dests = plan.refs, plan.sources, plan.dests
    # Whole-plan validation before the first eviction.
    known = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
    bad = ~(np.isin(sources, known) & np.isin(dests, known))
    if bad.any():
        i = int(np.argmax(bad))
        raise ClusterError(
            f"rebalance references unknown node: {refs[i]} "
            f"{sources[i]} -> {dests[i]}"
        )
    # Collapse chains: a chunk moved twice within one plan (sequential
    # splits) leaves its first source once and lands on its final
    # destination once — the same end state as replaying the moves.
    # Chains must be continuous (each hop starts where the previous one
    # ended), exactly as the per-move oracle enforces physically.
    keys = plan.ids
    if keys is None:  # hand-built: a chunk not in the table is not stored
        try:
            keys = catalog.table.ids_of(refs)
        except KeyError as err:
            i = refs.tolist().index(err.args[0])
            raise ClusterError(
                f"rebalance source {sources[i]} does not hold {refs[i]}"
            ) from None
    else:
        live = np.isin(keys, catalog.table.live_ids())
        if not live.all():
            i = int(np.argmin(live))
            raise ClusterError(
                f"rebalance id {keys[i]} of {refs[i]} is not a live "
                "chunk-table id"
            )
        named = catalog.table.refs_at(keys)
        other = named != refs
        if other.any():
            i = int(np.argmax(other))
            raise ClusterError(
                f"rebalance id {keys[i]} names {named[i]}, not {refs[i]}"
            )
    by_chunk = np.argsort(keys, kind="stable")
    head = np.ones(n + 1, dtype=bool)  # each chunk's first move, sentinel
    head[1:-1] = keys[by_chunk][1:] != keys[by_chunk][:-1]
    broken = ~head[1:-1] & (sources[by_chunk[1:]] != dests[by_chunk[:-1]])
    if broken.any():
        j = np.nonzero(broken)[0][np.argmin(by_chunk[1:][broken])]
        i = by_chunk[j + 1]
        raise ClusterError(
            f"discontinuous move chain for {refs[i]}: hop from "
            f"{sources[i]} but the chunk is on {dests[by_chunk[j]]}"
        )
    first, last = by_chunk[head[:-1]], by_chunk[head[1:]]
    order = np.argsort(first)  # chunks in first-appearance order
    first, last = first[order], last[order]
    moved, origin, final = refs[first], sources[first], dests[last]
    # Every chained chunk must exist at its first source — including
    # cyclic chains that net out to no movement, which the per-move
    # oracle would still try (and fail) to evict.
    missing = len(moved)
    for node, idx in _groups(origin):
        held = list(map(nodes[node].store.__contains__, moved[idx].tolist()))
        if not all(held):
            missing = min(missing, int(idx[held.index(False)]))
    if missing < len(moved):
        raise ClusterError(
            f"rebalance source {origin[missing]} does not hold "
            f"{moved[missing]}"
        )
    net = np.nonzero(origin != final)[0]
    # Grouped physical movement: bulk evictions, then bulk installs.
    payload = np.empty(len(moved), dtype=object)
    for node, idx in _groups(origin[net]):
        payload[net[idx]] = np.fromiter(
            nodes[node].store.evict_many(moved[net[idx]].tolist()),
            dtype=object, count=len(idx),
        )
    for node, idx in _groups(final[net]):
        nodes[node].store.put_many(payload[net[idx]].tolist())
    catalog.relocate_batch(keys[first[net]])
    return RebalanceReport(
        chunks_moved=n,
        bytes_moved=plan.total_bytes,
        elapsed_seconds=rebalance_time(plan, costs),
        touched_nodes=len(plan.touched_nodes()),
    )


def _groups(nodes: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(node, positions)`` per distinct node, in order of first
    appearance; positions ascend (one stable argsort)."""
    uniq, first, inverse, counts = np.unique(
        nodes, return_index=True, return_inverse=True, return_counts=True
    )
    parts = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    return [(int(uniq[g]), parts[g]) for g in np.argsort(first).tolist()]


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
    refs = list(refs)
    table = partitioner.table
    ids = table.lookup(refs)  # resolved once; -1 = never placed
    unknown = ids < 0
    ids = ids[: int(np.argmax(unknown)) if unknown.any() else len(ids)]
    owners = table.owners(ids)
    # The first bad ref in batch order names the error: a repeat, a ref
    # on a node the cluster does not have, or one never placed.
    repeat = np.ones(len(ids), dtype=bool)
    repeat[np.unique(ids, return_index=True)[1]] = False
    stray = ~np.isin(owners, np.fromiter(nodes, np.int64, len(nodes)))
    bad = np.nonzero(repeat | stray)[0]
    i = int(bad[0]) if len(bad) else len(ids)
    if i < len(ids) and repeat[i]:
        raise ClusterError(f"duplicate chunk {refs[i]} in remove batch")
    if i < len(ids):
        raise ClusterError(
            f"chunk {refs[i]} mapped to unknown node {owners[i]}"
        )
    if i < len(refs):
        partitioner.locate(refs[i])  # raises: never placed
    ref_col = table.refs_at(ids)
    for node, idx in _groups(owners):
        nodes[node].store.evict_many(ref_col[idx].tolist())
    freed_by_node = sum_by_node(owners, table.sizes_at(ids))
    # Unpublish before the table frees the ids (in one batch pass).
    catalog.remove_batch(ids)
    partitioner.remove(ids)
    elapsed = max(
        (costs.io_time(b) for b in freed_by_node.values()), default=0.0
    )
    return RemoveReport(
        chunk_count=len(refs),
        bytes_freed=float(sum(freed_by_node.values())),
        elapsed_seconds=elapsed,
        touched_nodes=len(freed_by_node),
    )
