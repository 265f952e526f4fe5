"""The pre-catalog cluster: store walks and the per-move rebalance loop.

The bodies of the retired scan-mode branches of
``repro.cluster.cluster.ElasticCluster`` and
``repro.cluster.coordinator.execute_rebalance``, moved verbatim as plain
functions of a cluster.  They re-walk every node's store per call and
cache nothing, so they are the specification the catalog read path and
the grouped rebalance executor are compared against
(``tests/test_catalog.py``, ``tests/test_region_routing.py``).  The
rebalance loop walks a column plan as :class:`Move` records and prices
it with the per-move loops of ``tests/oracles/rebalance.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData, ChunkRef
from repro.arrays.coords import Box
from repro.cluster.coordinator import RebalanceReport
from repro.cluster.costs import CostParameters
from repro.cluster.node import Node
from repro.core.base import RebalancePlan
from repro.core.catalog import ChunkCatalog
from repro.errors import ClusterError

from tests.oracles.catalog import concat_payload_per_chunk
from tests.oracles.rebalance import (
    Move,
    rebalance_time_scalar,
    total_bytes_scalar,
)


def chunks_of_array_scan(
    cluster, array: str
) -> List[Tuple[ChunkData, int]]:
    """Walk every node's store for one array's chunks, then key-sort."""
    out: List[Tuple[ChunkData, int]] = []
    for node_id in cluster.node_ids:
        for chunk in cluster.nodes[node_id].store.chunks():
            if chunk.schema.name == array:
                out.append((chunk, node_id))
    out.sort(key=lambda pair: pair[0].key)
    return out


def chunks_in_region_scan(
    cluster, array: str, region: Box
) -> List[Tuple[ChunkData, int]]:
    """One ``chunk_box().intersects(region)`` test per chunk.

    A region whose arity differs from the array's raises
    :class:`~repro.errors.ChunkError` from the box test (the catalog
    raises :class:`~repro.errors.SchemaError`).
    """
    return [
        (chunk, node)
        for chunk, node in chunks_of_array_scan(cluster, array)
        if chunk.schema.chunk_box(chunk.key).intersects(region)
    ]


def chunk_data_scan(cluster, ref: ChunkRef) -> ChunkData:
    """Fetch one chunk's payload from the store of the node the
    partitioner names."""
    return cluster.nodes[cluster.locate(ref)].store.get(ref)


def placement_of_array_scan(
    cluster, array: str
) -> Dict[Tuple[int, ...], int]:
    """Chunk key → node map from the store walk."""
    return {
        chunk.key: node
        for chunk, node in chunks_of_array_scan(cluster, array)
    }


def array_payload_scan(
    cluster,
    array: str,
    attrs: Sequence[str],
    ndim: int = 0,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Re-concatenate the walked chunks on every call."""
    return concat_payload_per_chunk(
        [c for c, _ in chunks_of_array_scan(cluster, array)], attrs, ndim
    )


def payload_in_region_scan(
    cluster,
    array: str,
    region: Box,
    attrs: Sequence[str],
    ndim: int = 0,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Re-walk the touched chunks and re-mask on every call."""
    coords, values = concat_payload_per_chunk(
        [c for c, _ in chunks_in_region_scan(cluster, array, region)],
        attrs, ndim,
    )
    if coords.shape[0]:
        mask = np.ones(coords.shape[0], dtype=bool)
        for d in range(len(region.lo)):
            mask &= coords[:, d] >= region.lo[d]
            mask &= coords[:, d] < region.hi[d]
        coords = coords[mask]
        values = {a: v[mask] for a, v in values.items()}
    return coords, values


def execute_rebalance_scalar(
    nodes: Mapping[int, Node],
    plan: RebalancePlan,
    costs: CostParameters,
    catalog: ChunkCatalog,
) -> RebalanceReport:
    """Parity oracle: the pre-catalog per-move evict/put loop."""
    moves = Move.rows(plan)
    for move in moves:
        if move.source not in nodes or move.dest not in nodes:
            raise ClusterError(
                f"rebalance references unknown node: {move}"
            )
        chunk = nodes[move.source].store.evict(move.ref)
        nodes[move.dest].store.put(chunk)
        catalog.relocate_batch(catalog.table.ids_of([move.ref]))
    return RebalanceReport(
        chunks_moved=len(moves),
        bytes_moved=total_bytes_scalar(plan),
        elapsed_seconds=rebalance_time_scalar(plan, costs),
        touched_nodes=len({n for m in moves for n in (m.source, m.dest)}),
    )
