"""Per-chunk dict walks: the specification of ``repro.query.cost``.

The ``*_scalar`` kernels and the scalar arms of the ``charge_*``
dispatchers, moved verbatim from ``repro.query.cost`` (and
``AisKnn._account_samples_scalar`` from ``repro.query.science``), plus
the per-key neighbour walk they share, :func:`spatial_neighbors`.
Every function below has the parameter list of the production callable
it specifies, except the two kernels that accumulate into a plain
``node -> seconds`` dict (``"lowered"`` in ``ORACLES``); the
``charge_*_scalar`` functions adapt those to a
:class:`~repro.query.cost.CostAccumulator`, so a test can substitute
them for the production ``charge_*`` and run a whole query through the
per-chunk walk.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData, ChunkKey
from repro.cluster.costs import CostParameters
from repro.query.cost import CostAccumulator, attr_fraction

from tests.oracles.cluster import chunks_in_region_scan, chunks_of_array_scan


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def add_scan_work_scalar(
    per_node: Dict[int, float],
    chunks_nodes: Iterable[Tuple[ChunkData, int]],
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Parity oracle: per-chunk dict updates (the pre-batch scan charge).

    Parameters
    ----------
    per_node : dict of int to float
        Mutable node → busy-seconds map to update.
    chunks_nodes : iterable of (ChunkData, int)
        The (chunk, node) pairs the query touches.
    attrs : sequence of str or None
        Attributes read (``None`` = all).
    costs : CostParameters
        Cost constants.
    cpu_intensity : float
        Multiplier on the per-GB compute rate.

    Returns
    -------
    float
        Total bytes scanned.
    """
    scanned = 0.0
    for chunk, node in chunks_nodes:
        size = (
            chunk.size_bytes if attrs is None else chunk.bytes_for(attrs)
        )
        per_node[node] = per_node.get(node, 0.0) + (
            costs.io_time(size) + costs.cpu_time(size, cpu_intensity)
        )
        scanned += size
    return scanned


def add_network_work_scalar(
    per_node: Dict[int, float],
    bytes_by_node: Mapping[int, float],
    costs: CostParameters,
) -> float:
    """Parity oracle: per-node dict updates for NIC time.

    Returns
    -------
    float
        Total bytes on the wire.
    """
    total = 0.0
    for node, size in bytes_by_node.items():
        per_node[node] = per_node.get(node, 0.0) + costs.network_time(size)
        total += size
    return total


def spatial_neighbors(
    key: ChunkKey,
    spatial_dims: Sequence[int],
) -> List[ChunkKey]:
    """Face-and-diagonal neighbours of a chunk along the spatial dims.

    The time dimension is excluded: window aggregates and kNN
    neighbourhoods live within one time slice (the paper's queries window
    over lat/long of the most recent data).
    """
    offsets = []
    for d in range(len(key)):
        if d in spatial_dims:
            offsets.append((-1, 0, 1))
        else:
            offsets.append((0,))
    out = []
    for combo in product(*offsets):
        if all(o == 0 for o in combo):
            continue
        out.append(tuple(k + o for k, o in zip(key, combo)))
    return out


def halo_shuffle_bytes_scalar(
    chunks_nodes: Sequence[Tuple[ChunkData, int]],
    attrs: Optional[Sequence[str]],
    spatial_dims: Sequence[int],
    halo_fraction: float = 0.25,
) -> Dict[int, float]:
    """Parity oracle: per-chunk dict probes for the halo exchange.

    Returns
    -------
    dict of int to float
        ``node -> bytes`` on the wire (in + out summed per node).
    """
    by_key: Dict[ChunkKey, Tuple[ChunkData, int]] = {
        chunk.key: (chunk, node) for chunk, node in chunks_nodes
    }
    wire: Dict[int, float] = {}
    for chunk, node in chunks_nodes:
        for nkey in spatial_neighbors(chunk.key, spatial_dims):
            neighbor = by_key.get(nkey)
            if neighbor is None:
                continue
            n_chunk, n_node = neighbor
            if n_node == node:
                continue
            size = (
                n_chunk.size_bytes if attrs is None
                else n_chunk.bytes_for(attrs)
            ) * halo_fraction
            wire[node] = wire.get(node, 0.0) + size       # receiver
            wire[n_node] = wire.get(n_node, 0.0) + size   # sender
    return wire


def colocation_shuffle_bytes_scalar(
    side_a: Iterable[Tuple[ChunkData, int]],
    side_b: Iterable[Tuple[ChunkData, int]],
    attrs_small: Optional[Sequence[str]] = None,
) -> Dict[int, float]:
    """Parity oracle: per-pair dict updates for the join shuffle.

    Row ``i`` of ``side_a`` and of ``side_b`` hold the same chunk key.

    Returns
    -------
    dict of int to float
        ``node -> bytes`` on the wire.
    """
    wire: Dict[int, float] = {}
    for (chunk_a, node_a), (chunk_b, node_b) in zip(side_a, side_b):
        if node_a == node_b:
            continue
        if chunk_a.size_bytes <= chunk_b.size_bytes:
            shipped, src, dst = chunk_a, node_a, node_b
        else:
            shipped, src, dst = chunk_b, node_b, node_a
        size = (
            shipped.size_bytes if attrs_small is None
            else shipped.bytes_for(attrs_small)
        )
        wire[src] = wire.get(src, 0.0) + size
        wire[dst] = wire.get(dst, 0.0) + size
    return wire


# ----------------------------------------------------------------------
# the scalar arms of the charge_* dispatchers
# ----------------------------------------------------------------------
def add_mapping(acc: CostAccumulator, per_node: Mapping[int, float]) -> None:
    """Fold a ``node -> seconds`` mapping into ``acc``, node by node."""
    for node, seconds in per_node.items():
        acc.add_one(node, seconds)


def charge_scan_scalar(
    acc: CostAccumulator,
    chunks_nodes: Sequence[Tuple[ChunkData, int]],
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Per-chunk scan charge, folded into ``acc``."""
    per_node: Dict[int, float] = {}
    scanned = add_scan_work_scalar(
        per_node, chunks_nodes, attrs, costs, cpu_intensity
    )
    add_mapping(acc, per_node)
    return scanned


def charge_scan_array_scalar(
    acc: CostAccumulator,
    cluster,
    array: str,
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Per-chunk scan charge over the materialized pairs of one array."""
    return charge_scan_scalar(
        acc, cluster.chunks_of_array(array), attrs, costs,
        cpu_intensity,
    )


def charge_scan_region_scalar(
    acc: CostAccumulator,
    cluster,
    array: str,
    region,
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Per-chunk scan charge over the materialized pairs of a region."""
    return charge_scan_scalar(
        acc, cluster.chunks_in_region(array, region), attrs, costs,
        cpu_intensity,
    )


def charge_scan_routed_scalar(
    acc: CostAccumulator,
    pairs: Sequence[Tuple[ChunkData, int]],
    cols: Tuple[np.ndarray, np.ndarray, Optional[object]],
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Per-chunk scan charge over ``pairs``; ``cols`` is ignored."""
    return charge_scan_scalar(acc, pairs, attrs, costs, cpu_intensity)


def charge_scan_delta_scalar(
    acc: CostAccumulator,
    cluster,
    array: str,
    since_epoch: int,
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Per-chunk scan charge over a delta's (payload, node) rows."""
    delta = cluster.deltas_since(array, since_epoch)
    pairs = list(zip(delta.chunks.tolist(), delta.nodes.tolist()))
    return charge_scan_scalar(acc, pairs, attrs, costs, cpu_intensity)


def charge_network_scalar(
    acc: CostAccumulator,
    bytes_by_node: Mapping[int, float],
    costs: CostParameters,
) -> float:
    """Per-node NIC charge, folded into ``acc``."""
    per_node: Dict[int, float] = {}
    total = add_network_work_scalar(per_node, bytes_by_node, costs)
    add_mapping(acc, per_node)
    return total


# ----------------------------------------------------------------------
# the pair-list lowerings a catalog-less cluster fell back to
# ----------------------------------------------------------------------
def pair_columns(
    pairs: Sequence[Tuple[ChunkData, int]],
    attrs: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sizes, nodes)`` of a (chunk, node) pair list, walked once: the
    pair-list arm ``scan_columns`` had before it took a read only."""
    n = len(pairs)
    nodes = np.fromiter((node for _, node in pairs), dtype=np.int64, count=n)
    sizes = np.fromiter(
        (chunk.size_bytes for chunk, _ in pairs), dtype=np.float64, count=n
    )
    if attrs is not None and n:
        sizes = sizes * attr_fraction(pairs[0][0].schema, attrs)
    return sizes, nodes


def array_scan_columns_scan(
    cluster,
    array: str,
    attrs: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sizes, nodes)`` of one array, lowered from the store walk."""
    return pair_columns(chunks_of_array_scan(cluster, array), attrs)


def region_scan_columns_scan(
    cluster,
    array: str,
    region,
    attrs: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sizes, nodes)`` of a region, lowered from the box-test walk."""
    return pair_columns(
        chunks_in_region_scan(cluster, array, region), attrs
    )


# ----------------------------------------------------------------------
# AisKnn sample accounting
# ----------------------------------------------------------------------
def _neighborhood(
    current: Dict[Tuple[int, ...], Tuple[ChunkData, int]],
    center_key: Tuple[int, ...],
) -> List[Tuple[ChunkData, int]]:
    """The center chunk plus its present 3x3 spatial neighbours."""
    center_chunk, owner = current[center_key]
    neighborhood = [(center_chunk, owner)]
    for nkey in spatial_neighbors(center_key, spatial_dims=(1, 2)):
        pair = current.get(nkey)
        if pair is not None:
            neighborhood.append(pair)
    return neighborhood


def account_samples_scalar(
    self, acc, cluster, read, cells, sampled_keys, rng
):
    """Parity oracle: the pre-batch per-sample cost loop.

    The owner reads its local chunks, pulls remote position columns,
    and dispatches a partial-kNN fragment to every remote node
    involved — the coordination cost clustered placement avoids (all
    nine chunks on one host: zero fragments).  ``cells`` is not read:
    the loop counts each neighbourhood's cells chunk by chunk.  The
    sampled neighbourhoods it returns last are walked key by key.
    """
    current = {chunk.key: (chunk, node) for chunk, node in read}
    all_keys = sorted(current)
    per_node: Dict[int, float] = {}
    wire: Dict[int, float] = {}
    pts_cells: Dict[Tuple[int, ...], int] = {}
    queries_by_key: Dict[Tuple[int, ...], List[int]] = {}
    key_order: List[Tuple[int, ...]] = []
    for key_idx in sampled_keys:
        center_key = all_keys[int(key_idx)]
        neighborhood = _neighborhood(current, center_key)
        owner = neighborhood[0][1]
        remote_nodes = set()
        for chunk, node in neighborhood:
            # Position columns are ~15 % of a broadcast chunk.
            size = chunk.size_bytes * 0.15
            if node == owner:
                per_node[owner] = per_node.get(owner, 0.0) + (
                    cluster.costs.io_time(size)
                )
            else:
                remote_nodes.add(node)
                wire[owner] = wire.get(owner, 0.0) + size
                wire[node] = wire.get(node, 0.0) + size
            per_node[owner] = per_node.get(owner, 0.0) + (
                cluster.costs.cpu_time(size, 2.5)
            )
        per_node[owner] = per_node.get(owner, 0.0) + (
            len(remote_nodes) * cluster.costs.task_dispatch_seconds
        )

        if center_key not in queries_by_key:
            pts_cells[center_key] = sum(
                c.cell_count for c, _ in neighborhood
            )
            queries_by_key[center_key] = []
            key_order.append(center_key)
        queries_by_key[center_key].append(
            int(rng.integers(0, pts_cells[center_key]))
        )
    add_mapping(acc, per_node)
    index = {key: i for i, key in enumerate(all_keys)}
    src: List[int] = []
    dst: List[int] = []
    for center_key in sorted(queries_by_key):
        for chunk, _node in _neighborhood(current, center_key):
            src.append(index[center_key])
            dst.append(index[chunk.key])
    members = (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    return wire, queries_by_key, key_order, members
