"""Placement-sensitive query cost model, array-first.

Query latency in a shared-nothing array database is dominated by three
placement-dependent terms (paper §1, §6.2.2):

* **per-node scan time** — each node reads its share of the touched chunks
  (only the attributes the query needs: vertical partitioning) and does the
  operator's per-byte compute; the *elapsed* scan time is the maximum over
  nodes, so storage skew directly throttles parallelism;
* **shuffle time** — bytes that must cross the network (join sides on
  different nodes, merge phases), serialized per node NIC;
* **halo time** — spatial operators (window aggregates, kNN, collision
  prediction) read neighbouring chunks; neighbours on *other* nodes cost
  network, which is exactly the advantage of n-dimensionally clustered
  placement.

All byte figures are the chunks' modeled sizes, so simulated latencies sit
at paper scale regardless of how many real cells the test run generates.

One read, one charge
--------------------
Mirroring the placement ledger (:mod:`repro.core.ledger`), the cost model
is column-shaped: node ids are interned to dense slots in a
:class:`CostAccumulator`, and every charge is a ``np.bincount`` /
``np.add.at`` over slot indices instead of a per-chunk ``dict.get``
update.  A scan is priced from the read that touched it: every session
read — whole array, region, delta — is one
:class:`~repro.core.catalog.Read` carrying the touched chunks'
``(sizes, nodes)`` columns, and :func:`charge_scan` (or
:func:`node_byte_sums`, for a merge phase) prices it directly; a
:class:`~repro.core.catalog.Read` is the only input every kernel here
takes.  Halo shuffles find cross-node chunk pairs with one packed-key
``searchsorted`` per stencil offset (:func:`neighbor_pairs`) rather
than a Python dict probe per neighbour, and a co-location shuffle
prices two key-matched side reads row against row.

The specification of every kernel here is its per-chunk dict walk in
``tests/oracles/cost.py``; ``tests/test_cost_parity.py`` runs the full
benchmark suites through both and compares them to float tolerance.

Float semantics: both charge the same bytes, but the column kernels are
free to reassociate additions (vectorized reductions) and to fold the
vertical-partitioning attribute fraction into one multiply, so per-node
busy-seconds agree with the per-chunk walk only up to float ulps — the
same contract ``place_batch`` and the array ledger already document.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.coords import position_keys, row_packing
from repro.arrays.schema import ArraySchema
from repro.cluster.costs import GB, CostParameters
from repro.core.catalog import Read
from repro.errors import QueryError


class CostAccumulator:
    """Per-node busy-seconds over interned node slots.

    The array-shaped replacement for the ``Dict[int, float]`` the cost
    functions used to mutate through ``dict.get`` defaulting: node ids
    are interned once (sorted, so bulk lookups are one
    ``np.searchsorted``) and every charge lands in a dense float column.

    Parameters
    ----------
    nodes : sequence of int
        The cluster's node ids.  Charging an unknown node raises
        :class:`~repro.errors.QueryError` — the same contract the ledger
        enforces for placements.

    Notes
    -----
    :meth:`as_dict` drops zero entries so results keep the historical
    "only touched nodes" shape of the dict-based accounting.
    """

    __slots__ = ("_node_ids", "_busy")

    def __init__(self, nodes: Sequence[int]) -> None:
        ids = np.unique(np.asarray(list(nodes), dtype=np.int64))
        self._node_ids = ids
        self._busy = np.zeros(len(ids), dtype=np.float64)

    # -- slot interning ------------------------------------------------
    def slots_of(self, nodes: np.ndarray) -> np.ndarray:
        """Map an array of node ids to dense slots.

        Parameters
        ----------
        nodes : numpy.ndarray of int64
            Node ids to resolve.

        Returns
        -------
        numpy.ndarray of int64
            Slot index of each node.

        Raises
        ------
        QueryError
            If any id is not a cluster node.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        slots = np.searchsorted(self._node_ids, nodes)
        slots_clipped = np.minimum(slots, len(self._node_ids) - 1)
        if len(self._node_ids) == 0 or np.any(
            self._node_ids[slots_clipped] != nodes
        ):
            known = self._node_ids.tolist()
            raise QueryError(
                f"cost charged to unknown node(s); cluster nodes {known}"
            )
        return slots_clipped

    # -- charging ------------------------------------------------------
    def add(self, nodes: np.ndarray, seconds: np.ndarray) -> None:
        """Accumulate ``seconds[i]`` onto ``nodes[i]`` (unbuffered adds).

        Duplicate nodes within one call accumulate all their entries
        (``np.add.at`` semantics).
        """
        np.add.at(self._busy, self.slots_of(nodes), seconds)

    def add_one(self, node: int, seconds: float) -> None:
        """Accumulate seconds onto a single node."""
        self._busy[self.slots_of(np.asarray([node]))[0]] += seconds

    # -- reads ---------------------------------------------------------
    def max_seconds(self) -> float:
        """The slowest node's busy-seconds (0.0 with no nodes)."""
        return float(self._busy.max()) if self._busy.size else 0.0

    def as_dict(self) -> Dict[int, float]:
        """``node -> busy seconds`` for every node with non-zero time."""
        nz = np.nonzero(self._busy)[0]
        return {
            int(self._node_ids[i]): float(self._busy[i]) for i in nz
        }


def accumulator_for(cluster) -> CostAccumulator:
    """A fresh :class:`CostAccumulator` for the cluster's node set.

    ``cluster`` is any read surface with ``node_ids`` — a session
    answers with the node universe it froze at creation, so the
    accumulator stays valid for the session's whole lifetime.
    """
    return CostAccumulator(cluster.node_ids)


# ----------------------------------------------------------------------
# column extraction
# ----------------------------------------------------------------------
def attr_fraction(
    schema: ArraySchema, attrs: Optional[Sequence[str]]
) -> float:
    """Fraction of a chunk's bytes occupied by the given attributes.

    The vertical-partitioning byte shares of
    :class:`~repro.arrays.chunk.ChunkData` are proportional to attribute
    dtype widths, so the fraction is a schema constant — one multiply
    replaces a per-chunk ``bytes_for`` dict walk.

    Parameters
    ----------
    schema : ArraySchema
        The touched array's schema.
    attrs : sequence of str or None
        Attributes the query reads; ``None`` means all (fraction 1.0).

    Returns
    -------
    float
        ``sum(width of attrs) / sum(all widths)``.

    Raises
    ------
    QueryError
        If an attribute is not in the schema.
    """
    if attrs is None:
        return 1.0
    widths = {a.name: a.itemsize for a in schema.attributes}
    denom = sum(widths.values()) or 1
    total = 0
    for name in attrs:
        if name not in widths:
            raise QueryError(
                f"array {schema.name} has no attribute {name!r}"
            )
        total += widths[name]
    return total / denom


def scan_columns(
    chunks_nodes: Read,
    attrs: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """A read's ``(sizes, nodes)`` columns, priced for ``attrs``.

    The one lowering of the cost path: every downstream charge is a
    vector operation over these columns.  All chunks belong to one
    array (every query touches one array per scan), so the
    vertical-partitioning attribute fraction is applied as a single
    multiply.

    Parameters
    ----------
    chunks_nodes : Read
        The touched chunks and their hosting nodes (whole array, region
        or delta).
    attrs : sequence of str or None
        Attributes read (``None`` = all); fewer attributes = less I/O,
        the column-store benefit.

    Returns
    -------
    sizes : numpy.ndarray of float64
        Modeled bytes the query reads from each chunk (the read's own
        read-only column when ``attrs`` is ``None``).
    nodes : numpy.ndarray of int64
        Hosting node of each chunk.
    """
    sizes = chunks_nodes.sizes
    if attrs is not None and sizes.size:
        sizes = sizes * attr_fraction(chunks_nodes.schema, attrs)
    return sizes, chunks_nodes.nodes


def node_byte_sums(
    chunks_nodes: Read,
    attrs: Optional[Sequence[str]] = None,
    fraction: float = 1.0,
) -> Dict[int, float]:
    """Per-node byte totals of the touched chunks, as one bincount pass.

    Queries use this for merge phases ("each node ships x % of its local
    share"): the result feeds :func:`charge_network`.

    Parameters
    ----------
    chunks_nodes : Read
        The touched chunks and their hosting nodes.
    attrs : sequence of str or None
        Attributes whose bytes count (``None`` = all).
    fraction : float
        Multiplier on every node's total (e.g. 0.01 for a 1 % partial
        aggregate).

    Returns
    -------
    dict of int to float
        ``node -> bytes`` for nodes with a positive total.
    """
    sizes, nodes = scan_columns(chunks_nodes, attrs)
    if sizes.size == 0:
        return {}
    uniq, inverse = np.unique(nodes, return_inverse=True)
    sums = np.bincount(inverse, weights=sizes) * fraction
    return {
        int(n): float(s) for n, s in zip(uniq, sums) if s > 0
    }


# ----------------------------------------------------------------------
# incremental-maintenance planning (delta vs full recompute)
# ----------------------------------------------------------------------
@dataclass
class MaintenancePlan:
    """One maintenance cycle's costed choice: apply the delta or recompute.

    The Tempura-style planner verdict (PAPERS.md): both arms are priced
    as reads — the delta log's rows for the incremental plan, the live
    array for the full recompute — in modeled elapsed scan seconds
    (slowest node), and the cheaper arm wins.  At ~100 % churn the delta
    carries every expired chunk at ``-1`` *plus* every ingested chunk at
    ``+1`` (≈2× the live bytes), so full recompute wins exactly where it
    should; in steady state the delta is a sliver and the incremental
    arm wins.
    """

    choice: str
    delta_bytes: float
    full_bytes: float
    delta_seconds: float
    full_seconds: float

    @property
    def incremental(self) -> bool:
        """Whether the incremental arm won."""
        return self.choice == "delta"


def maintenance_plan(
    cluster,
    array: str,
    since_epoch: int,
    attrs: Optional[Sequence[str]] = None,
    costs: Optional[CostParameters] = None,
    cpu_intensity: float = 1.0,
    delta: Optional[Read] = None,
) -> MaintenancePlan:
    """Price incremental maintenance against full recompute, pick one.

    Parameters
    ----------
    cluster : ClusterSession
        The session the refresh reads through.
    array : str
        Array whose view state is being refreshed.
    since_epoch : int
        The consumer's epoch cursor (its last folded payload epoch).
    attrs : sequence of str or None
        Attributes the maintained operator reads.
    costs : CostParameters or None
        Cost constants (defaults to ``cluster.costs``).
    cpu_intensity : float
        Multiplier on the per-GB compute rate, as in the scan charges.
    delta : Read or None
        ``cluster.deltas_since(array, since_epoch)``, if already read.

    Returns
    -------
    MaintenancePlan
        Both arms' modeled bytes and elapsed seconds plus the winning
        ``choice`` (ties go to ``"delta"`` — an empty delta is free).
    """
    if costs is None:
        costs = cluster.costs
    if delta is None:
        delta = cluster.deltas_since(array, since_epoch)
    d_acc = accumulator_for(cluster)
    delta_bytes = charge_scan(d_acc, delta, attrs, costs, cpu_intensity)
    f_acc = accumulator_for(cluster)
    full_bytes = charge_scan(
        f_acc, cluster.chunks_of_array(array), attrs, costs, cpu_intensity
    )
    delta_seconds = d_acc.max_seconds()
    full_seconds = f_acc.max_seconds()
    return MaintenancePlan(
        choice="delta" if delta_seconds <= full_seconds else "full",
        delta_bytes=delta_bytes,
        full_bytes=full_bytes,
        delta_seconds=delta_seconds,
        full_seconds=full_seconds,
    )


# ----------------------------------------------------------------------
# scan work
# ----------------------------------------------------------------------
def add_scan_work(
    acc: CostAccumulator,
    sizes: np.ndarray,
    nodes: np.ndarray,
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Charge each node for scanning its chunks.

    One fused multiply prices I/O plus compute for every chunk and one
    ``np.add.at`` lands the seconds on the owning nodes.

    Parameters
    ----------
    acc : CostAccumulator
        Busy-seconds column to update.
    sizes, nodes : numpy.ndarray
        Columns from :func:`scan_columns`.
    costs : CostParameters
        Cost constants.
    cpu_intensity : float
        Multiplier on the per-GB compute rate.

    Returns
    -------
    float
        Total bytes scanned.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    rate = (
        costs.io_seconds_per_gb
        + costs.cpu_seconds_per_gb * cpu_intensity
    ) / GB
    acc.add(nodes, sizes * rate)
    return float(sizes.sum())


def charge_scan(
    acc: CostAccumulator,
    chunks_nodes: Read,
    attrs: Optional[Sequence[str]],
    costs: CostParameters,
    cpu_intensity: float,
) -> float:
    """Charge scan work for one read (whole array, region or delta),
    priced from its own columns: the one scan charge.

    Returns
    -------
    float
        Total bytes scanned.
    """
    sizes, nodes = scan_columns(chunks_nodes, attrs)
    return add_scan_work(acc, sizes, nodes, costs, cpu_intensity)


# ``benchmarks/e2e/e2e_spans.py`` wraps these names and the oracle
# registry pins their parameter lists; no query calls them.  Each is
# :func:`charge_scan` or :func:`node_byte_sums` over the session's read.
def charge_scan_array(acc, cluster, array, attrs, costs, cpu_intensity):
    read = cluster.chunks_of_array(array)
    return charge_scan(acc, read, attrs, costs, cpu_intensity)


def charge_scan_region(
    acc, cluster, array, region, attrs, costs, cpu_intensity
):
    read = cluster.chunks_in_region(array, region)
    return charge_scan(acc, read, attrs, costs, cpu_intensity)


def charge_scan_routed(acc, pairs, cols, attrs, costs, cpu_intensity):
    # ``cols`` is unused: a Read carries its own columns.
    return charge_scan(acc, pairs, attrs, costs, cpu_intensity)


def charge_scan_delta(
    acc, cluster, array, since_epoch, attrs, costs, cpu_intensity
):
    read = cluster.deltas_since(array, since_epoch)
    return charge_scan(acc, read, attrs, costs, cpu_intensity)


def node_byte_sums_array(cluster, array, attrs=None, fraction=1.0):
    return node_byte_sums(cluster.chunks_of_array(array), attrs, fraction)


# ----------------------------------------------------------------------
# network work
# ----------------------------------------------------------------------
def charge_network(
    acc: CostAccumulator,
    bytes_by_node: Mapping[int, float],
    costs: CostParameters,
) -> float:
    """Charge per-node NIC time for a wire-bytes map.

    Returns
    -------
    float
        Total bytes on the wire (endpoint sum).
    """
    if not bytes_by_node:
        return 0.0
    n = len(bytes_by_node)
    nodes = np.fromiter(bytes_by_node.keys(), dtype=np.int64, count=n)
    sizes = np.fromiter(
        bytes_by_node.values(), dtype=np.float64, count=n
    )
    acc.add(nodes, sizes * (costs.network_seconds_per_gb / GB))
    return float(sizes.sum())


def charge_io(
    acc: CostAccumulator,
    io_by_node: Mapping[int, float],
    costs: CostParameters,
) -> float:
    """Charge tiered-storage fault/spill bytes as disk seconds.

    ``io_by_node`` is the ``node -> bytes`` map drained from the
    cluster's spill tiers (:meth:`ElasticCluster.drain_io`): real bytes
    the LRU moved between memory and segment files while the query ran.
    Each node is charged ``costs.io_time`` over its bytes — the same
    ``δ``-per-GB disk term §5.2 uses for rebalance I/O — so an
    out-of-core run's latency reflects its cache misses instead of
    pretending every chunk was resident.

    Returns
    -------
    float
        Total tier bytes moved (read + written, all nodes).
    """
    total = 0.0
    for node, nbytes in io_by_node.items():
        acc.add_one(node, costs.io_time(nbytes))
        total += nbytes
    return total


# ----------------------------------------------------------------------
# the elapsed-time reduction
# ----------------------------------------------------------------------
def elapsed_time(
    per_node: CostAccumulator,
    costs: CostParameters,
    wire_bytes: float = 0.0,
) -> float:
    """End-to-end latency: the slowest node plus fixed coordination.

    When the query shuffles data (``wire_bytes`` > 0), the cluster fabric
    is a second ceiling: total bytes on the wire divided by the fabric's
    concurrent-transfer capacity.  Scattered placements push entire
    neighbourhoods through the fabric and hit this bound; clustered
    placements barely register (§6.2.2's spatial-locality advantage).

    Parameters
    ----------
    per_node : CostAccumulator
        Per-node busy-seconds.
    costs : CostParameters
        Cost constants.
    wire_bytes : float
        Total bytes crossing the fabric (one direction).
    """
    slowest = per_node.max_seconds()
    fabric = (
        costs.network_time(wire_bytes / costs.fabric_concurrency)
        if wire_bytes > 0 else 0.0
    )
    return max(slowest, fabric) + costs.query_overhead_seconds


# ----------------------------------------------------------------------
# spatial neighbourhoods
# ----------------------------------------------------------------------
def neighbor_pairs(
    keys: np.ndarray,
    spatial_dims: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """All (receiver, neighbour) index pairs among present chunk keys.

    For every chunk ``i`` and every face-or-diagonal stencil offset along
    ``spatial_dims``, emits ``(i, j)`` when the offset neighbour's key is
    present at index ``j``.  One ``searchsorted`` per offset over the
    position-key column (:func:`repro.arrays.coords.position_keys`:
    int64 mixed-radix keys, or the lexicographic void view when the key
    extent is beyond int64) replaces a dict probe per neighbour.

    Parameters
    ----------
    keys : numpy.ndarray of int64, shape (n, ndim)
        Chunk keys; must be unique rows (chunks of one array are).
    spatial_dims : sequence of int
        Dimensions along which neighbourhoods extend.

    Returns
    -------
    (src, dst) : pair of numpy.ndarray
        Receiver and neighbour indices into ``keys``, offset by offset
        in ``itertools.product`` order of the stencil, each offset's
        receivers ascending.
    """
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # pad=1: neighbour keys one step outside the observed extremes must
    # still pack without overflow.
    packing = row_packing(keys, pad=1)
    packed = position_keys(keys, packing)
    order = np.argsort(packed)
    packed_sorted = packed[order]
    offsets = []
    for d in range(keys.shape[1]):
        offsets.append((-1, 0, 1) if d in spatial_dims else (0,))
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    base = np.arange(n, dtype=np.int64)
    for combo in product(*offsets):
        if all(o == 0 for o in combo):
            continue
        step = np.asarray(combo, dtype=np.int64)
        shifted = keys + step
        target = position_keys(shifted, packing)
        pos = np.searchsorted(packed_sorted, target)
        pos_clipped = np.minimum(pos, n - 1)
        found = packed_sorted[pos_clipped] == target
        if packing is None:
            # Void keys span all of int64, where a step off either end
            # wraps: such a row has no neighbour, whatever it lands on.
            moved = step != 0
            found &= (
                (shifted > keys)[:, moved] == (step > 0)[moved]
            ).all(axis=1)
        if found.any():
            src_parts.append(base[found])
            dst_parts.append(order[pos_clipped[found]])
    if not src_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def sum_endpoint_bytes(
    src_nodes: np.ndarray,
    dst_nodes: np.ndarray,
    sizes: np.ndarray,
) -> Dict[int, float]:
    """Per-node wire bytes of transfers where both endpoints pay.

    Transfer ``i`` ships ``sizes[i]`` bytes from ``src_nodes[i]`` to
    ``dst_nodes[i]``; sender and receiver NICs both carry the bytes
    (the rebalance network convention), so each node's total counts
    every transfer it participates in.  This is the single
    implementation of that convention — the halo, co-location, and kNN
    wire accounting all charge through it.

    Parameters
    ----------
    src_nodes, dst_nodes : numpy.ndarray of int64
        Endpoint node ids per transfer.
    sizes : numpy.ndarray of float64
        Bytes per transfer.

    Returns
    -------
    dict of int to float
        ``node -> bytes`` for nodes with a positive total.
    """
    if len(sizes) == 0:
        return {}
    endpoints = np.concatenate([src_nodes, dst_nodes])
    uniq, inverse = np.unique(endpoints, return_inverse=True)
    totals = np.bincount(
        inverse, weights=np.concatenate([sizes, sizes])
    )
    return {
        int(node): float(t) for node, t in zip(uniq, totals) if t > 0
    }


# ----------------------------------------------------------------------
# halo (ghost-cell) exchange
# ----------------------------------------------------------------------
def halo_shuffle_bytes(
    chunks_nodes: Read,
    attrs: Optional[Sequence[str]],
    spatial_dims: Sequence[int],
    halo_fraction: float = 0.25,
) -> Dict[int, float]:
    """Network bytes per node for a halo (ghost-cell) exchange.

    Every chunk needs ``halo_fraction`` of each spatial neighbour's bytes;
    neighbours hosted on the *same* node are free.  Both endpoints pay NIC
    time (sender and receiver), mirroring the rebalance network model.

    Cross-node neighbour pairs come from :func:`neighbor_pairs`; both
    endpoints' bytes accumulate in one :func:`sum_endpoint_bytes` pass.

    Parameters
    ----------
    chunks_nodes : Read
        The touched chunks (unique keys) and their hosting nodes.
    attrs : sequence of str or None
        Attributes exchanged (``None`` = all).
    spatial_dims : sequence of int
        Dimensions along which halos extend.
    halo_fraction : float
        Fraction of each neighbour's bytes that crosses.

    Returns
    -------
    dict of int to float
        ``node -> bytes`` on the wire (in + out summed per node).
    """
    if len(chunks_nodes) == 0:
        return {}
    src, dst = neighbor_pairs(chunks_nodes.rows, spatial_dims)
    sizes, nodes = scan_columns(chunks_nodes, attrs)
    cross = nodes[src] != nodes[dst]
    src, dst = src[cross], dst[cross]
    # Receiver pulls halo_fraction of each neighbour's bytes; sender
    # and receiver both pay the wire.
    return sum_endpoint_bytes(
        nodes[src], nodes[dst], sizes[dst] * halo_fraction
    )


# ----------------------------------------------------------------------
# co-location (dimension-aligned join) shuffle
# ----------------------------------------------------------------------
def colocation_shuffle_bytes(
    side_a: Read,
    side_b: Read,
    attrs_small: Optional[Sequence[str]] = None,
) -> Dict[int, float]:
    """Network bytes for a dimension-aligned join of two arrays.

    For every chunk-key pair hosted on different nodes, the smaller side
    ships to the larger side's host; co-located pairs are free — the
    pay-off of placing both arrays by chunk key alone.  The side
    selection and both endpoint charges are vectorized.

    Parameters
    ----------
    side_a, side_b : Read
        The two arrays' key-matched reads
        (:meth:`~repro.core.catalog.Read.key_matched`): row ``i`` of
        each holds the same chunk key.
    attrs_small : sequence of str or None
        Attributes of the shipped side actually needed.

    Returns
    -------
    dict of int to float
        ``node -> bytes`` on the wire.
    """
    nodes_a, nodes_b = side_a.nodes, side_b.nodes
    cross = nodes_a != nodes_b
    if not cross.any():
        return {}
    sizes_a, sizes_b = side_a.sizes, side_b.sizes
    a_ships = sizes_a <= sizes_b
    shipped = np.where(a_ships, sizes_a, sizes_b)
    if attrs_small is not None:
        frac_a = attr_fraction(side_a.schema, attrs_small)
        frac_b = attr_fraction(side_b.schema, attrs_small)
        shipped = shipped * np.where(a_ships, frac_a, frac_b)
    src = np.where(a_ships, nodes_a, nodes_b)[cross]
    dst = np.where(a_ships, nodes_b, nodes_a)[cross]
    return sum_endpoint_bytes(src, dst, shipped[cross])
