"""Elastic partitioner framework.

A partitioner owns the *partitioning table* of a growing array database: it
decides which node receives each newly inserted chunk
(:meth:`~ElasticPartitioner.place_batch`) and, when the cluster scales
out, which chunks move where (:meth:`~ElasticPartitioner.scale_out` →
:class:`RebalancePlan`).

The base class keeps the authoritative bookkeeping — chunk→node assignment,
chunk sizes, per-node byte loads — so that every concrete algorithm only
implements two decisions:

* ``_place_split(split)``: the nodes of a batch's first-time chunks under
  the current partitioning table.
* ``_extend(new_nodes)``: update the table for newly added nodes and return
  the moves it implies, as one :class:`RebalancePlan`.

The base class *enforces* the incremental-scale-out contract: a partitioner
whose traits claim incrementality may only produce moves whose destinations
are newly added nodes (paper §4.1).

Batch placement contract
------------------------
:meth:`ElasticPartitioner.place_batch` routes a whole insert batch through
the partitioner in one call (the coordinator receives inserts in bulk,
paper §3.4).  Its semantics are defined by equivalence to placing the
items one at a time in batch order, each first-time chunk by its
scheme's per-chunk rule and each known ref merged onto its current node
— including duplicate refs within one batch, which merge into their
first placement:

* the chunk→node assignment, the owners of the returned ids, and every
  per-chunk size are **bit-identical** to the sequential outcome;
* per-node loads and the running byte total contain the same bytes but
  may differ in the last float ulps, because the batch path is free to
  accumulate them in a different order (vectorized reductions);
* when a batch fails validation mid-way, an override may have applied a
  different prefix than the sequential loop — the ledger stays
  internally consistent, but the exact partial state is unspecified.

The specification is the sequential ``place_scalar`` in
``tests/oracles/partitioners.py``, which keeps each scheme's per-chunk
decision rule.  ``place_batch`` runs on columns:
:meth:`ElasticPartitioner._partition_batch` splits the batch into index
columns (a :class:`BatchSplit`), the scheme chooses the nodes of its
first-time refs in one vectorized or amortized call (``_place_split``),
and the table commits the split and returns one table id per item.
``tests/test_batch_parity.py`` checks the equivalence for every
registered scheme.

Ledger invariants
-----------------
The bookkeeping lives in the chunk table
(:class:`repro.core.ledger.ArrayChunkLedger`), which interns refs to
dense integer ids and keeps bytes/planned owner/coordinates in parallel
numpy columns.  The partitioner creates it (partitioners also run
without a cluster); in a cluster the chunk catalog publishes from the
same table object (:attr:`ElasticPartitioner.table`), so every chunk is
interned exactly once.  The table is redundant by design and must stay
consistent at every public-method boundary:

* ``sum(sizes) == total_bytes`` — the running counter updated by
  :meth:`~ElasticPartitioner.place_batch` and
  :meth:`~ElasticPartitioner.remove` (relocations move bytes between
  nodes but never change the total).
* ``sum(loads) == total_bytes`` and ``loads[n] == sum of sizes of chunks
  assigned to n``.
* every assigned chunk's node is in ``nodes``.

Subclasses read the ledger per ref or node (``node_of`` / ``size_of`` /
``load_of``) or, on bulk paths, through its id columns (``live_ids`` /
``ids_on`` / ``key_order`` / ``owners`` / ``keys_of`` / ``sizes_at``).

Rebalance plans
---------------
A plan is columns from the scheme's decision to the catalog publish:
``_extend`` hands each split's or reshuffle's chunks and destinations to
one :meth:`ElasticPartitioner._relocate_many` call, which validates it,
applies it to the ledger at once and returns a :class:`RebalancePlan`.
The per-move path (``Move``, one ``_relocate`` per chunk, the loops over
``plan.moves``) is the specification in ``tests/oracles/rebalance.py``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.ledger import ArrayChunkLedger
from repro.core.traits import PartitionerTraits
from repro.errors import ChunkError, PartitioningError, require_index

NodeId = int


def check_key_arity(ref: ChunkRef, ndim: int) -> None:
    """Raise :class:`ChunkError` unless ``ref``'s key is ``ndim``-d."""
    if len(ref.key) != ndim:
        raise ChunkError(
            f"chunk {ref} has a {len(ref.key)}-d key; "
            f"the grid is {ndim}-d"
        )


def split_dims_of(split_dims: Optional[Sequence[int]], ndim: int) -> Tuple[int, ...]:
    """``split_dims`` sorted and deduplicated (default: all ``ndim``), or
    :class:`PartitioningError` unless each is a dimension index."""
    if split_dims is None:
        return tuple(range(ndim))
    dims = sorted({require_index("split_dims", d, PartitioningError) for d in split_dims})
    if dims and dims[-1] >= ndim:
        raise PartitioningError(f"split_dims {split_dims} invalid for a {ndim}-d grid")
    return tuple(dims)


def grid_keys(
    refs: Sequence[ChunkRef], ndim: int
) -> Optional[np.ndarray]:
    """The ``(n, ndim)`` int64 key matrix of ``refs``.

    Raises :class:`ChunkError` naming the first ref whose key is not
    ``ndim``-d (a ragged batch included).  Returns ``None`` when the
    keys have the right arity but a coordinate does not fit int64;
    callers then fall back to exact Python ints.
    """
    if not refs:
        return np.empty((0, ndim), dtype=np.int64)
    try:
        keys = np.array([r.key for r in refs], dtype=np.int64)
    except (ValueError, OverflowError):
        keys = None
    if keys is None or keys.shape != (len(refs), ndim):
        for ref in refs:
            check_key_arity(ref, ndim)
    return keys


@dataclass(eq=False)
class RebalancePlan:
    """The chunk moves of one scale-out, as parallel columns in move order.

    ``refs`` (object), ``sources`` / ``dests`` (int64 node ids) and
    ``sizes`` (float64 bytes), plus the moved chunks' table ``ids`` when
    a partitioner built the plan.  A chunk may move more than once
    (sequential splits), each hop starting where the last one ended.
    The aggregates add sizes in move order: bit-equal to a per-move
    accumulation.
    """

    refs: np.ndarray
    sources: np.ndarray
    dests: np.ndarray
    sizes: np.ndarray
    ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        refs = np.empty(len(self.refs), dtype=object)
        refs[:] = self.refs
        self.refs = refs
        self.sources = np.asarray(self.sources, dtype=np.int64)
        self.dests = np.asarray(self.dests, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.float64)
        same = self.sources == self.dests
        if same.any():
            i = int(np.argmax(same))
            raise PartitioningError(
                f"degenerate move of {self.refs[i]}: "
                f"{self.sources[i]} -> {self.dests[i]}"
            )

    @classmethod
    def empty(cls) -> "RebalancePlan":
        return cls([], [], [], [], np.empty(0, dtype=np.int64))

    @classmethod
    def concat(cls, plans: Sequence["RebalancePlan"]) -> "RebalancePlan":
        """One plan of ``plans``' moves (at least one plan), in order."""
        ids = [p.ids for p in plans]
        return cls(
            np.concatenate([p.refs for p in plans]),
            np.concatenate([p.sources for p in plans]),
            np.concatenate([p.dests for p in plans]),
            np.concatenate([p.sizes for p in plans]),
            None if any(i is None for i in ids) else np.concatenate(ids),
        )

    @property
    def total_bytes(self) -> float:
        """Total bytes shipped over the network by this plan."""
        return float(sum(self.sizes.tolist()))

    @property
    def chunk_count(self) -> int:
        return len(self.refs)

    def bytes_by_source(self) -> Dict[NodeId, float]:
        """Outbound bytes per source node."""
        return sum_by_node(self.sources, self.sizes)

    def bytes_by_dest(self) -> Dict[NodeId, float]:
        """Inbound bytes per destination node."""
        return sum_by_node(self.dests, self.sizes)

    def touched_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes that send or receive data under this plan."""
        return tuple(np.union1d(self.sources, self.dests).tolist())

    def is_empty(self) -> bool:
        return not len(self.refs)


@dataclass(eq=False)
class BatchSplit:
    """An insert batch split into first-time placements and merges:
    the items (``refs``, ``sizes``, ``keys`` rows or ``None``), each
    item's first position in the batch (``origin``) and whether it was
    placed before (``known``); ``first`` holds the first positions of
    unknown refs, ``merges`` every other position, both ascending."""

    refs: np.ndarray
    sizes: np.ndarray
    keys: Optional[np.ndarray]
    origin: np.ndarray
    known: np.ndarray
    first: np.ndarray
    merges: np.ndarray

    def new_refs(self) -> List[ChunkRef]:
        """The first-time refs, in batch order."""
        return self.refs[self.first].tolist()


def sum_by_node(nodes: np.ndarray, sizes: np.ndarray) -> Dict[NodeId, float]:
    """``sizes`` summed per node, in move order (nodes by first appearance)."""
    uniq, first, inverse = np.unique(
        nodes, return_index=True, return_inverse=True
    )
    sums = np.bincount(inverse, weights=sizes)
    order = np.argsort(first)
    return dict(zip(uniq[order].tolist(), sums[order].tolist()))


class ElasticPartitioner(ABC):
    """Base class for all elastic array partitioners.

    Args:
        nodes: initial node ids (at least one).

    Subclasses must set the class attributes :attr:`name` (registry key)
    and :attr:`traits` (their Table-1 row).
    """

    #: Registry key, e.g. ``"kd_tree"``.
    name: str = ""
    #: The scheme's Table-1 feature row.
    traits: PartitionerTraits

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        if not nodes:
            raise PartitioningError("partitioner needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise PartitioningError(f"duplicate node ids in {list(nodes)}")
        self._nodes: List[NodeId] = [int(n) for n in nodes]
        # All chunk bookkeeping (assignment, sizes, per-node loads, the
        # running byte total) lives in the ledger.
        self._ledger = ArrayChunkLedger(self._nodes)

    # ------------------------------------------------------------------
    # read-only state
    # ------------------------------------------------------------------
    @property
    def table(self) -> ArrayChunkLedger:
        """The chunk table this partitioner writes (the catalog's too)."""
        return self._ledger

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """Current node ids, in addition order."""
        return tuple(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def chunk_count(self) -> int:
        return self._ledger.chunk_count

    @property
    def total_bytes(self) -> float:
        """All chunk bytes in the ledger (O(1) running counter)."""
        return self._ledger.total_bytes

    def node_loads(self) -> Dict[NodeId, float]:
        """Bytes currently assigned to each node."""
        return self._ledger.node_loads()

    def load_of(self, node: NodeId) -> float:
        try:
            return self._ledger.load_of(node)
        except KeyError:
            raise PartitioningError(f"unknown node {node}") from None

    def assignment(self) -> Dict[ChunkRef, NodeId]:
        """A copy of the full chunk→node map."""
        return self._ledger.assignment()

    def chunks_on(self, node: NodeId) -> List[ChunkRef]:
        """Chunk refs assigned to one node (sorted for determinism)."""
        if not self._ledger.has_node(node):
            raise PartitioningError(f"unknown node {node}")
        return self._ledger.refs_at(self._ids_on(node)).tolist()

    def size_of(self, ref: ChunkRef) -> float:
        try:
            return self._ledger.size_of(ref)
        except KeyError:
            raise PartitioningError(f"unknown chunk {ref}") from None

    def locate(self, ref: ChunkRef) -> NodeId:
        """Node currently holding ``ref`` (must have been placed)."""
        try:
            return self._ledger.node_of(ref)
        except KeyError:
            raise PartitioningError(f"chunk {ref} was never placed") from None

    def heaviest_node(
        self, among: Optional[Iterable[NodeId]] = None
    ) -> NodeId:
        """The node with the most bytes (ties broken by node id)."""
        candidates = list(among) if among is not None else self._nodes
        if not candidates:
            raise PartitioningError("no candidate nodes")
        return min(candidates, key=self._load_rank)

    def _load_rank(self, node: NodeId) -> Tuple[float, NodeId]:
        """Sort key ranking nodes heaviest first, ties by node id.

        An unregistered node ranks as empty.
        """
        led = self._ledger
        return (-led.load_of(node) if led.has_node(node) else 0.0, node)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def prepare_batch(
        self, refs: Sequence[ChunkRef], sizes: np.ndarray
    ) -> None:
        """Observe a whole insert batch before its chunks are placed.

        The coordinator receives inserts in bulk (paper §3.4), so a
        partitioner may inspect the batch — its refs and their sizes —
        to refine its table *before* any chunk lands; the Hilbert
        partitioner uses the first batch to set data-aware initial
        ranges.  Must not move existing chunks.  The default is a no-op.
        """

    def place_batch(
        self,
        refs: Sequence[ChunkRef],
        sizes: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Place a whole insert batch; return each item's table id.

        Equivalent to placing the items one at a time in batch order
        (see the module docstring's batch contract): known
        refs merge onto their current node, duplicates within the batch
        into their first placement (and share its id).  ``keys`` are the
        refs' key rows when the caller has them; the table stores them.
        """
        split = self._partition_batch(refs, sizes, keys)
        nodes = np.asarray(self._place_split(split), dtype=np.int64)
        return self._commit_batch(split, nodes)

    def adopt_batch(
        self,
        entries: Sequence[Tuple[ChunkRef, float, NodeId]],
    ) -> None:
        """Re-register recorded placements verbatim (restart recovery).

        The out-of-core tier persists each chunk's payload *and* its
        owning node; rebooting a cluster from segment directories must
        restore exactly those placements — :meth:`place_batch` would
        choose fresh nodes and disagree with where the bytes physically
        live.  Adoption commits the recorded ``(ref, size, node)``
        triples straight to the ledger, then lets the scheme rebuild
        what private state it can via :meth:`_adopt_batch`.

        Only valid on an empty partitioner whose node set covers every
        recorded node.  Schemes whose placement depends on unrecoverable
        side state (arrival order, hash-bucket history) accept adopted
        chunks for lookup/remove/query purposes but may place *future*
        chunks differently than the original process would have — the
        recovered cluster is consistent, not history-identical.
        """
        if self.chunk_count:
            raise PartitioningError(
                f"{self.name} already tracks {self.chunk_count} chunks; "
                "adoption requires an empty partitioner"
            )
        first_sizes: Dict[ChunkRef, float] = {}
        commit_nodes: List[NodeId] = []
        has_node = self._ledger.has_node
        for ref, size_bytes, node in entries:
            if not 0.0 <= size_bytes < math.inf:
                raise PartitioningError(
                    f"invalid chunk size {size_bytes} for {ref}"
                )
            if not has_node(node):
                raise PartitioningError(
                    f"recovered chunk {ref} belongs to unknown "
                    f"node {node}"
                )
            if ref in first_sizes:
                raise PartitioningError(
                    f"duplicate chunk {ref} in adoption batch"
                )
            first_sizes[ref] = float(size_bytes)
            commit_nodes.append(node)
        self._ledger.commit_batch(
            self._partition_batch(list(first_sizes), list(first_sizes.values())),
            np.asarray(commit_nodes, dtype=np.int64),
        )
        self._adopt_batch(entries)

    def _adopt_batch(
        self,
        entries: Sequence[Tuple[ChunkRef, float, NodeId]],
    ) -> None:
        """Subclass hook: rebuild scheme-private state after adoption.

        Called after the base ledger holds every adopted chunk.  The
        default is a no-op — correct for schemes whose placement is a
        pure function of the ledger; schemes with side tables override
        it to rebuild what the recorded placements imply.
        """

    def remove(self, ref: ChunkRef) -> NodeId:
        """Drop a chunk from the ledger (deletion / expiry).

        Returns:
            The node that held the chunk.

        Raises:
            PartitioningError: when the chunk was never placed.
        """
        if not self._ledger.contains(ref):
            raise PartitioningError(f"chunk {ref} was never placed")
        node, size = self._ledger.remove(ref)
        self._forget(ref, size, node)
        return node

    def scale_out(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        """Add nodes and compute the rebalance the partitioning table needs.

        The returned plan has already been applied to the partitioner's
        bookkeeping; the cluster layer is responsible for executing the
        physical transfers.

        Raises:
            PartitioningError: on duplicate node ids, or when an
                incremental partitioner emits a move to a preexisting node
                (contract violation — indicates an implementation bug).
        """
        new_nodes = [int(n) for n in new_nodes]
        if not new_nodes:
            return RebalancePlan.empty()
        for n in new_nodes:
            if self._ledger.has_node(n):
                raise PartitioningError(f"node {n} already in cluster")
        if len(set(new_nodes)) != len(new_nodes):
            raise PartitioningError(f"duplicate new node ids {new_nodes}")

        for n in new_nodes:
            self._nodes.append(n)
            self._ledger.add_node(n)

        plan = self._extend(new_nodes)

        # Each _relocate_many call applied its moves to the ledger
        # (sequential splits must see each other's effects); here we
        # only verify the incremental contract.
        if self.traits.incremental_scale_out:
            stray = ~np.isin(plan.dests, new_nodes)
            if stray.any():
                i = int(np.argmax(stray))
                raise PartitioningError(
                    f"{self.name} claims incremental scale-out but "
                    f"moved {plan.refs[i]} to preexisting node "
                    f"{plan.dests[i]}"
                )
        return plan

    def compact_ledger(self, min_dead_fraction: float = 0.0) -> bool:
        """Reclaim dead ledger slots left by removed chunks.

        Forwards to the ledger's ``compact``, which re-interns live
        refs and shrinks its columns when at least
        ``min_dead_fraction`` of the allocated slots are dead.
        Observable partitioner state is unchanged either way.  A
        published table compacts inside its catalog's write window
        (:meth:`repro.core.catalog.ChunkCatalog.compact`).

        Returns:
            Whether a compaction actually ran.
        """
        return self._ledger.compact(min_dead_fraction)

    @property
    def ledger_dead_fraction(self) -> float:
        """Fraction of allocated ledger slots not holding a live chunk."""
        return self._ledger.dead_slot_fraction

    @property
    def ledger_column_capacity(self) -> int:
        """Allocated per-chunk ledger slots (live + dead + headroom).

        The memory-telemetry twin of :attr:`ledger_dead_fraction` —
        churn harnesses track it to prove compaction bounds index
        memory, without reaching into the ledger internals.
        """
        return self._ledger.column_capacity

    # ------------------------------------------------------------------
    # subclass responsibilities
    # ------------------------------------------------------------------
    @abstractmethod
    def _place_split(self, split: BatchSplit) -> Sequence[NodeId]:
        """The nodes of ``split``'s first-time refs, in batch order (and
        whatever scheme state the batch's merges update)."""

    @abstractmethod
    def _extend(self, new_nodes: Sequence[NodeId]) -> RebalancePlan:
        """Update the partitioning table for ``new_nodes``; return moves.

        Called after the base class has registered the new nodes (so
        ``self._nodes`` and the ledger's loads already include them).
        Emit the moves through :meth:`_relocate_many`, once per split or
        reshuffle, so sequential splits within one scale-out observe the
        loads left by earlier splits.
        """

    # ------------------------------------------------------------------
    # ledger primitives
    # ------------------------------------------------------------------
    def _forget(
        self, ref: ChunkRef, size_bytes: float, node: NodeId
    ) -> None:
        """Subclass hook: drop scheme-private per-chunk state on remove.

        Called after the base ledger already dropped ``ref``.  The default
        is a no-op; schemes with side tables (hash-bucket membership,
        arrival ordinals, index caches) override it.
        """

    def _partition_batch(
        self,
        refs: Sequence[ChunkRef],
        sizes: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> BatchSplit:
        """Split a batch into first-time placements and merges.

        Checks the sizes column once (finite and non-negative, else
        :class:`PartitioningError` naming the first offending item),
        then one C-level ``dict.setdefault`` pass finds first
        occurrences and one probes the table.  Does not touch the ledger.
        """
        refs = list(refs)
        n = len(refs)
        sizes = np.asarray(sizes, dtype=np.float64)
        if sizes.shape != (n,):
            raise PartitioningError(f"{n} refs but {sizes.shape} sizes")
        bad = ~((sizes >= 0.0) & (sizes < np.inf))
        if bad.any():
            i = int(np.argmax(bad))
            raise PartitioningError(
                f"invalid chunk size {sizes[i]} for {refs[i]}"
            )
        column = np.fromiter(refs, dtype=object, count=n)
        seen: Dict[ChunkRef, int] = {}
        origin = np.fromiter(
            map(seen.setdefault, refs, range(n)), dtype=np.int64, count=n
        )
        known = (
            self._ledger.contains_many(refs) if self._ledger.chunk_count
            else np.zeros(n, dtype=bool)
        )
        first = (origin == np.arange(n)) & ~known
        return BatchSplit(
            column, sizes, keys, origin, known,
            np.flatnonzero(first), np.flatnonzero(~first),
        )

    def _commit_batch(
        self, split: BatchSplit, nodes: np.ndarray
    ) -> np.ndarray:
        """Apply a split batch to the ledger; return each item's id.

        ``nodes`` holds the node of each ``split.first`` item.
        Assignments and per-chunk sizes come out bit-identical to
        sequential placement; loads and the total may reassociate (the
        module docstring's batch contract).
        """
        uniq, first = np.unique(nodes, return_index=True)
        for node in uniq[np.argsort(first)].tolist():
            if not self._ledger.has_node(node):
                raise PartitioningError(
                    f"{self.name} placed a chunk on unknown node {node}"
                )
        return self._ledger.commit_batch(split, nodes)

    def _relocate_many(self, refs_or_ids, dests) -> RebalancePlan:
        """Move chunks (refs, or an int array of table ids) to ``dests``
        (one node, or one per chunk) in the ledger; return their plan.

        The whole call is validated before the ledger changes, then
        applied at once.
        """
        led = self._ledger
        ids = refs_or_ids
        if not (isinstance(ids, np.ndarray) and ids.dtype.kind == "i"):
            try:
                ids = led.ids_of(refs_or_ids)
            except KeyError as err:
                raise PartitioningError(
                    f"chunk {err.args[0]} was never placed"
                ) from None
        dests = np.broadcast_to(np.asarray(dests, dtype=np.int64), ids.shape)
        uniq, first = np.unique(dests, return_index=True)
        for node in uniq[np.argsort(first)].tolist():
            if not led.has_node(node):
                raise PartitioningError(f"relocation to unknown node {node}")
        plan = RebalancePlan(
            led.refs_at(ids), led.owners(ids), dests, led.sizes_at(ids), ids
        )
        led.relocate_many(ids, dests)
        return plan

    def _reshuffle(self, ids: np.ndarray, dests: np.ndarray) -> RebalancePlan:
        """Move every chunk of ``ids`` not on its ``dests`` entry there,
        in ``(array, key)`` order."""
        moving = dests != self._ledger.owners(ids)
        ids, dests = ids[moving], dests[moving]
        order = self._ledger.key_order(ids)
        return self._relocate_many(ids[order], dests[order])

    def _ids_on(self, node: NodeId) -> np.ndarray:
        """Table ids on ``node`` in ``(array, key)`` order."""
        ids = self._ledger.ids_on(node)
        return ids[self._ledger.key_order(ids)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nodes={len(self._nodes)}, "
            f"chunks={self.chunk_count}, "
            f"bytes={self.total_bytes:.3g})"
        )
