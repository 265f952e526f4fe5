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
dense integer ids and keeps bytes/owner/coordinates in parallel
numpy columns.  The partitioner creates it (partitioners also run
without a cluster); in a cluster the chunk catalog publishes into the
same table object (:attr:`ElasticPartitioner.table`), so every chunk is
interned exactly once.  The table is redundant by design and must stay
consistent at every public-method boundary:

* ``sum(sizes) == total_bytes`` — the running counter updated by
  :meth:`~ElasticPartitioner.place_batch` and
  :meth:`~ElasticPartitioner.remove` (relocations move bytes between
  nodes but never change the total; a removal batch subtracts in batch
  order, as one chunk at a time would).
* ``sum(loads) == total_bytes`` and ``loads[n] == sum of sizes of chunks
  assigned to n``.
* every assigned chunk's node is in ``nodes``.

Subclasses read the ledger per ref or node (``node_of`` / ``size_of`` /
``load_of``) or, on bulk paths, through its id columns (``live_ids`` /
``ids_on`` / ``key_order`` / ``owners`` / ``keys_of`` / ``sizes_at``).
A scheme that keeps a fact per chunk (a curve position, a stable hash,
an arrival ordinal) derives it for a batch's first-time chunks
(``_derive``); the table stores it as a column beside its own, frees it
with the id and gathers it on compaction, and the scheme reads it back
with ``column_at``.

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

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.ledger import ArrayChunkLedger, BatchSplit, key_rows
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


def split_keys(split: BatchSplit, ndim: int) -> Optional[np.ndarray]:
    """The ``(n, ndim)`` key rows of ``split``'s first-time items: the
    batch's own rows when it carries ``ndim``-wide ones, else
    :func:`grid_keys` of the refs."""
    keys = split.keys
    if keys is not None and keys.shape[1] == ndim:
        return keys[split.first]
    return grid_keys(split.new_refs(), ndim)


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
    keys = key_rows(refs, ndim)
    if keys is None:
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
    accumulation.  Every column must hold one row per ref, the node
    columns integers and ``sizes`` finite bytes ``>= 0``
    (:class:`~repro.errors.PartitioningError` naming the column).
    """

    refs: np.ndarray
    sources: np.ndarray
    dests: np.ndarray
    sizes: np.ndarray
    ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.refs)
        refs = np.empty(n, dtype=object)
        refs[:] = self.refs
        self.refs = refs
        kinds = {"sources": "iu", "dests": "iu", "sizes": "iuf", "ids": None}
        for name, kind in kinds.items():
            column = getattr(self, name)
            if column is None:
                continue
            column = np.asarray(column)
            ok = column.shape == (n,) and (
                not n or kind is None or column.dtype.kind in kind)
            if ok and name == "sizes":
                ok = bool((np.isfinite(column) & (column >= 0)).all())
            if not ok:
                raise PartitioningError(
                    f"plan column {name} must hold {n} "
                    f"{'finite sizes >= 0' if name == 'sizes' else 'integers'}"
                    f", got shape {column.shape} of dtype {column.dtype}"
                )
            if kind is not None:  # a dict ledger's ids are its refs
                dtype = np.float64 if name == "sizes" else np.int64
                column = column.astype(dtype, copy=False)
            setattr(self, name, column)
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

    def bytes_by_dest(self) -> Dict[NodeId, float]:
        """Inbound bytes per destination node."""
        return sum_by_node(self.dests, self.sizes)

    def touched_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes that send or receive data under this plan."""
        return tuple(np.union1d(self.sources, self.dests).tolist())

    def is_empty(self) -> bool:
        return not len(self.refs)


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
        self,
        refs: Sequence[ChunkRef],
        sizes: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> None:
        """Observe a whole insert batch before its chunks are placed.

        The coordinator receives inserts in bulk (paper §3.4), so a
        partitioner may inspect the batch — its refs, their sizes and
        key rows — to refine its table *before* any chunk lands; the
        Hilbert partitioner uses the first batch to set data-aware
        initial ranges.  Must not move existing chunks.  The default is
        a no-op.
        """

    def place_batch(
        self,
        refs: Sequence[ChunkRef],
        sizes: np.ndarray,
        keys: Optional[np.ndarray] = None,
        arrays: Optional[Tuple[List[str], np.ndarray]] = None,
    ) -> np.ndarray:
        """Place a whole insert batch; return each item's table id.

        Equivalent to placing the items one at a time in batch order
        (see the module docstring's batch contract): known
        refs merge onto their current node, duplicates within the batch
        into their first placement (and share its id).  ``keys`` (key
        rows) and ``arrays`` (``(names, codes)``, as a
        :class:`~repro.arrays.chunk.ChunkBatch` carries them) are the
        batch's columns when the caller has them; the table interns by
        them and stores the keys.
        """
        split = self._partition_batch(refs, sizes, keys, arrays)
        split.columns = self._derive(split)
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
        triples straight to the table, with the scheme columns
        :meth:`_derive` computes for them.

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
        refs, sizes, nodes = tuple(zip(*entries)) or ((), (), ())
        split = self._partition_batch(refs, sizes)
        stray = [not self._ledger.has_node(n) for n in nodes] + [True]
        bad = stray.index(True)
        if len(split.merges) and split.merges[0] < bad:
            raise PartitioningError(
                f"duplicate chunk {refs[split.merges[0]]} in adoption batch"
            )
        if bad < len(refs):
            raise PartitioningError(
                f"recovered chunk {refs[bad]} belongs to unknown "
                f"node {nodes[bad]}"
            )
        split.columns = self._derive(split)
        self._ledger.commit_batch(split, np.array(nodes, dtype=np.int64))

    def remove(self, *chunks) -> NodeId:
        """Drop chunks — refs, or one int array of table ids — from the
        table in one pass (deletion / expiry), all resolved first.

        Returns the node that held the chunk for one ref, else the
        owners column; :class:`PartitioningError` when a chunk was never
        placed or is named twice.
        """
        one = len(chunks) == 1
        ids = chunks[0] if one and isinstance(chunks[0], np.ndarray) else chunks
        owners, _ = self._ledger.remove_ids(self._ids(ids))
        return int(owners[0]) if one and ids is chunks else owners

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
        published table compacts through its catalog
        (:meth:`repro.core.catalog.ChunkCatalog.compact`), which remaps
        its per-array views with the same old → new ids.

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

    def _derive(self, split: BatchSplit) -> Dict[str, np.ndarray]:
        """The scheme columns of ``split``'s first-time items, by name
        (a curve position, a stable hash, an arrival ordinal); the
        table stores them with the ids.  The default derives none."""
        return {}

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
    def _partition_batch(
        self,
        refs: Sequence[ChunkRef],
        sizes: np.ndarray,
        keys: Optional[np.ndarray] = None,
        arrays: Optional[Tuple[List[str], np.ndarray]] = None,
    ) -> BatchSplit:
        """Split a batch into first-time placements and merges.

        Checks the sizes column once (finite and non-negative, else
        :class:`PartitioningError` naming the first offending item),
        then the table splits the batch by its key rows
        (:meth:`~repro.core.ledger.ArrayChunkLedger.split_batch`).  Does
        not intern anything.
        """
        refs = np.fromiter(refs, dtype=object, count=len(refs))
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
        return self._ledger.split_batch(refs, sizes, keys, arrays)

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
        ids = self._ids(refs_or_ids)
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

    def _ids(self, refs_or_ids) -> np.ndarray:
        """Table ids of refs (:class:`PartitioningError` naming the first
        never placed); an int array of table ids passes through."""
        if isinstance(refs_or_ids, np.ndarray) and refs_or_ids.dtype.kind == "i":
            return refs_or_ids
        try:
            return self._ledger.ids_of(refs_or_ids)
        except KeyError as err:
            raise PartitioningError(
                f"chunk {err.args[0]} was never placed"
            ) from None

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
