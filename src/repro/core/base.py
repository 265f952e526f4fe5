"""Elastic partitioner framework.

A partitioner owns the *partitioning table* of a growing array database: it
decides which node receives each newly inserted chunk (:meth:`place`) and,
when the cluster scales out, which chunks move where
(:meth:`scale_out` → :class:`RebalancePlan`).

The base class keeps the authoritative bookkeeping — chunk→node assignment,
chunk sizes, per-node byte loads — so that every concrete algorithm only
implements two decisions:

* ``_locate(ref)``: the node the current partitioning table maps a chunk to.
* ``_extend(new_nodes)``: update the table for newly added nodes and return
  the moves it implies.

The base class *enforces* the incremental-scale-out contract: a partitioner
whose traits claim incrementality may only produce moves whose destinations
are newly added nodes (paper §4.1).

Batch placement contract
------------------------
:meth:`ElasticPartitioner.place_batch` routes a whole insert batch through
the partitioner in one call.  Its semantics are defined by equivalence to
calling :meth:`place` sequentially in batch order — including duplicate
refs within one batch, which merge into their first placement:

* the chunk→node assignment, the returned per-ref nodes, and every
  per-chunk size are **bit-identical** to the sequential outcome;
* per-node loads and the running byte total contain the same bytes but
  may differ in the last float ulps, because the batch path is free to
  accumulate them in a different order (vectorized reductions);
* when a batch fails validation mid-way, an override may have applied a
  different prefix than the scalar loop — the ledger stays internally
  consistent, but the exact partial state is unspecified.

The base implementation *is* the sequential loop (and therefore exactly
identical); subclasses override it with vectorized or amortized
equivalents (``tests/test_batch_parity.py`` checks the equivalence for
every registered scheme).

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
  :meth:`place` / :meth:`update_size` / :meth:`remove` (relocations move
  bytes between nodes but never change the total).
* ``sum(loads) == total_bytes`` and ``loads[n] == sum of sizes of chunks
  assigned to n``.
* every assigned chunk's node is in ``nodes``.

Subclasses read the ledger through its own methods (``node_of`` /
``size_of`` / ``load_of`` per ref or node, ``assignment`` for a whole
snapshot) or, on bulk paths, through :meth:`sizes_of` /
:meth:`key_column` which gather whole numpy columns at once — the
storage-median rebalance heuristics use those instead of one dict probe
per chunk.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.core.ledger import ArrayChunkLedger
from repro.core.traits import PartitionerTraits
from repro.errors import PartitioningError

NodeId = int


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


@dataclass
class RebalancePlan:
    """The set of chunk moves triggered by one scale-out operation."""

    moves: List[Move]

    @property
    def total_bytes(self) -> float:
        """Total bytes shipped over the network by this plan."""
        return float(sum(m.size_bytes for m in self.moves))

    @property
    def chunk_count(self) -> int:
        return len(self.moves)

    def bytes_by_source(self) -> Dict[NodeId, float]:
        """Outbound bytes per source node."""
        out: Dict[NodeId, float] = {}
        for m in self.moves:
            out[m.source] = out.get(m.source, 0.0) + m.size_bytes
        return out

    def bytes_by_dest(self) -> Dict[NodeId, float]:
        """Inbound bytes per destination node."""
        out: Dict[NodeId, float] = {}
        for m in self.moves:
            out[m.dest] = out.get(m.dest, 0.0) + m.size_bytes
        return out

    def touched_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes that send or receive data under this plan."""
        nodes = set()
        for m in self.moves:
            nodes.add(m.source)
            nodes.add(m.dest)
        return tuple(sorted(nodes))

    def is_empty(self) -> bool:
        return not self.moves


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
        return sorted(
            self._ledger.refs_on(node), key=lambda r: (r.array, r.key)
        )

    def size_of(self, ref: ChunkRef) -> float:
        try:
            return self._ledger.size_of(ref)
        except KeyError:
            raise PartitioningError(f"unknown chunk {ref}") from None

    def sizes_of(self, refs: Sequence[ChunkRef]) -> np.ndarray:
        """Bulk byte sizes of many placed refs (one column gather).

        The vectorized counterpart of :meth:`size_of` — rebalance
        heuristics (storage medians, split deltas) read whole byte
        columns through this instead of probing the ledger per chunk.
        """
        try:
            return self._ledger.sizes_of(refs)
        except KeyError:
            raise PartitioningError(
                "sizes_of includes a chunk that was never placed"
            ) from None

    def key_column(
        self, refs: Sequence[ChunkRef], dim: int
    ) -> np.ndarray:
        """Bulk chunk-key coordinates of placed refs along one dimension."""
        try:
            return self._ledger.key_column(refs, dim)
        except KeyError:
            raise PartitioningError(
                "key_column includes a chunk that was never placed"
            ) from None

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
        self, batch: Sequence[Tuple[ChunkRef, float]]
    ) -> None:
        """Observe a whole insert batch before its chunks are placed.

        The coordinator receives inserts in bulk (paper §3.4), so a
        partitioner may inspect the batch to refine its table *before*
        any chunk lands — the Hilbert partitioner uses the first batch to
        set data-aware initial ranges.  Must not move existing chunks.
        The default is a no-op.
        """

    def place(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        """Assign a chunk to a node and record its bytes.

        Placing an already-known chunk models a merge into an existing
        physical chunk: the bytes are added on its current node and no
        relocation happens (SciDB's no-overwrite store appends, it never
        rewrites).

        Returns:
            The node id that received the chunk.
        """
        if size_bytes < 0:
            raise PartitioningError(
                f"negative chunk size {size_bytes} for {ref}"
            )
        existing = self._ledger.get_node(ref)
        if existing is not None:
            self._merge_existing(ref, float(size_bytes), existing)
            return existing
        node = self._place_new(ref, float(size_bytes))
        self._commit_new(ref, float(size_bytes), node)
        return node

    def place_batch(
        self, refs_and_sizes: Sequence[Tuple[ChunkRef, float]]
    ) -> Dict[ChunkRef, NodeId]:
        """Place a whole insert batch; return each chunk's node.

        Semantically equivalent to calling :meth:`place` once per item in
        batch order (see the module docstring's batch contract): known
        refs merge bytes onto their current node, duplicate refs within
        the batch merge into their first placement, and the returned
        mapping holds the final node of every distinct ref.

        This default is the correct sequential loop; subclasses override
        it with vectorized (numpy) or amortized equivalents — the
        override must preserve the equivalence bit for bit.
        """
        placements: Dict[ChunkRef, NodeId] = {}
        for ref, size_bytes in refs_and_sizes:
            placements[ref] = self.place(ref, size_bytes)
        return placements

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
            if size_bytes < 0:
                raise PartitioningError(
                    f"negative chunk size {size_bytes} for {ref}"
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
        self._ledger.commit_batch(first_sizes, commit_nodes, [])
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
            return RebalancePlan(moves=[])
        for n in new_nodes:
            if self._ledger.has_node(n):
                raise PartitioningError(f"node {n} already in cluster")
        if len(set(new_nodes)) != len(new_nodes):
            raise PartitioningError(f"duplicate new node ids {new_nodes}")

        for n in new_nodes:
            self._nodes.append(n)
            self._ledger.add_node(n)

        moves = self._extend(new_nodes)

        # Moves were applied by _relocate as they were emitted (sequential
        # splits within one scale-out must see each other's effects); here
        # we only verify the incremental contract.
        new_set = set(new_nodes)
        if self.traits.incremental_scale_out:
            for move in moves:
                if move.dest not in new_set:
                    raise PartitioningError(
                        f"{self.name} claims incremental scale-out but "
                        f"moved {move.ref} to preexisting node {move.dest}"
                    )

        return RebalancePlan(moves=list(moves))

    def update_size(self, ref: ChunkRef, delta_bytes: float) -> None:
        """Grow (or shrink) the recorded bytes of an existing chunk."""
        current = self.size_of(ref)  # raises if never placed
        if current + delta_bytes < 0:
            raise PartitioningError(
                f"chunk {ref} size would become negative"
            )
        self._ledger.update_size(ref, delta_bytes)

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
    def _place_new(self, ref: ChunkRef, size_bytes: float) -> NodeId:
        """Choose the node for a chunk seen for the first time."""

    @abstractmethod
    def _extend(self, new_nodes: Sequence[NodeId]) -> List[Move]:
        """Update the partitioning table for ``new_nodes``; return moves.

        Called after the base class has registered the new nodes (so
        ``self._nodes`` and the ledger's loads already include them).
        Emit each move through :meth:`_relocate` so the ledger stays
        current while the extension runs — sequential splits within one
        scale-out must observe the loads left by earlier splits.
        """

    # ------------------------------------------------------------------
    # ledger primitives (shared by place and the place_batch overrides)
    # ------------------------------------------------------------------
    def _merge_existing(
        self, ref: ChunkRef, size_bytes: float, node: NodeId
    ) -> NodeId:
        """Add bytes to an already-placed chunk on its current node."""
        self._ledger.merge(ref, size_bytes)
        return node

    def _commit_new(
        self, ref: ChunkRef, size_bytes: float, node: NodeId
    ) -> NodeId:
        """Record a first-time placement decided by the subclass."""
        if not self._ledger.has_node(node):
            raise PartitioningError(
                f"{self.name} placed {ref} on unknown node {node}"
            )
        self._ledger.commit_new(ref, size_bytes, node)
        return node

    def _forget(
        self, ref: ChunkRef, size_bytes: float, node: NodeId
    ) -> None:
        """Subclass hook: drop scheme-private per-chunk state on remove.

        Called after the base ledger already dropped ``ref``.  The default
        is a no-op; schemes with side tables (hash-bucket membership,
        arrival ordinals, index caches) override it.
        """

    def _partition_batch(
        self, items: Sequence[Tuple[ChunkRef, float]]
    ) -> Tuple[Dict[ChunkRef, float], List[Tuple[ChunkRef, float]]]:
        """Split a batch into first-time placements and merges.

        The first half of every ``place_batch`` override.  Returns
        ``(first_sizes, merges)``: the first occurrence of each unknown
        ref (in batch order) with its size, and, in batch order, every
        item that merges onto an existing chunk (already assigned, or a
        duplicate of an earlier batch item).  The subclass resolves the
        owners of ``first_sizes``'s refs in bulk, then hands both parts
        to :meth:`_commit_batch`.  Does not touch the ledger.  The loop
        is deliberately lean — two ref-dict operations per item — since
        refs hash through Python-level ``__hash__``.
        """
        contains = self._ledger.contains
        first_sizes: Dict[ChunkRef, float] = {}
        merges: List[Tuple[ChunkRef, float]] = []
        append = merges.append
        setdefault = first_sizes.setdefault
        count = 0
        if self._ledger.chunk_count:
            for ref, size_bytes in items:
                if size_bytes < 0:
                    raise PartitioningError(
                        f"negative chunk size {size_bytes} for {ref}"
                    )
                if contains(ref):
                    append((ref, size_bytes))
                    continue
                setdefault(ref, float(size_bytes))
                if len(first_sizes) == count:  # batch-internal duplicate
                    append((ref, size_bytes))
                else:
                    count += 1
        else:
            # Empty ledger (first ingest): every ref is unknown, skip
            # the per-item assignment probe.
            for ref, size_bytes in items:
                if size_bytes < 0:
                    raise PartitioningError(
                        f"negative chunk size {size_bytes} for {ref}"
                    )
                setdefault(ref, float(size_bytes))
                if len(first_sizes) == count:  # batch-internal duplicate
                    append((ref, size_bytes))
                else:
                    count += 1
        return first_sizes, merges

    def _commit_batch(
        self,
        first_sizes: Dict[ChunkRef, float],
        commit_nodes: Sequence[NodeId],
        merges: Sequence[Tuple[ChunkRef, float]],
    ) -> Dict[ChunkRef, NodeId]:
        """Apply a partitioned batch to the ledger.

        ``commit_nodes`` holds the chosen node of each ``first_sizes``
        ref, in iteration order.  The ledger applies first-time
        placements as bulk column writes; merges replay in batch
        order.  Assignments,
        returned placements, and per-chunk sizes come out bit-identical
        to sequential :meth:`place`; per-node loads and the running
        total accumulate the same bytes in a different order (see the
        module docstring's batch contract).
        """
        if first_sizes:
            has_node = self._ledger.has_node
            for node in set(commit_nodes):
                if not has_node(node):
                    raise PartitioningError(
                        f"{self.name} placed a chunk on unknown "
                        f"node {node}"
                    )
        return self._ledger.commit_batch(
            first_sizes, commit_nodes, merges
        )

    def _relocate(self, ref: ChunkRef, dest: NodeId) -> Move:
        """Move a chunk to ``dest`` in the ledger and return the move."""
        if not self._ledger.has_node(dest):
            raise PartitioningError(f"relocation to unknown node {dest}")
        source = self._ledger.node_of(ref)
        size = self._ledger.size_of(ref)
        move = Move(ref=ref, source=source, dest=dest, size_bytes=size)
        self._ledger.relocate(ref, dest)
        return move

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nodes={len(self._nodes)}, "
            f"chunks={self.chunk_count}, "
            f"bytes={self.total_bytes:.3g})"
        )
