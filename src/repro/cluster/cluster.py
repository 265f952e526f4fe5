"""The elastic shared-nothing cluster.

:class:`ElasticCluster` ties the substrates together: nodes with capacity,
a partitioner owning the placement table, an optional leading-staircase
provisioner deciding *when* to add nodes, and the coordinator executing
inserts and rebalances.  One call — :meth:`ingest` — runs the full §3.4
ingest phase: provision if needed, redistribute preexisting chunks, insert
the new ones.

Every catalog read goes through :meth:`ElasticCluster.session`, which
pins the array's snapshot in the cluster-wide columnar chunk catalog
(:class:`repro.core.catalog.ChunkCatalog`) that every mutation keeps
current.  The cluster itself answers only two by-ref probes,
:meth:`locate` and :meth:`chunk_data`.  The pre-catalog store walks are
the specification of the session's reads and live in
``tests/oracles/cluster.py``.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arrays.chunk import ChunkBatch, ChunkData, ChunkRef
from repro.arrays.segment import SegmentStore
from repro.arrays.storage import ChunkStore
from repro.cluster.coordinator import (
    InsertReport,
    RebalanceReport,
    RemoveReport,
    execute_insert,
    execute_rebalance,
    execute_remove,
)
from repro.cluster.costs import CostParameters
from repro.cluster.metrics import relative_std
from repro.cluster.node import Node
from repro.core.base import ElasticPartitioner
from repro.core.catalog import ChunkCatalog
from repro.config import mode as parity_mode
from repro.core.provisioner import LeadingStaircase
from repro.errors import ClusterError, require_count, require_fraction, require_positive


@dataclass(frozen=True)
class TieredStorage:
    """Out-of-core storage configuration (one spill directory per node).

    Args:
        root: directory under which each node keeps its segment
            directory (``node-0000``, ``node-0001``, ...).
        memory_budget_bytes: per-node cap on resident payload bytes;
            the coldest chunks spill to segments past it.  ``None``
            keeps everything resident while still writing through (so
            restart recovery works without eviction pressure).

    A cluster built without one (``storage=None``) keeps the classic
    all-in-memory stores, which answer byte-identically.
    """

    root: str
    memory_budget_bytes: Optional[float] = None

    def node_dir(self, node_id: int) -> str:
        return os.path.join(self.root, f"node-{node_id:04d}")


@dataclass
class IngestReport:
    """Everything that happened during one ingest phase."""

    insert: InsertReport
    rebalance: Optional[RebalanceReport]
    nodes_added: int
    demand_bytes: float

    @property
    def insert_seconds(self) -> float:
        return self.insert.elapsed_seconds

    @property
    def reorg_seconds(self) -> float:
        return self.rebalance.elapsed_seconds if self.rebalance else 0.0


class ElasticCluster:
    """A growing shared-nothing array database.

    Args:
        partitioner: the placement algorithm; its node set must equal the
            initial node ids.
        node_capacity_bytes: capacity ``c`` of every (homogeneous) node.
        costs: simulation cost constants; when omitted they come from
            :meth:`CostParameters.from_env`, so ``REPRO_COST_*``
            exports flow into every run.
        provisioner: optional leading staircase.  When present,
            :meth:`ingest` runs the control loop before inserting; when
            absent, use :meth:`scale_out` to add nodes manually (the fixed
            +2-node schedule of §6.2 does this).
        ledger_compact_ratio: dead-slot ratio above which the chunk
            table is compacted during the reorganization cycle (after
            rebalances and removals) — one compaction, which remaps the
            catalog's published columns in the same write window — so
            churn-heavy retention workloads keep bounded index memory.
            ``None`` disables compaction entirely.

    The partitioner's initial nodes define the cluster's initial nodes.
    """

    def __init__(
        self,
        partitioner: ElasticPartitioner,
        node_capacity_bytes: float,
        costs: Optional[CostParameters] = None,
        provisioner: Optional[LeadingStaircase] = None,
        ledger_compact_ratio: Optional[float] = 0.5,
        storage: Optional[TieredStorage] = None,
    ) -> None:
        capacity = require_positive(
            "node_capacity_bytes", node_capacity_bytes, ClusterError
        )
        if costs is None:
            costs = CostParameters.from_env()
        if ledger_compact_ratio is not None:
            ledger_compact_ratio = require_fraction(
                "ledger_compact_ratio", ledger_compact_ratio, ClusterError,
                zero_ok=True,
            )
        self.partitioner = partitioner
        self.node_capacity_bytes = capacity
        self.costs = costs
        self.provisioner = provisioner
        self.ledger_compact_ratio = ledger_compact_ratio
        self.storage = storage
        self.nodes: Dict[int, Node] = {
            node_id: self._make_node(node_id)
            for node_id in partitioner.nodes
        }
        self._next_node_id = max(self.nodes) + 1
        self.coordinator_id = min(self.nodes)
        # Lazily-spawned process-parallel backend (``REPRO_EXEC=process``).
        self._exec_engine = None
        self._exec_finalizer = None
        #: The cluster-wide columnar chunk index, publishing from the
        #: partitioner's chunk table; maintained by every mutation.
        self.catalog = ChunkCatalog(partitioner.table)

    def _make_node(self, node_id: int) -> Node:
        """Build one node — tiered (segment-backed) when configured.

        A fresh node always gets a fresh segment directory;
        :meth:`recover` is the only path that attaches to one left by a
        previous process (``SegmentStore.create`` refuses a directory
        that already holds a manifest, so a mistaken re-`__init__` over
        live data fails loudly instead of shadowing it).
        """
        if self.storage is None:
            return Node(node_id, self.node_capacity_bytes)
        segments = SegmentStore.create(self.storage.node_dir(node_id))
        store = ChunkStore(
            memory_budget=self.storage.memory_budget_bytes,
            segments=segments,
        )
        return Node(node_id, self.node_capacity_bytes, store=store)

    @classmethod
    def recover(
        cls,
        partitioner: ElasticPartitioner,
        node_capacity_bytes: float,
        storage: TieredStorage,
        costs: Optional[CostParameters] = None,
        provisioner: Optional[LeadingStaircase] = None,
        ledger_compact_ratio: Optional[float] = 0.5,
    ) -> "ElasticCluster":
        """Rebuild a cluster from the segment directories of a dead one.

        Simulated restart: all process state (stores, catalog, ledger)
        is gone; only ``storage.root`` survives.  Each node directory's
        manifest is read (:meth:`SegmentStore.open`), every recorded
        chunk becomes a *spilled* :class:`ChunkData` handle — no cell
        payload is loaded until a query faults it — and the recorded
        placements are committed verbatim to the partitioner
        (:meth:`~repro.core.base.ElasticPartitioner.adopt_batch`) and
        the catalog, so :meth:`check_consistency` holds immediately.

        ``partitioner`` must be freshly constructed over exactly the
        node ids the directory records (scale-outs during the original
        run created directories too); schemes whose placement depends
        on unrecoverable arrival history stay *consistent* after
        adoption but may place future chunks differently than the
        original process would have.
        """
        try:
            names = sorted(os.listdir(storage.root))
        except FileNotFoundError:
            raise ClusterError(
                f"storage root {storage.root} does not exist"
            ) from None
        found = sorted(
            int(name[5:]) for name in names
            if name.startswith("node-") and name[5:].isdigit()
        )
        if not found:
            raise ClusterError(
                f"storage root {storage.root} holds no node directories"
            )
        if set(found) != set(partitioner.nodes):
            raise ClusterError(
                f"recovered node directories {found} do not match the "
                f"partitioner's nodes {sorted(partitioner.nodes)}; "
                "construct the partitioner over the recorded node ids"
            )
        cluster = cls(
            partitioner,
            node_capacity_bytes,
            costs=costs,
            provisioner=provisioner,
            ledger_compact_ratio=ledger_compact_ratio,
            storage=None,  # plain nodes first; tiers attach below
        )
        cluster.storage = storage  # future scale-outs get tiered nodes
        adopted: List[Tuple[ChunkRef, float, int, ChunkData]] = []
        for node_id in found:
            segments = SegmentStore.open(storage.node_dir(node_id))
            store = ChunkStore(
                memory_budget=storage.memory_budget_bytes,
                segments=segments,
            )
            cluster.nodes[node_id].store = store
            for ref, size_bytes, attr_bytes in segments.entries():
                handle = ChunkData.spilled(
                    segments.schema_of(ref.array),
                    ref.key,
                    size_bytes,
                    attr_bytes,
                )
                store.adopt_spilled(handle)
                adopted.append((ref, size_bytes, node_id, handle))
        adopted.sort(key=lambda e: (e[0].array, e[0].key))
        partitioner.adopt_batch(
            [(ref, size, node) for ref, size, node, _h in adopted]
        )
        cluster.catalog.put_batch(
            [handle for _r, _s, _n, handle in adopted]
        )
        return cluster

    # ------------------------------------------------------------------
    # state inspection (the query engine's ClusterView)
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @property
    def total_bytes(self) -> float:
        return float(sum(n.used_bytes for n in self.nodes.values()))

    @property
    def capacity_bytes(self) -> float:
        return self.node_capacity_bytes * len(self.nodes)

    def node_loads(self) -> Dict[int, float]:
        return {nid: n.used_bytes for nid, n in sorted(self.nodes.items())}

    def storage_rsd(self) -> float:
        """Relative standard deviation of per-node bytes (Figure 4)."""
        return relative_std(list(self.node_loads().values()))

    def locate(self, ref: ChunkRef) -> int:
        """Node currently holding a chunk."""
        return self.partitioner.locate(ref)

    def chunk_data(self, ref: ChunkRef) -> ChunkData:
        """One chunk's published payload handle.

        Raises:
            ClusterError: when the catalog does not publish ``ref``.
        """
        chunk = self.catalog.payload_of(ref)
        if chunk is None:
            raise ClusterError(f"chunk {ref} is not in the catalog")
        return chunk

    def session(self):
        """Open an epoch-pinned read session (the query surface).

        The returned :class:`~repro.cluster.session.ClusterSession`
        pins an immutable per-array snapshot on first touch, so a query
        holding it never sees a half-applied rebalance, ingest, or
        expiry — see :mod:`repro.cluster.session`.  Sessions are cheap;
        open one per query or one per suite pass.
        """
        from repro.cluster.session import ClusterSession

        return ClusterSession(self)

    def exec_backend(self):
        """The process-parallel engine, or ``None`` when in-process.

        Under ``REPRO_EXEC=process`` the first call lazily spawns one
        worker process per node
        (:class:`repro.parallel.engine.ProcessEngine`), and *every* call
        re-syncs worker-resident chunk payloads to the current catalog
        epoch, so reads that follow see exactly this cluster state.  A
        finalizer reaps the workers when the cluster is collected;
        :meth:`close_exec` does so deterministically.
        """
        if parity_mode("exec") != "process":
            return None
        if self._exec_engine is None:
            from repro.parallel.engine import ProcessEngine

            engine = ProcessEngine()
            self._exec_engine = engine
            self._exec_finalizer = weakref.finalize(
                self, engine.shutdown
            )
        self._exec_engine.sync(self)
        return self._exec_engine

    def close_exec(self) -> None:
        """Shut down the process-parallel workers (no-op when none)."""
        if self._exec_finalizer is not None:
            self._exec_finalizer()
            self._exec_finalizer = None
        self._exec_engine = None

    def drain_io(self) -> Dict[int, float]:
        """Per-node tier I/O bytes (faults + write-through) since the
        last drain.

        The query executor drains before and after each query run so
        :func:`repro.query.cost.charge_io` bills exactly the faults a
        query triggered.  Untiered clusters always return ``{}`` — the
        classic zero-I/O behavior.
        """
        out: Dict[int, float] = {}
        for node_id, node in self.nodes.items():
            read, written = node.store.drain_io()
            total = read + written
            if total:
                out[node_id] = total
        return out

    def storage_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-node spill-tier telemetry (empty for untiered clusters)."""
        return {
            node_id: node.store.tier.stats()
            for node_id, node in sorted(self.nodes.items())
            if node.store.tier is not None
        }

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def scale_out(self, count: int) -> RebalanceReport:
        """Add ``count`` nodes and execute the partitioner's rebalance.

        The reorganization cycle is also when the chunk table reclaims
        slots freed by earlier removals (see :meth:`remove_chunks`): one
        compaction runs when the dead-slot ratio exceeds
        ``ledger_compact_ratio``.
        """
        new_ids = []
        for _ in range(require_count("count", count, ClusterError)):
            node_id = self._next_node_id
            self._next_node_id += 1
            self.nodes[node_id] = self._make_node(node_id)
            new_ids.append(node_id)
        plan = self.partitioner.scale_out(new_ids)
        report = execute_rebalance(
            self.nodes, plan, self.costs, self.catalog
        )
        self._maybe_compact_indexes()
        return report

    def remove_chunks(self, refs: Sequence[ChunkRef]) -> RemoveReport:
        """Retire chunks (expiry / deletion) from stores and the ledger.

        A retention-windowed workload calls this each cycle to drop data
        that aged out; the freed chunk-table slots are compacted away
        once their ratio crosses ``ledger_compact_ratio``, keeping
        index memory bounded under insert/expire churn
        (``benchmarks/bench_fig8_retention.py`` drives the figure-scale
        staircase; ``tests/test_ledger_compaction.py`` pins the bound).
        """
        report = execute_remove(
            self.nodes, self.partitioner, refs, self.costs, self.catalog
        )
        self._maybe_compact_indexes()
        return report

    def _maybe_compact_indexes(self) -> bool:
        """Compact the chunk table past the dead-slot threshold."""
        if self.ledger_compact_ratio is None:
            return False
        return self.partitioner.compact_ledger(self.ledger_compact_ratio)

    def ingest(self, chunks: Sequence[ChunkData]) -> IngestReport:
        """Run one §3.4 ingest phase.

        1. Determine whether the cluster is under-provisioned for the
           incoming insert (storage is the surrogate for load).
        2. If so, ask the provisioner how many nodes to add, then
           redistribute preexisting chunks (the partitioner's plan).
        3. Finally insert the new chunks.
        """
        chunks = ChunkBatch.of(chunks)
        incoming = float(sum(chunks.sizes.tolist()))
        demand = self.total_bytes + incoming

        rebalance_report: Optional[RebalanceReport] = None
        nodes_added = 0
        if self.provisioner is not None:
            self.provisioner.observe(demand)
            decision = self.provisioner.evaluate(
                current_nodes=len(self.nodes), demand=demand
            )
            if decision.new_nodes > 0:
                rebalance_report = self.scale_out(decision.new_nodes)
                nodes_added = decision.new_nodes

        insert_report = execute_insert(
            self.nodes,
            self.partitioner,
            chunks,
            self.costs,
            self.coordinator_id,
            self.catalog,
        )
        return IngestReport(
            insert=insert_report,
            rebalance=rebalance_report,
            nodes_added=nodes_added,
            demand_bytes=demand,
        )

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify stores, the chunk table, and the catalog agree.

        Every stored chunk must sit on its planned owner and be
        published with the stored handle, and the planned and published
        owner columns must be equal (one vector compare,
        :meth:`ChunkCatalog.verify_published`).  Every array's delta log
        must replay from epoch 0 onto the catalog's live set
        (:meth:`ChunkCatalog.verify_delta_log`) — the invariant the
        incremental maintenance layer depends on.

        Raises:
            ClusterError: on any disagreement between physical chunk
                placement, the partitioning table, the chunk catalog's
                columns, and the replayed delta log.
        """
        catalogued = 0
        for node_id, node in self.nodes.items():
            tier = node.store.tier
            if tier is not None:
                tier.check()
                for ref in node.store.refs():
                    if ref not in tier.segments:
                        raise ClusterError(
                            f"chunk {ref} stored on node {node_id} has "
                            "no segment backing (write-through violated)"
                        )
            for ref in node.store.refs():
                table_node = self.partitioner.locate(ref)
                if table_node != node_id:
                    raise ClusterError(
                        f"chunk {ref} stored on node {node_id} but table "
                        f"says {table_node}"
                    )
                if self.catalog.payload_of(ref) is not node.store.get(ref):
                    raise ClusterError(
                        f"catalog does not publish the stored payload "
                        f"handle of {ref}"
                    )
                catalogued += 1
        self.catalog.verify_published()
        if self.catalog.chunk_count != catalogued:
            raise ClusterError(
                f"catalog tracks {self.catalog.chunk_count} chunks but "
                f"stores hold {catalogued}"
            )
        table_total = self.partitioner.total_bytes
        stored_total = self.total_bytes
        if abs(table_total - stored_total) > max(
            1e-6, 1e-9 * max(table_total, stored_total)
        ):
            raise ClusterError(
                f"byte ledgers disagree: table={table_total} "
                f"stored={stored_total}"
            )
        self.catalog.verify_delta_log()
