"""The experiment runner: the one workload-cycle loop (paper §3.4, §6).

:class:`ExperimentRunner` drives one workload against one cluster
configuration, one cycle at a time, and records
:class:`~repro.cluster.metrics.CycleMetrics` for each.  A cycle is, in
order: scale out (fixed schedule) → ingest → expire the batch that left
the retention window → refresh the maintained views → run the query
suite.  Every experiment that cycles a cluster configures this loop
through :class:`RunConfig` rather than writing its own.

Two provisioning modes mirror the paper's two experiment families:

* **fixed schedule** (§6.2): start with 2 nodes and add 2 whenever the
  incoming insert would exceed ``fill`` of capacity — the partitioner
  comparison.
* **leading staircase** (§6.3): the PD control loop decides when and how
  many nodes to add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import ElasticCluster, TieredStorage
from repro.cluster.costs import DEFAULT_COSTS, GB, CostParameters
from repro.cluster.metrics import CycleMetrics, RunMetrics
from repro.core.provisioner import LeadingStaircase
from repro.core.registry import make_partitioner
from repro.errors import ConfigError, require_count, require_fraction
from repro.query.executor import Query, run_suite
from repro.query.suites import suite_for
from repro.workloads.model import CyclicWorkload


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one experiment run.

    Attributes:
        partitioner: registry name of the placement scheme.
        initial_nodes: starting cluster size (paper §6.2: 2).
        node_capacity_gb: capacity ``c`` per node (paper §6.1: 100).
        fixed_step: nodes added per capacity breach under the fixed
            schedule (paper §6.2: 2).  Ignored when ``staircase`` is set.
        staircase: optional (s, p) parameters — switches provisioning to
            the leading staircase control loop.
        fill: the fixed schedule scales out while demand exceeds this
            fraction of capacity, in ``(0, 1]``.
        retention_cycles: when set, each cycle expires the batch ingested
            ``retention_cycles`` cycles earlier (a sliding window); the
            removal's seconds count as reorganization.
        ledger_compact_ratio: dead-slot ratio past which the chunk table
            compacts (``None``: never); see :class:`ElasticCluster`.
        views: factories ``cluster -> view``, built once with the cluster
            (:attr:`ExperimentRunner.views`); every cycle refreshes each
            view before the suite and charges its seconds to the query
            phase.
        virtual_nodes / tree_height: partitioner-specific knobs.
        costs: simulation cost constants.
        storage: optional tiered-storage root — when set, every node
            spills cold payloads to segment files under it and keeps a
            byte-budgeted LRU of hot chunks (out-of-core runs).

    Raises:
        ConfigError: ``fill``, ``retention_cycles`` or a view factory is
            invalid.
    """

    partitioner: str
    initial_nodes: int = 2
    node_capacity_gb: float = 100.0
    fixed_step: int = 2
    staircase: Optional[Dict[str, int]] = None
    fill: float = 1.0
    retention_cycles: Optional[int] = None
    ledger_compact_ratio: Optional[float] = 0.5
    views: Sequence[Callable[[ElasticCluster], Any]] = ()
    virtual_nodes: int = 64
    tree_height: int = 8
    costs: CostParameters = field(default_factory=lambda: DEFAULT_COSTS)
    storage: Optional[TieredStorage] = None

    def __post_init__(self) -> None:
        # Frozen: a value checked here cannot be swapped for an
        # unchecked one before the runner reads it.
        require_fraction("fill", self.fill, ConfigError, zero_ok=False)
        if self.retention_cycles is not None:
            require_count(
                "retention_cycles", self.retention_cycles, ConfigError
            )
        object.__setattr__(self, "views", tuple(self.views))
        for factory in self.views:
            if not callable(factory):
                raise ConfigError(
                    f"views must be callables cluster -> view, got {factory!r}"
                )


class ExperimentRunner:
    """Run a cyclic workload against an elastic cluster.

    Args:
        workload: the data + query workload.
        config: cluster and provisioning configuration.
        queries: benchmark suite override (defaults to the workload's §3.3
            suite; ``()`` runs no suite).
    """

    def __init__(
        self,
        workload: CyclicWorkload,
        config: RunConfig,
        queries: Optional[Sequence[Query]] = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.queries = (
            list(queries) if queries is not None else suite_for(workload)
        )
        self.cluster = self._build_cluster()
        self.views = tuple(factory(self.cluster) for factory in config.views)
        self.metrics = RunMetrics()
        #: refs of the batches still inside the retention window
        self._window: List[List] = []

    # ------------------------------------------------------------------
    def _build_cluster(self) -> ElasticCluster:
        cfg = self.config
        capacity = cfg.node_capacity_gb * GB
        spatial = self.workload.spatial_dims()
        partitioner = make_partitioner(
            cfg.partitioner,
            nodes=list(range(cfg.initial_nodes)),
            grid=self.workload.grid_box(),
            node_capacity_bytes=capacity,
            virtual_nodes=cfg.virtual_nodes,
            height=cfg.tree_height,
            spatial_dims=spatial if spatial else None,
        )
        provisioner = None
        if cfg.staircase is not None:
            provisioner = LeadingStaircase(
                node_capacity=capacity,
                samples=cfg.staircase.get("s", 1),
                planning_cycles=cfg.staircase.get("p", 1),
            )
        return ElasticCluster(
            partitioner=partitioner,
            node_capacity_bytes=capacity,
            costs=cfg.costs,
            provisioner=provisioner,
            ledger_compact_ratio=cfg.ledger_compact_ratio,
            storage=cfg.storage,
        )

    # ------------------------------------------------------------------
    def run_cycle(self, cycle: int) -> CycleMetrics:
        """Execute one workload cycle; returns its metrics."""
        batch = self.workload.batch(cycle)
        cluster = self.cluster
        cfg = self.config

        reorg_seconds = 0.0
        nodes_added = 0
        chunks_moved = 0
        bytes_moved = 0.0

        if cluster.provisioner is None:
            # Fixed schedule: add `fixed_step` nodes while the incoming
            # insert would push demand past `fill` of capacity (§6.2's
            # 2→8 ladder).  The relative epsilon keeps float summation
            # order (which varies by partitioner) from flipping a
            # demand-equals-capacity comparison.
            demand = cluster.total_bytes + batch.total_bytes
            while demand > cfg.fill * cluster.capacity_bytes * (1 + 1e-9):
                report = cluster.scale_out(cfg.fixed_step)
                reorg_seconds += report.elapsed_seconds
                nodes_added += cfg.fixed_step
                chunks_moved += report.chunks_moved
                bytes_moved += report.bytes_moved
            ingest = cluster.ingest(batch.chunks)
        else:
            ingest = cluster.ingest(batch.chunks)
            if ingest.rebalance is not None:
                reorg_seconds = ingest.rebalance.elapsed_seconds
                chunks_moved = ingest.rebalance.chunks_moved
                bytes_moved = ingest.rebalance.bytes_moved
            nodes_added = ingest.nodes_added

        if cfg.retention_cycles is not None:
            self._window.append([c.ref() for c in batch.chunks])
            if len(self._window) > cfg.retention_cycles:
                removed = cluster.remove_chunks(self._window.pop(0))
                reorg_seconds += removed.elapsed_seconds

        reports = [view.refresh() for view in self.views]
        query_seconds = sum((r.seconds for r in reports), 0.0)
        by_name: Dict[str, float] = {}
        if self.queries:
            # One epoch-pinned session per benchmark pass: every query
            # of the suite reads the same post-ingest view.
            session = cluster.session()
            for result in run_suite(self.queries, session, cycle):
                query_seconds += result.elapsed_seconds
                by_name[result.name] = result.elapsed_seconds

        metrics = CycleMetrics(
            cycle=cycle,
            nodes=cluster.node_count,
            demand_bytes=cluster.total_bytes,
            insert_seconds=ingest.insert_seconds,
            reorg_seconds=reorg_seconds,
            query_seconds=query_seconds,
            nodes_added=nodes_added,
            chunks_moved=chunks_moved,
            bytes_moved=bytes_moved,
            storage_rsd=cluster.storage_rsd(),
            query_seconds_by_name=by_name,
            refresh_modes=[r.mode for r in reports],
        )
        self.metrics.add(metrics)
        return metrics

    def run(self) -> RunMetrics:
        """Execute every cycle of the workload."""
        for cycle in range(1, self.workload.n_cycles + 1):
            self.run_cycle(cycle)
        return self.metrics

    # ------------------------------------------------------------------
    def query_category_seconds(self) -> Dict[str, float]:
        """Total simulated seconds per query category (Figure 5 bars)."""
        by_category: Dict[str, float] = {}
        names = {q.name: q.category for q in self.queries}
        for name, seconds in self.metrics.query_seconds_by_name().items():
            category = names.get(name, "other")
            by_category[category] = by_category.get(category, 0.0) + seconds
        return by_category
