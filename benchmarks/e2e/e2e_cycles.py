"""The five workloads and the child-side cycle loops that drive them.

Each loop is the benchmark's own copy of
``ExperimentRunner.run_cycle`` (fixed +2-node schedule) with a timer —
and, in the traced run, a span — around every public call:
``workload.batch``, ``cluster.scale_out``, ``cluster.ingest``,
``cluster.remove_chunks``, ``cluster.session``,
``run_suite([q], session, cycle)``, ``view.refresh``.  The program
receives only the generated batches; the seed goes to the workload
constructor.  Backends are chosen with ``repro.config.parity(...)`` and
``RunConfig(storage=...)``; no ``REPRO_*`` variable is set.

:func:`run_child` runs one workload once and returns a JSON-ready
record.  The parent (``bench_e2e.py``) launches it in a fresh process
per repeat; the smoke self-test calls it in-process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import e2e_spans as span_lib
import numpy as np

from repro.arrays.coords import Box
from repro.cluster.cluster import ElasticCluster, TieredStorage
from repro.cluster.costs import GB
from repro.cluster.metrics import CycleMetrics, RunMetrics
from repro.config import parity
from repro.core.registry import make_partitioner
from repro.core.traits import PAPER_ORDER
from repro.harness.runner import ExperimentRunner, RunConfig
from repro.query.executor import Query, run_suite
from repro.query.incremental import (
    MaintainedGridStats,
    MaintainedJoin,
    position_side,
)
from repro.workloads.ais import AisWorkload
from repro.workloads.batch import InsertBatch
from repro.workloads.model import CyclicWorkload
from repro.workloads.modis import MINUTES_PER_DAY, ModisWorkload

SCALES = ("smoke", "gate", "full")
DEFAULT_SEED = 20140622

#: The one scheme the single-scheme workloads run (the paper's pick).
SCHEME = "hilbert_curve"
#: ``modis_spill``: per-node LRU budget; live data reaches ~8x this.
SPILL_BUDGET_BYTES = 10 * GB
#: ``modis_churn``: days a chunk stays live, and the fill ratio past
#: which two nodes are added (``figure8_retention``'s rule).
RETENTION_CYCLES = 4
RETENTION_FILL = 0.85
#: ``modis_churn``: suite passes per cycle (the first one is cold).
CHURN_PASSES = 3


# ----------------------------------------------------------------------
# answer digests
# ----------------------------------------------------------------------
def _feed(h: Any, value: Any) -> None:
    """Hash one ``QueryResult.value`` canonically (type-tagged, ordered)."""
    if isinstance(value, Mapping):
        h.update(b"{")
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            _feed(h, value.tolist())
        else:
            h.update(f"a{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        h.update(f"i{int(value)}".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"f{float(value).hex()}".encode())
    else:
        h.update(f"{type(value).__name__}:{value!r}".encode())


# ----------------------------------------------------------------------
# one child run: timers, samples, counts, digests
# ----------------------------------------------------------------------
class _Timer:
    seconds = 0.0


class Run:
    """Accumulators of one workload run.

    ``call`` times one public call (and records a span when tracing);
    ``operation`` counts one attempted operation and turns an exception
    inside it into a counted failure instead of ending the run.
    """

    def __init__(
        self,
        started: float,
        tracer: Optional[span_lib.Tracer] = None,
        corrupt_sample: Optional[int] = None,
    ) -> None:
        self.started = started
        self.tracer = tracer
        #: Test hook: index of the latency sample whose query value is
        #: replaced before hashing, so the self-test sees a check fire.
        self.corrupt_sample = corrupt_sample
        self.phases = {"generate_s": 0.0, "ingest_s": 0.0, "query_s": 0.0}
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks: List[Dict[str, Any]] = []
        self.layers: Dict[str, float] = {}
        self.node_hours: Dict[str, float] = {}
        #: Summed ``coords.nbytes + column.nbytes`` of generated chunks,
        #: kept only when a body asks (``modis_spill``).
        self.payload_bytes: Optional[float] = None
        self._digests: Dict[str, Any] = {}
        self._counted_cycles: set = set()
        self._section_t0 = 0.0
        self._root: Optional[List[Any]] = None

    # -- spans ---------------------------------------------------------
    def set_cycle(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.cycle = label

    def _open(self, name: str, metric: str) -> Optional[List[Any]]:
        return None if self.tracer is None else self.tracer.open(name, metric)

    def _close(self, span: Optional[List[Any]]) -> None:
        if span is not None and self.tracer is not None:
            self.tracer.close(span)

    # -- the measured section ------------------------------------------
    def begin_section(self) -> None:
        """Set-up is over: the first cycle is ready to run."""
        self.setup_s = time.perf_counter() - self.started
        self.set_cycle("section")
        self._root = self._open("harness.section", "harness.driver_self_s")
        self._section_t0 = time.perf_counter()

    def end_section(self) -> None:
        self.wall_s = time.perf_counter() - self._section_t0
        self._close(self._root)

    @contextmanager
    def call(
        self, name: str, metric: str, phase: Optional[str] = None
    ) -> Iterator[_Timer]:
        timer = _Timer()
        span = self._open(name, metric)
        t0 = time.perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = time.perf_counter() - t0
            self._close(span)
            if phase is not None:
                self.phases[phase] += timer.seconds

    @contextmanager
    def operation(self, what: str) -> Iterator[None]:
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # counted and reported; the run goes on
            self.failed += 1
            self.errors.append(f"{what}: {exc!r}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One output verification; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # -- bookkeeping ---------------------------------------------------
    def add(self, metric: str, amount: float) -> None:
        self.layers[metric] = self.layers.get(metric, 0.0) + float(amount)

    def count_batch(self, batch: InsertBatch) -> None:
        """Count a cycle's chunks/cells once (schemes share batches)."""
        if batch.cycle in self._counted_cycles:
            return
        self._counted_cycles.add(batch.cycle)
        self.add("workloads.chunks", batch.chunk_count)
        self.add("workloads.cells", batch.cell_count)
        if self.payload_bytes is not None:
            for chunk in batch.chunks:
                coords, columns = chunk.payload_parts()
                self.payload_bytes += coords.nbytes + sum(
                    c.nbytes for c in columns.values()
                )

    def record_query(
        self, name: str, result: Any, seconds: float, digest: str
    ) -> None:
        value = result.value
        if len(self.latencies_ms) == self.corrupt_sample:
            value = {"corrupted": value}
        self.latencies_ms.append(seconds * 1e3)
        self.add(f"query.{name}_s", seconds)
        _feed(self._digests.setdefault(digest, hashlib.sha256()), value)

    def digest(self, prefix: str) -> str:
        """Digest of the answers recorded under ``prefix[/...]``, in order."""
        combined = hashlib.sha256()
        for label, h in self._digests.items():
            if label == prefix or label.startswith(prefix + "/"):
                combined.update(h.digest())
        return combined.hexdigest()

    def trace_summary(self) -> Dict[str, Any]:
        tracer, root = self.tracer, self._root
        if tracer is None or root is None:
            return {}
        return {
            "section_s": root[5] - root[4],
            "span_count": len(tracer.spans),
            "self_s": span_lib.self_times(tracer.spans, root[0]),
        }

    def result(self) -> Dict[str, Any]:
        return {
            "e2e": {
                "wall_s": self.wall_s,
                "generate_s": self.phases["generate_s"],
                "ingest_s": self.phases["ingest_s"],
                "query_s": self.phases["query_s"],
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024.0,
                "setup_s": self.setup_s,
                "modeled_node_hours": float(sum(self.node_hours.values())),
            },
            "latencies_ms": self.latencies_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "checks": self.checks,
            "digests": {
                prefix: self.digest(prefix)
                for prefix in dict.fromkeys(
                    label.split("/")[0] for label in self._digests
                )
            },
            "layers": {k: float(v) for k, v in self.layers.items()},
            "node_hours": self.node_hours,
        }


# ----------------------------------------------------------------------
# the cycle, phase by phase
# ----------------------------------------------------------------------
def generate(run: Run, workload: CyclicWorkload, cycle: int) -> InsertBatch:
    with run.call("workload.batch", "workloads.generate_self_s", "generate_s"):
        batch = workload.batch(cycle)
    run.count_batch(batch)
    return batch


def suite_pass(
    run: Run,
    cluster: ElasticCluster,
    queries: Sequence[Query],
    cycle: int,
    digest: str,
) -> Dict[str, float]:
    """One benchmark pass on a fresh session; modeled seconds by query."""
    by_name: Dict[str, float] = {}
    with run.call("cluster.session", "cluster.session_s"):
        session = cluster.session()
    for query in queries:
        with run.operation(f"query {query.name} @{cycle}"):
            with run.call(
                f"query.{query.name}", "query.body_self_s", "query_s"
            ) as timer:
                (result,) = run_suite([query], session, cycle)
            run.record_query(
                query.name, result, timer.seconds, f"{digest}/{cycle}"
            )
            by_name[result.name] = result.elapsed_seconds
    return by_name


def fixed_schedule_cycle(
    run: Run,
    runner: ExperimentRunner,
    cycle: int,
    label: str,
    digest: str,
) -> Optional[CycleMetrics]:
    """``ExperimentRunner.run_cycle`` under the fixed +2-node schedule."""
    cluster = runner.cluster
    step = runner.config.fixed_step
    run.set_cycle(f"{label}/{cycle}")
    batch = generate(run, runner.workload, cycle)
    reorg_seconds = 0.0
    nodes_added = 0
    chunks_moved = 0
    bytes_moved = 0.0
    ingest = None
    with run.operation(f"ingest {label}/{cycle}"):
        demand = cluster.total_bytes + batch.total_bytes
        while demand > cluster.capacity_bytes * (1 + 1e-9):
            with run.call("cluster.scale_out", "cluster.rebalance_s", "ingest_s"):
                report = cluster.scale_out(step)
            reorg_seconds += report.elapsed_seconds
            nodes_added += step
            chunks_moved += report.chunks_moved
            bytes_moved += report.bytes_moved
        with run.call("cluster.ingest", "cluster.insert_s", "ingest_s"):
            ingest = cluster.ingest(batch.chunks)
    by_name = suite_pass(run, cluster, runner.queries, cycle, digest)
    run.add("cluster.chunks_moved", chunks_moved)
    run.add("cluster.bytes_moved_gb", bytes_moved / GB)
    if ingest is None:
        return None
    # Same summation order as the runner, so Eq. 1 matches it exactly.
    query_seconds = 0.0
    for seconds in by_name.values():
        query_seconds += seconds
    return CycleMetrics(
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
    )


def run_cycles(
    run: Run, runner: ExperimentRunner, label: str, digest: str
) -> None:
    """Every cycle of one runner's workload; Eq. 1 cost under ``label``."""
    metrics = RunMetrics()
    for cycle in range(1, runner.workload.n_cycles + 1):
        cycle_metrics = fixed_schedule_cycle(run, runner, cycle, label, digest)
        if cycle_metrics is not None:
            metrics.add(cycle_metrics)
    run.node_hours[label] = metrics.workload_cost_node_hours
    run.add("core.catalog_capacity", runner.cluster.catalog.column_capacity)
    run.add(
        "core.ledger_capacity",
        runner.cluster.partitioner.ledger_column_capacity,
    )


# ----------------------------------------------------------------------
# workload bodies: (run, workload, oracle, tmpdir)
# ----------------------------------------------------------------------
def all_schemes_body(
    run: Run, workload: CyclicWorkload, oracle: bool, tmp: str
) -> None:
    """``*_inproc``: eight schemes over one generated workload."""
    runner = ExperimentRunner(workload, RunConfig(partitioner=PAPER_ORDER[0]))
    run.begin_section()
    for scheme in PAPER_ORDER:
        t0 = time.perf_counter()
        if scheme != PAPER_ORDER[0]:
            runner = ExperimentRunner(workload, RunConfig(partitioner=scheme))
        run_cycles(run, runner, scheme, scheme)
        run.layers[f"harness.scheme_s.{scheme}"] = time.perf_counter() - t0
    run.end_section()
    # (a) answers are placement-independent.
    digests = [run.digest(scheme) for scheme in PAPER_ORDER]
    common = max(set(digests), key=digests.count)
    odd = [s for s, d in zip(PAPER_ORDER, digests) if d != common]
    run.check(
        "a:answers-identical-across-schemes", not odd,
        f"schemes with a different digest: {odd}" if odd else "",
    )


def process_body(
    run: Run, workload: CyclicWorkload, oracle: bool, tmp: str
) -> None:
    """``ais_process``: one worker process per node (in-process oracle)."""
    log: List[Dict[str, Any]] = []
    stale = 0
    with ExitStack() as stack:
        if not oracle:
            stack.enter_context(parity(exec="process"))
        runner = ExperimentRunner(workload, RunConfig(partitioner=SCHEME))
        cluster = runner.cluster
        stack.callback(cluster.close_exec)
        with run.call("cluster.exec_backend", "parallel.spawn_s"):
            engine = cluster.exec_backend()  # spawns the initial workers
        run.begin_section()
        run_cycles(run, runner, SCHEME, "suite")
        if engine is not None:
            log = engine.drain_request_log()
            stale = engine.stale_fallbacks
        # Reaping the workers is part of what the backend costs a user.
        with run.call("cluster.close_exec", "parallel.spawn_s"):
            cluster.close_exec()
        run.end_section()
    for op in ("load", "gather"):
        rows = [r for r in log if r["op"] == op]
        run.add(f"parallel.{op}_requests", len(rows))
        run.add(f"parallel.{op}_bytes", sum(r["bytes"] for r in rows))
        run.add(
            f"parallel.{op}_worker_s", sum(r["worker_seconds"] for r in rows)
        )
    run.add("parallel.stale_fallbacks", stale)


def _tier_counts(run: Run, cluster: ElasticCluster) -> None:
    """Faults and evictions add up over clusters; spilled is the last's."""
    run.layers["arrays.spilled_chunks"] = 0.0
    for stats in cluster.storage_stats().values():
        run.add("arrays.tier_faults", stats["fault_count"])
        run.add("arrays.tier_evictions", stats["eviction_count"])
        run.add("arrays.spilled_chunks", stats["spilled_chunks"])


def _tree_size(root: str) -> Tuple[int, int]:
    """``(files, bytes)`` under a directory."""
    files = 0
    size = 0
    for base, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def spill_body(
    run: Run, workload: CyclicWorkload, oracle: bool, tmp: str
) -> None:
    """``modis_spill``: 8x over the LRU budget, then recover and go cold."""
    storage = None
    if not oracle:
        storage = TieredStorage(
            root=os.path.join(tmp, "tier"),
            memory_budget_bytes=SPILL_BUDGET_BYTES,
        )
        run.payload_bytes = 0.0
    config = RunConfig(partitioner=SCHEME, storage=storage)
    runner = ExperimentRunner(workload, config)
    run.begin_section()
    run_cycles(run, runner, SCHEME, "suite")
    if storage is None:
        run.end_section()
        return
    last = workload.n_cycles
    cluster = runner.cluster
    queries = runner.queries
    _tier_counts(run, cluster)
    node_ids = list(cluster.node_ids)
    capacity = cluster.node_capacity_bytes
    del cluster, runner  # the process state is gone; the directories stay
    gc.collect()
    spatial = workload.spatial_dims()
    partitioner = make_partitioner(
        SCHEME,
        nodes=node_ids,
        grid=workload.grid_box(),
        node_capacity_bytes=capacity,
        virtual_nodes=config.virtual_nodes,
        height=config.tree_height,
        spatial_dims=spatial if spatial else None,
    )
    run.set_cycle(f"{SCHEME}/recover")
    recovered = None
    with run.operation("recover"):
        with run.call("cluster.recover", "cluster.recover_s", "query_s"):
            recovered = ElasticCluster.recover(
                partitioner, capacity, storage, costs=config.costs
            )
    if recovered is not None:
        t0 = time.perf_counter()
        by_name = suite_pass(run, recovered, queries, last, "cold")
        run.layers["arrays.cold_suite_s"] = time.perf_counter() - t0
        run.node_hours["cold"] = (
            recovered.node_count * sum(by_name.values()) / 3600.0
        )
        _tier_counts(run, recovered)
    run.end_section()
    # (c) durability: the cold answers after recover equal the warm
    # ones the dead cluster gave at the same cycle.
    run.check(
        "c:cold-equals-warm-after-recover",
        recovered is not None
        and run.digest(f"cold/{last}") == run.digest(f"suite/{last}"),
    )
    files, size = _tree_size(storage.root)
    run.layers["arrays.segment_files"] = files
    run.layers["arrays.disk_bytes_per_payload_byte"] = (
        size / run.payload_bytes if run.payload_bytes else 0.0
    )


def churn_body(
    run: Run, workload: CyclicWorkload, oracle: bool, tmp: str
) -> None:
    """``modis_churn``: sliding retention window, two maintained views.

    The suite runs three times a cycle, each on a fresh session: one
    pass over the array the cycle just mutated, then two memo-served
    ones.  With a single warm pass exactly half of the latency samples
    are warm and the pooled median sits on the cliff between the two
    modes (20 % spread across seeds); with two it sits inside the warm
    mode.
    """
    runner = ExperimentRunner(workload, RunConfig(partitioner=SCHEME))
    cluster = runner.cluster
    horizon = workload.n_cycles * MINUTES_PER_DAY
    grid_view = MaintainedGridStats(
        cluster, "band1", "radiance", dims=(1, 2), cell_sizes=(12, 12),
        ndim=3, domain=Box((0, -180, -90), (horizon, 181, 91)),
    )
    join_view = MaintainedJoin(
        cluster,
        position_side("band1", "radiance"),
        position_side("band2", "radiance"),
        ndim=3,
    )
    views = (("grid_stats", grid_view), ("join", join_view))
    window: List[List[Any]] = []
    metrics = RunMetrics()
    refreshes = 0
    delta_refreshes = 0
    pass_wall = [0.0] * CHURN_PASSES
    run.begin_section()
    for cycle in range(1, workload.n_cycles + 1):
        run.set_cycle(f"{SCHEME}/{cycle}")
        batch = generate(run, workload, cycle)
        insert_seconds = 0.0
        reorg_seconds = 0.0
        with run.operation(f"ingest {cycle}"):
            demand = cluster.total_bytes + batch.total_bytes
            if demand > RETENTION_FILL * cluster.capacity_bytes:
                with run.call(
                    "cluster.scale_out", "cluster.rebalance_s", "ingest_s"
                ):
                    report = cluster.scale_out(2)
                reorg_seconds += report.elapsed_seconds
                run.add("cluster.chunks_moved", report.chunks_moved)
                run.add("cluster.bytes_moved_gb", report.bytes_moved / GB)
            with run.call("cluster.ingest", "cluster.insert_s", "ingest_s"):
                ingest = cluster.ingest(batch.chunks)
            insert_seconds = ingest.insert_seconds
            window.append([c.ref() for c in batch.chunks])
            if len(window) > RETENTION_CYCLES:
                expired = window.pop(0)
                with run.call(
                    "cluster.remove_chunks", "cluster.remove_s", "ingest_s"
                ):
                    removed = cluster.remove_chunks(expired)
                reorg_seconds += removed.elapsed_seconds
                run.add("cluster.chunks_expired", removed.chunk_count)
        query_seconds = 0.0
        for name, view in views:
            with run.operation(f"refresh {name} @{cycle}"):
                with run.call(
                    f"view.refresh.{name}", "query.refresh_s", "query_s"
                ) as timer:
                    report = view.refresh()
                run.latencies_ms.append(timer.seconds * 1e3)
                query_seconds += report.seconds
                refreshes += 1
                delta_refreshes += report.mode == "delta"
        for i in range(CHURN_PASSES):
            t0 = time.perf_counter()
            by_name = suite_pass(
                run, cluster, runner.queries, cycle, f"pass{i + 1}"
            )
            pass_wall[i] += time.perf_counter() - t0
            query_seconds += sum(by_name.values())
        metrics.add(CycleMetrics(
            cycle=cycle,
            nodes=cluster.node_count,
            demand_bytes=cluster.total_bytes,
            insert_seconds=insert_seconds,
            reorg_seconds=reorg_seconds,
            query_seconds=query_seconds,
        ))
    run.end_section()
    run.node_hours[SCHEME] = metrics.workload_cost_node_hours
    run.layers["core.catalog_capacity"] = cluster.catalog.column_capacity
    run.layers["core.ledger_capacity"] = (
        cluster.partitioner.ledger_column_capacity
    )
    run.layers["query.refresh_delta_share"] = (
        delta_refreshes / refreshes if refreshes else 0.0
    )
    run.layers["query.pass2_over_pass1"] = (
        pass_wall[1] / pass_wall[0] if pass_wall[0] else 0.0
    )
    # (d) both maintained views equal a full recompute, the memo-served
    # passes answered exactly like the first, and the cluster's stores,
    # ledger, catalog and delta log agree.
    got, want = grid_view.result(), grid_view.recompute()
    run.check(
        "d:grid-stats-view-equals-recompute",
        all(np.array_equal(got[i], want[i]) for i in (0, 1, 3, 4))
        and np.allclose(got[2], want[2], rtol=1e-9, atol=1e-9),
    )
    got_join, want_join = join_view.result(), join_view.recompute()
    run.check(
        "d:join-view-equals-recompute",
        got_join["pairs"] == want_join["pairs"]
        and bool(np.isclose(
            got_join["product_sum"], want_join["product_sum"],
            rtol=1e-9, atol=1e-9,
        )),
        f"{got_join} vs {want_join}",
    )
    run.check(
        "d:warm-passes-equal-first",
        len({run.digest(f"pass{i + 1}") for i in range(CHURN_PASSES)}) == 1,
    )
    with run.operation("check_consistency"):
        cluster.check_consistency()


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Spec:
    """One workload: what it builds, at which sizes, and why it exists."""

    name: str
    why: str
    workload: Callable[..., CyclicWorkload]
    body: Callable[[Run, CyclicWorkload, bool, str], None]
    #: ``scale -> workload constructor arguments``.
    sizes: Mapping[str, Mapping[str, float]]
    #: ``scale -> this box's median wall of one repeat``; a child is
    #: killed at ten times this.
    expected_wall_s: Mapping[str, float]
    #: Set when an in-process / in-memory run of the same seed is the
    #: reference for check (b): the per-layer metric that reports this
    #: workload's wall over that oracle's.
    slowdown_metric: Optional[str] = None
    #: Listed in the root ``BENCHMARK.json``, whose driver rejects a
    #: later change on any metric that worsens by more than its bound.
    gated: bool = True

    @property
    def has_oracle(self) -> bool:
        return self.slowdown_metric is not None


def _modis(n_cycles: int, cells: int, total_gb: float = 630.0) -> Dict[str, float]:
    return {
        "n_cycles": n_cycles,
        "cells_per_band_per_cycle": cells,
        "target_total_gb": total_gb,
    }


def _ais(n_cycles: int, ships: int, broadcasts: int) -> Dict[str, float]:
    return {
        "n_cycles": n_cycles,
        "ships": ships,
        "broadcasts_per_ship": broadcasts,
    }


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="modis_inproc",
            why=(
                "Dense near-uniform chunks, eight schemes, memory, in-process: "
                "the kernel- and planning-bound baseline; bypasses parallel "
                "and the tier."
            ),
            workload=ModisWorkload,
            body=all_schemes_body,
            sizes={
                "smoke": _modis(2, 300),
                "gate": _modis(4, 20000),
                "full": _modis(14, 20000),
            },
            expected_wall_s={"smoke": 0.5, "gate": 3.0, "full": 12.0},
        ),
        Spec(
            name="ais_inproc",
            why=(
                "Port skew makes thousands of tiny chunks per scheme: "
                "per-chunk object cost (gather, place, generate) dominates "
                "where MODIS is kernel-bound."
            ),
            workload=AisWorkload,
            body=all_schemes_body,
            sizes={
                "smoke": _ais(2, 40, 4),
                "gate": _ais(5, 500, 30),
                "full": _ais(10, 1000, 40),
            },
            expected_wall_s={"smoke": 0.5, "gate": 3.0, "full": 15.0},
        ),
        Spec(
            name="ais_process",
            why=(
                "One worker process per node behind parity(exec='process'): "
                "the only workload where worker sync and gather carry the "
                "wall; every other one bypasses parallel."
            ),
            workload=AisWorkload,
            body=process_body,
            sizes={
                "smoke": _ais(2, 30, 3),
                "gate": _ais(10, 150, 15),
                "full": _ais(10, 250, 20),
            },
            expected_wall_s={"smoke": 1.0, "gate": 2.6, "full": 7.5},
            slowdown_metric="parallel.slowdown_x",
            # Four workers and the driver trade hundreds of small
            # messages over two virtual cores, so every wake-up waits
            # on the hypervisor: when the host is busy this workload
            # slows by a quarter (the in-process ones by a tenth) and
            # its ten-seed spreads reach 23 % (``query_p50_ms``) and
            # 17 % (``query_p90_ms``, ``generate_s``) against a largest
            # allowed bound of 25 %.
            gated=False,
        ),
        Spec(
            name="modis_spill",
            why=(
                "Live data ~8x over the per-node LRU budget, then recover "
                "from the segment directories and query cold: the "
                "larger-than-cache and durability workload."
            ),
            workload=ModisWorkload,
            body=spill_body,
            sizes={
                "smoke": _modis(2, 150),
                "gate": _modis(5, 400),
                "full": _modis(5, 2000),
            },
            expected_wall_s={"smoke": 1.5, "gate": 3.0, "full": 6.5},
            slowdown_metric="arrays.tier_slowdown_x",
            # Its ingest is one fsync per chunk, and an fsync on the
            # reference box's virtual disk wanders between 0.23 and
            # 0.58 ms while idle (33 % IQR/median over five minutes; up
            # to 2 ms after deletes).  ``ingest_s`` here spread 20-57 %
            # over ten seeds: a gate on it would flip coins.
            gated=False,
        ),
        Spec(
            name="modis_churn",
            why=(
                "Sliding retention window: expiry, compaction and the delta "
                "log beside inserts, two maintained views, and memo-served "
                "suite passes after the cold one every cycle."
            ),
            workload=ModisWorkload,
            body=churn_body,
            sizes={
                "smoke": _modis(7, 150, 45.0 * 7),
                "gate": _modis(20, 6000, 45.0 * 20),
                "full": _modis(40, 6000, 45.0 * 40),
            },
            expected_wall_s={"smoke": 0.5, "gate": 3.0, "full": 6.6},
        ),
    )
}


# ----------------------------------------------------------------------
# one child
# ----------------------------------------------------------------------
def run_child(
    name: str,
    scale: str,
    seed: int,
    tmp: str,
    role: str = "measured",
    started: Optional[float] = None,
    trace_path: Optional[str] = None,
    corrupt_sample: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one workload once; returns the child record.

    ``tmp`` is an empty directory the caller owns and removes: the tier
    root goes there.  The run does not delete it, because on this box
    (ext4 mounted with ``discard``) deleting a few thousand segment
    files slows the fsyncs of whatever runs next by up to 2.5x for a
    second or two — the parent removes every repeat's directory after
    the last repeat instead.
    ``role`` is ``"measured"`` (untraced), ``"traced"`` (spans on) or
    ``"oracle"`` (in-process / in-memory twin for check (b)).
    ``started`` is the ``perf_counter`` reading set-up time counts from —
    the parent passes its own reading taken just before the spawn.
    """
    if started is None:
        started = time.perf_counter()
    spec = SPECS[name]
    tracer = span_lib.Tracer() if role == "traced" else None
    run = Run(started, tracer, corrupt_sample)
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(span_lib.install(tracer))
        workload = spec.workload(seed=seed, **spec.sizes[scale])
        spec.body(run, workload, role == "oracle", tmp)
    record = run.result()
    record.update(workload=name, scale=scale, seed=seed, role=role)
    if tracer is not None:
        record["trace"] = run.trace_summary()
        if trace_path is not None:
            with open(trace_path, "w") as fh:
                json.dump(
                    {
                        "workload": name, "scale": scale, "seed": seed,
                        "fields": span_lib.SPAN_FIELDS,
                        "spans": tracer.spans,
                    },
                    fh,
                )
    return record
