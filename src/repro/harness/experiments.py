"""Experiment entry points: one function per paper table/figure.

Every function returns a small result object carrying the raw data plus a
``render()`` method that prints the same rows/series the paper reports.
The benchmarks under ``benchmarks/`` call these functions; so can users
(see ``examples/``).  Figures 4–7 and the §6.2 headline claims are
projections of one :func:`paper_sweep`, which runs each scheme once.

Scale note: the default workload scales (cell counts) are sized for
laptop runs; modeled bytes always sit at paper scale (630 GB MODIS /
400 GB AIS), so simulated minutes are paper-comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData
from repro.arrays.coords import Box
from repro.arrays.schema import parse_schema
from repro.cluster.cluster import ElasticCluster
from repro.cluster.costs import DEFAULT_COSTS, GB, CostParameters
from repro.cluster.metrics import RunMetrics
from repro.core.registry import PARTITIONER_CLASSES, make_partitioner
from repro.core.traits import DISPLAY_NAMES, PAPER_ORDER, PAPER_TAXONOMY, TRAIT_COLUMNS
from repro.core.tuning import (
    ScaleOutCostModel,
    best_planning_cycles,
    best_sample_count,
    sampling_error_window,
)
from repro.errors import QueryError
from repro.harness.reporting import format_series_table, format_table
from repro.harness.runner import ExperimentRunner, RunConfig
from repro.query.incremental import MaintainedGridStats
from repro.workloads.ais import AisWorkload
from repro.workloads.model import CyclicWorkload
from repro.workloads.modis import ModisWorkload

#: Experiment-scale knobs: small enough for tests, faithful in bytes.
DEFAULT_MODIS_KWARGS = dict(n_cycles=14, cells_per_band_per_cycle=2000)
DEFAULT_AIS_KWARGS = dict(n_cycles=10, ships=500, broadcasts_per_ship=20)


def default_modis(**overrides) -> ModisWorkload:
    """The Figure 4–6/8 MODIS workload at harness scale."""
    kwargs = dict(DEFAULT_MODIS_KWARGS)
    kwargs.update(overrides)
    return ModisWorkload(**kwargs)


def default_ais(**overrides) -> AisWorkload:
    """The Figure 4/5/7 AIS workload at harness scale."""
    kwargs = dict(DEFAULT_AIS_KWARGS)
    kwargs.update(overrides)
    return AisWorkload(**kwargs)


# ----------------------------------------------------------------------
# Table 1 — taxonomy
# ----------------------------------------------------------------------
@dataclass
class TaxonomyResult:
    """Table 1: the four features of each partitioner."""

    rows: List[Tuple[str, bool, bool, bool, bool]]

    def render(self) -> str:
        return format_table(
            ["Partitioner", *TRAIT_COLUMNS],
            self.rows,
            title="Table 1: Taxonomy of array partitioners",
        )


def table1_taxonomy() -> TaxonomyResult:
    """Regenerate Table 1 from the implemented classes' trait vectors.

    Also cross-checks every class against the paper's published rows —
    a mismatch is a bug, so it raises.
    """
    rows = []
    for name in PAPER_ORDER:
        traits = PARTITIONER_CLASSES[name].traits
        expected = PAPER_TAXONOMY[name]
        if traits != expected:
            raise AssertionError(
                f"{name} traits {traits} diverge from Table 1 {expected}"
            )
        rows.append((DISPLAY_NAMES[name], *traits.as_row()))
    return TaxonomyResult(rows=rows)


# ----------------------------------------------------------------------
# The §6.2 sweep — Figures 4–7 and the headline claims read one run each
# ----------------------------------------------------------------------
@dataclass
class SchemeRun:
    """One scheme's §6.2 run on one workload, the suite on every cycle."""

    metrics: RunMetrics
    #: query category -> total simulated seconds (the Figure 5 bars)
    category_seconds: Dict[str, float]


@dataclass
class PaperSweep:
    """Every (workload, scheme) run of §6.2, made once.

    Figures 4–7 and :func:`headline_claims` are projections of it.
    Queries never move or price placement, so the insert, reorg and RSD
    numbers of Figure 4 are those of an ingest-only run.
    """

    #: workload name -> scheme -> run
    runs: Dict[str, Dict[str, SchemeRun]]


def paper_sweep(
    modis: Optional[ModisWorkload] = None,
    ais: Optional[AisWorkload] = None,
    partitioners: Sequence[str] = tuple(PAPER_ORDER),
) -> PaperSweep:
    """Run the §6.2 experiment: each scheme on MODIS and AIS, 2→8 nodes
    (+2 per capacity breach), the benchmark suite every cycle."""
    runs: Dict[str, Dict[str, SchemeRun]] = {}
    for workload in (modis or default_modis(), ais or default_ais()):
        runs[workload.name] = {}
        for name in partitioners:
            runner = ExperimentRunner(workload, RunConfig(partitioner=name))
            runs[workload.name][name] = SchemeRun(
                runner.run(), runner.query_category_seconds()
            )
    return PaperSweep(runs=runs)


# ----------------------------------------------------------------------
# Figure 4 — insert + reorganization durations, RSD labels
# ----------------------------------------------------------------------
@dataclass
class InsertReorgResult:
    """Figure 4: per-partitioner ingest costs for both workloads."""

    #: workload -> partitioner -> (insert_minutes, reorg_minutes, rsd_pct)
    data: Dict[str, Dict[str, Tuple[float, float, float]]]

    def render(self) -> str:
        rows = [
            (
                DISPLAY_NAMES[name],
                *self.data["modis"][name],
                *self.data["ais"][name],
            )
            for name in PAPER_ORDER
            if all(name in self.data[w] for w in self.data)
        ]
        return format_table(
            [
                "Partitioner",
                "Insert MODIS (min)", "Reorg MODIS (min)", "RSD MODIS (%)",
                "Insert AIS (min)", "Reorg AIS (min)", "RSD AIS (%)",
            ],
            rows,
            title=(
                "Figure 4: Elastic partitioner insert and reorganization "
                "durations (labels = storage RSD)"
            ),
        )


def figure4_insert_reorg(sweep: PaperSweep) -> InsertReorgResult:
    """Figure 4 (§6.2.1): insert and reorg minutes, mean storage RSD."""
    return InsertReorgResult(data={
        workload: {
            name: (
                run.metrics.total_insert_seconds / 60.0,
                run.metrics.total_reorg_seconds / 60.0,
                run.metrics.mean_storage_rsd * 100.0,
            )
            for name, run in runs.items()
        }
        for workload, runs in sweep.runs.items()
    })


# ----------------------------------------------------------------------
# Figure 5 — benchmark times per partitioner
# ----------------------------------------------------------------------
@dataclass
class BenchmarkTimesResult:
    """Figure 5: summed SPJ + science benchmark minutes per partitioner."""

    #: workload -> partitioner -> {"spj": min, "science": min}
    data: Dict[str, Dict[str, Dict[str, float]]]
    #: workload -> partitioner -> Eq. 1 node-hours (for §6.2.3)
    node_hours: Dict[str, Dict[str, float]]

    def render(self) -> str:
        rows = [
            (
                DISPLAY_NAMES[name],
                *(
                    self.data[workload][name].get(category, 0.0)
                    for workload in ("modis", "ais")
                    for category in ("science", "spj")
                ),
                self.node_hours["modis"][name]
                + self.node_hours["ais"][name],
            )
            for name in PAPER_ORDER
        ]
        return format_table(
            [
                "Partitioner",
                "Science MODIS (min)", "SPJ MODIS (min)",
                "Science AIS (min)", "SPJ AIS (min)",
                "Total cost (node-hrs)",
            ],
            rows,
            title="Figure 5: Benchmark times for elastic partitioners",
        )


def figure5_benchmarks(sweep: PaperSweep) -> BenchmarkTimesResult:
    """Figure 5 (§6.2.2): benchmark minutes per category, Eq. 1 cost."""
    return BenchmarkTimesResult(
        data={
            workload: {
                name: {
                    category: seconds / 60.0
                    for category, seconds in run.category_seconds.items()
                }
                for name, run in runs.items()
            }
            for workload, runs in sweep.runs.items()
        },
        node_hours={
            workload: {
                name: run.metrics.workload_cost_node_hours
                for name, run in runs.items()
            }
            for workload, runs in sweep.runs.items()
        },
    )


# ----------------------------------------------------------------------
# Figures 6 and 7 — per-cycle query series
# ----------------------------------------------------------------------
@dataclass
class QuerySeriesResult:
    """A per-cycle latency series per partitioner (Figures 6 and 7)."""

    title: str
    query_name: str
    #: partitioner -> minutes per cycle
    series: Dict[str, List[float]]

    def render(self) -> str:
        return format_series_table(
            {
                DISPLAY_NAMES[name]: values
                for name, values in self.series.items()
            },
            title=self.title,
        )


def _query_series(
    sweep: PaperSweep, workload: str, query_name: str, title: str
) -> QuerySeriesResult:
    """One query's per-cycle minutes for every scheme of one workload."""
    return QuerySeriesResult(
        title=title,
        query_name=query_name,
        series={
            name: [v / 60.0 for v in run.metrics.query_series(query_name)]
            for name, run in sweep.runs[workload].items()
        },
    )


def figure6_join_series(sweep: PaperSweep) -> QuerySeriesResult:
    """Figure 6: NDVI join duration per cycle on (unskewed) MODIS."""
    return _query_series(
        sweep, "modis", "join_ndvi",
        "Figure 6: Join duration for unskewed data (minutes)",
    )


def figure7_knn_series(sweep: PaperSweep) -> QuerySeriesResult:
    """Figure 7: k-nearest-neighbours duration per cycle on skewed AIS."""
    return _query_series(
        sweep, "ais", "knn",
        "Figure 7: k-nearest neighbors on skewed data (minutes)",
    )


# ----------------------------------------------------------------------
# Figure 8 — the leading staircase
# ----------------------------------------------------------------------
@dataclass
class StaircaseResult:
    """Figure 8: node counts per cycle under different set points."""

    demand_nodes: List[float]
    #: p -> node count per cycle
    steps: Dict[int, List[int]]
    #: p -> total reorganizations (scale-out events)
    reorganizations: Dict[int, int]

    def render(self) -> str:
        series: Dict[str, Sequence[float]] = {
            "Demand": self.demand_nodes
        }
        for p, nodes in sorted(self.steps.items()):
            series[f"p = {p}"] = nodes
        return format_series_table(
            series,
            title=(
                "Figure 8: MODIS staircase with varying provisioner "
                "configurations (nodes)"
            ),
            fmt="{:.1f}",
        )


def figure8_staircase(
    modis: Optional[ModisWorkload] = None,
    p_values: Sequence[int] = (1, 3, 6),
    samples: int = 4,
    node_capacity_gb: float = 100.0,
) -> StaircaseResult:
    """Run the §6.3 staircase experiment (Consistent Hash placement)."""
    workload = modis or default_modis(n_cycles=15)
    demand = [
        d / (node_capacity_gb * GB) for d in workload.demand_curve()
    ]
    steps: Dict[int, List[int]] = {}
    reorgs: Dict[int, int] = {}
    for p in p_values:
        runner = ExperimentRunner(
            workload,
            RunConfig(
                partitioner="consistent_hash",
                initial_nodes=2,
                node_capacity_gb=node_capacity_gb,
                staircase={"s": samples, "p": p},
                run_queries=False,
            ),
        )
        metrics = runner.run()
        steps[p] = metrics.nodes_series()
        reorgs[p] = sum(1 for c in metrics.cycles if c.nodes_added > 0)
    return StaircaseResult(
        demand_nodes=demand, steps=steps, reorganizations=reorgs
    )


# ----------------------------------------------------------------------
# Table 2 — what-if tuning of s
# ----------------------------------------------------------------------
@dataclass
class SamplingTuningResult:
    """Table 2: demand-prediction error per sample count, train vs test."""

    #: row label -> {s: error_gb}
    errors: Dict[str, Dict[int, float]]
    best: Dict[str, int]

    def render(self) -> str:
        s_values = sorted(next(iter(self.errors.values())))
        rows = []
        for label, errs in self.errors.items():
            rows.append(
                (label, *[errs[s] for s in s_values])
            )
        table = format_table(
            ["", *[f"s={s}" for s in s_values]],
            rows,
            title=(
                "Table 2: Demand prediction error rates (GB) for various "
                "sampling levels"
            ),
        )
        best = ", ".join(
            f"{k}: s={v}" for k, v in self.best.items()
        )
        return table + f"\nBest sample count per workload ({best})"


def table2_sampling(
    modis: Optional[ModisWorkload] = None,
    ais: Optional[AisWorkload] = None,
    max_samples: int = 4,
) -> SamplingTuningResult:
    """Run Algorithm 1 on both demand histories, train/test split."""
    workloads: List[CyclicWorkload] = [
        ais or default_ais(),
        modis or default_modis(),
    ]
    errors: Dict[str, Dict[int, float]] = {}
    best: Dict[str, int] = {}
    for workload in workloads:
        history = [d / GB for d in workload.demand_curve()]
        # Train on the first third (but at least enough cycles to score
        # the largest s: a window of s+2 points), test on the rest.
        third = max(len(history) // 3, max_samples + 2)
        train: Dict[int, float] = {}
        test: Dict[int, float] = {}
        for s in range(1, max_samples + 1):
            train[s] = sampling_error_window(history, s, 0, third)
            test[s] = sampling_error_window(history, s, third, None)
        label = workload.name.upper()
        errors[f"{label} Train"] = train
        errors[f"{label} Test"] = test
        best[label] = best_sample_count(train)
    return SamplingTuningResult(errors=errors, best=best)


# ----------------------------------------------------------------------
# Table 3 — analytical cost model for p
# ----------------------------------------------------------------------
@dataclass
class CostModelResult:
    """Table 3: modeled vs measured node-hours per set point."""

    estimates: Dict[int, float]
    measured: Dict[int, float]
    best_estimated: int
    best_measured: int

    def render(self) -> str:
        rows = [
            (f"p = {p}", self.estimates[p], self.measured[p])
            for p in sorted(self.estimates)
        ]
        table = format_table(
            ["", "Cost Estimate", "Measured Cost"],
            rows,
            title=(
                "Table 3: Analytical cost modeling of MODIS controller "
                "set points (node hours)"
            ),
        )
        return table + (
            f"\nModel picks p={self.best_estimated}; "
            f"measurement picks p={self.best_measured}"
        )


def table3_cost_model(
    modis: Optional[ModisWorkload] = None,
    p_values: Sequence[int] = (1, 3, 6),
    samples: int = 4,
    window: Tuple[int, int] = (5, 8),
    node_capacity_gb: float = 100.0,
) -> CostModelResult:
    """Model vs measure the cost of workload cycles 5–8 per set point.

    The analytical side instantiates :class:`ScaleOutCostModel` from the
    state at the end of cycle ``window[0] - 1`` (load, node count, last
    query latency, insert rate over the last ``samples`` cycles).  The
    measured side runs the staircase for each ``p`` and sums Eq. 1 over
    the window.
    """
    workload = modis or default_modis(n_cycles=max(8, window[1]))
    lo, hi = window
    horizon = hi - lo + 1

    # Reference state: the tuning runs when the cluster first reaches
    # capacity, so all set points share the pre-breach history.  One
    # reference run through cycle lo-1 supplies l_0, N_0, w_0 and the
    # observed insert rate μ; p varies only inside the model (§5.2).
    reference = ExperimentRunner(
        workload,
        RunConfig(
            partitioner="consistent_hash",
            initial_nodes=2,
            node_capacity_gb=node_capacity_gb,
            staircase={"s": samples, "p": min(p_values)},
            run_queries=True,
        ),
    )
    for cycle in range(1, lo):
        reference.run_cycle(cycle)
    ref_cycles = reference.metrics.cycles
    base = ref_cycles[-1]
    history = [c.demand_bytes / GB for c in ref_cycles]
    s = min(samples, len(history) - 1)
    mu = (history[-1] - history[-1 - s]) / s if s >= 1 else history[-1]
    model = ScaleOutCostModel(
        node_capacity=node_capacity_gb,
        io_cost=DEFAULT_COSTS.io_seconds_per_gb / 3600.0,
        network_cost=DEFAULT_COSTS.network_seconds_per_gb / 3600.0,
        insert_rate=mu,
        initial_load=history[-1],
        initial_nodes=base.nodes,
        base_query_time=base.query_seconds / 3600.0,
    )

    estimates: Dict[int, float] = {}
    measured: Dict[int, float] = {}
    for p in p_values:
        estimates[p] = model.cost(p, horizon)
        runner = ExperimentRunner(
            workload,
            RunConfig(
                partitioner="consistent_hash",
                initial_nodes=2,
                node_capacity_gb=node_capacity_gb,
                staircase={"s": samples, "p": p},
                run_queries=True,
            ),
        )
        metrics = runner.run()
        measured[p] = float(
            sum(c.node_hours for c in metrics.cycles[lo - 1:hi])
        )
    return CostModelResult(
        estimates=estimates,
        measured=measured,
        best_estimated=best_planning_cycles(estimates),
        best_measured=best_planning_cycles(measured),
    )


# ----------------------------------------------------------------------
# Figure 8 companion — a sliding retention window under churn
# ----------------------------------------------------------------------
#: Chunk-grid space of the retention workload (time is unbounded).
_RETENTION_GRID = Box((0, 0, 0), (10_000, 64, 64))
_RETENTION_SCHEMA = parse_schema(
    "R<v:double>[t=0:*,1, x=0:63,1, y=0:63,1]"
)


@dataclass
class RetentionResult:
    """The retention-window staircase: live bytes, index memory, epochs.

    Where Figure 8 grows monotonically, this run expires data beyond a
    sliding retention window each cycle, so the storage curve is a
    staircase up, a plateau, and steady churn — the regime where ledger
    and catalog compaction, incremental reorganization, and the
    per-epoch payload cache all interact.
    """

    retention_cycles: int
    #: per-cycle series (one entry per completed cycle)
    live_gb: List[float]
    ingested_gb: List[float]
    nodes: List[int]
    live_chunks: List[int]
    ledger_capacity: List[int]
    catalog_capacity: List[int]
    catalog_epochs: List[int]
    storage_rsd: List[float]
    #: per-cycle content-delta telemetry: chunk rows entering/leaving
    #: the live set and the delta's total bytes, from the catalog's
    #: delta log — what the maintained grid-statistics view folds.
    delta_added_chunks: List[int]
    delta_removed_chunks: List[int]
    delta_gb: List[float]
    #: per-cycle maintenance arm the Tempura-style planner picked
    #: (``"full"`` on the unprimed first cycle, ``"delta"`` after).
    maintenance_modes: List[str]
    #: payload-cache telemetry over the whole run
    payload_cache_hits: int
    payload_cache_misses: int

    def render(self) -> str:
        table = format_series_table(
            {
                "Live (GB)": self.live_gb,
                "Ingested (GB)": self.ingested_gb,
                "Nodes": self.nodes,
                "Live chunks": self.live_chunks,
                "Ledger slots": self.ledger_capacity,
                "Catalog slots": self.catalog_capacity,
                "Catalog epoch": self.catalog_epochs,
                "Delta +chunks": self.delta_added_chunks,
                "Delta -chunks": self.delta_removed_chunks,
                "Delta (GB)": self.delta_gb,
            },
            title=(
                "Figure 8 companion: sliding retention window "
                f"(window = {self.retention_cycles} cycles)"
            ),
            fmt="{:.1f}",
        )
        arms = (
            f"full×{self.maintenance_modes.count('full')} "
            f"delta×{self.maintenance_modes.count('delta')}"
        )
        return table + (
            f"\nmaintenance arms: {arms}"
            f"\npayload cache: {self.payload_cache_hits} hits / "
            f"{self.payload_cache_misses} misses"
        )


def figure8_retention(
    cycles: int = 20,
    retention_cycles: int = 4,
    ramp_cycles: int = 4,
    ramp_chunks: int = 120,
    steady_chunks: int = 30,
    node_capacity_gb: float = 100.0,
    queries_per_cycle: int = 3,
    seed: int = 11,
) -> RetentionResult:
    """Drive a staircase-up / plateau / churn run with expiring data.

    Each cycle ingests a batch of paper-scale chunks (a heavy ramp for
    the first ``ramp_cycles`` cycles, then steady state), expires every
    chunk older than ``retention_cycles`` cycles via
    :meth:`ElasticCluster.remove_chunks`, scales out +2 nodes whenever
    demand crosses 85 % of capacity (the fixed §6.2 schedule), and runs
    ``queries_per_cycle`` repeated whole-array payload gathers — the
    repeats are served from the catalog's per-epoch cache until the next
    mutation bumps the epoch.

    A maintained grid-statistics view
    (:class:`~repro.query.incremental.MaintainedGridStats`) rides the
    whole staircase, folding each cycle's content delta (expiry as
    negative rows); the refreshed view is checked against a full
    recompute every cycle — the maintained ≡ recomputed contract,
    enforced inline.
    """
    rng = np.random.default_rng(seed)
    partitioner = make_partitioner(
        "hilbert_curve", [0, 1], grid=_RETENTION_GRID,
        node_capacity_bytes=node_capacity_gb * GB,
    )
    cluster = ElasticCluster(
        partitioner,
        node_capacity_bytes=node_capacity_gb * GB,
        costs=CostParameters(),
        ledger_compact_ratio=0.3,
    )
    result = RetentionResult(
        retention_cycles=retention_cycles,
        live_gb=[], ingested_gb=[], nodes=[], live_chunks=[],
        ledger_capacity=[], catalog_capacity=[], catalog_epochs=[],
        storage_rsd=[], delta_added_chunks=[], delta_removed_chunks=[],
        delta_gb=[], maintenance_modes=[],
        payload_cache_hits=0, payload_cache_misses=0,
    )
    view = MaintainedGridStats(
        cluster, "R", "v", dims=(1, 2), cell_sizes=(8, 8), ndim=3,
        domain=_RETENTION_GRID,
    )
    window: List[List] = []
    ingested = 0.0
    for cycle in range(cycles):
        per_cycle = ramp_chunks if cycle < ramp_cycles else steady_chunks
        by_key = {}
        for _ in range(per_cycle):
            key = (
                cycle,
                int(rng.integers(0, 64)),
                int(rng.integers(0, 64)),
            )
            by_key[key] = ChunkData(
                _RETENTION_SCHEMA, key,
                np.array([key], dtype=np.int64),
                {"v": np.array([1.0])},
                size_bytes=float(rng.lognormal(np.log(0.5 * GB), 0.6)),
            )
        batch = list(by_key.values())
        ingested += sum(c.size_bytes for c in batch)
        demand = cluster.total_bytes + sum(c.size_bytes for c in batch)
        if demand > 0.85 * cluster.capacity_bytes:
            cluster.scale_out(2)
        cluster.ingest(batch)
        window.append([c.ref() for c in batch])
        if len(window) > retention_cycles:
            cluster.remove_chunks(window.pop(0))
        # Repeated whole-array reads between reorganizations through an
        # epoch-pinned session: the first pays the concatenation, the
        # rest hit the per-epoch cache.
        session = cluster.session()
        for _ in range(queries_per_cycle):
            session.array_payload("R", ["v"], ndim=3)
        # Fold this cycle's content delta into the maintained view;
        # snapshot the delta columns first (refresh advances the
        # cursor past them).
        delta = session.deltas_since("R", view.cursors[0])
        result.delta_added_chunks.append(int(delta.added.sum()))
        result.delta_removed_chunks.append(int(delta.removed.sum()))
        result.delta_gb.append(delta.bytes_touched / GB)
        report = view.refresh()
        result.maintenance_modes.append(report.mode)
        got = view.result()
        want = view.recompute()
        if not (
            np.array_equal(got[0], want[0])
            and np.array_equal(got[1], want[1])
            and np.allclose(got[2], want[2], rtol=1e-9, atol=1e-9)
            and np.array_equal(got[3], want[3])
            and np.array_equal(got[4], want[4])
        ):
            raise QueryError(
                "maintained grid statistics diverged from full "
                f"recompute at cycle {cycle}"
            )
        cluster.check_consistency()
        result.live_gb.append(cluster.total_bytes / GB)
        result.ingested_gb.append(ingested / GB)
        result.nodes.append(cluster.node_count)
        result.live_chunks.append(cluster.partitioner.chunk_count)
        result.ledger_capacity.append(
            cluster.partitioner.ledger_column_capacity
        )
        result.catalog_capacity.append(
            cluster.catalog.column_capacity
        )
        result.catalog_epochs.append(cluster.catalog.epoch)
        result.storage_rsd.append(cluster.storage_rsd())
    result.payload_cache_hits = cluster.catalog.payload_hits
    result.payload_cache_misses = cluster.catalog.payload_misses
    return result


_CHURN_GRID = Box((0, 0, 0), (10_000, 8, 8))
_CHURN_SCHEMA = parse_schema(
    "C<v:double>[t=0:*,1, x=0:63,8, y=0:63,8]"
)
_CHURN_DOMAIN = Box((0, 0, 0), (10_000, 64, 64))


@dataclass
class ChurnResult:
    """Per-cycle maintenance cost as a function of churn fraction.

    The DBSP-style claim, measured: at each churn fraction a fixed-size
    array replaces that fraction of its chunks per cycle, and the
    maintained grid-statistics view refreshes.  The incremental arm's
    cost must track the *delta* (≈2× the churned bytes: expiry at -1
    plus replacement at +1), the full arm the *array*, and the planner
    must cross over to full recompute as churn approaches 100 %.
    """

    #: chunk fraction replaced per cycle, ascending
    churn_fractions: List[float]
    #: per-fraction medians across measured cycles
    delta_chunks: List[float]
    delta_gb: List[float]
    full_gb: List[float]
    #: modeled elapsed seconds of each planner arm
    delta_arm_seconds: List[float]
    full_arm_seconds: List[float]
    #: wall-clock milliseconds: refresh() vs a timed full recompute
    refresh_wall_ms: List[float]
    full_wall_ms: List[float]
    #: the arm the planner actually took at each fraction
    modes: List[str]

    def speedups(self) -> List[float]:
        """Modeled full-recompute seconds over the chosen arm's cost."""
        return [
            full / delta if delta > 0 else float("inf")
            for full, delta in zip(
                self.full_arm_seconds, self.delta_arm_seconds
            )
        ]

    def render(self) -> str:
        table = format_series_table(
            {
                "Churn fraction": self.churn_fractions,
                "Delta chunks": self.delta_chunks,
                "Delta (GB)": self.delta_gb,
                "Array (GB)": self.full_gb,
                "Delta arm (s)": self.delta_arm_seconds,
                "Full arm (s)": self.full_arm_seconds,
                "Refresh (ms)": self.refresh_wall_ms,
                "Recompute (ms)": self.full_wall_ms,
            },
            title="Incremental maintenance vs churn fraction",
            fmt="{:.3f}",
        )
        return table + "\nplanner arms: " + " ".join(self.modes)


def incremental_churn(
    churn_fractions: Sequence[float] = (0.05, 0.25, 1.0),
    base_chunks: int = 384,
    cycles_per_fraction: int = 3,
    node_count: int = 2,
    seed: int = 13,
) -> ChurnResult:
    """Measure maintained-view refresh cost across churn fractions.

    Builds one array of ``base_chunks`` dense 8×8 chunks, then for each
    churn fraction runs ``cycles_per_fraction`` replace cycles (expire a
    random fraction of live chunks, ingest equally many new ones) and
    refreshes a :class:`~repro.query.incremental.MaintainedGridStats`
    view each cycle, verifying it against a full recompute.  Reported
    figures are per-fraction medians; wall-clock numbers time the
    real numpy work (delta fold vs whole-array sweep), modeled seconds
    price both planner arms from catalog byte columns.

    The view maintains count/sum/mean only (``track_minmax=False``):
    uniformly random churn dirties buckets across the whole grid, so
    extrema maintenance would re-aggregate a bounding box that *is* the
    array — the region-scoped rescan pays off for spatially localized
    expiry (the retention staircase), not for uniform churn.
    """
    rng = np.random.default_rng(seed)
    partitioner = make_partitioner(
        "hilbert_curve", list(range(node_count)), grid=_CHURN_GRID,
        node_capacity_bytes=1000 * GB,
    )
    cluster = ElasticCluster(
        partitioner,
        node_capacity_bytes=1000 * GB,
        costs=CostParameters(),
    )
    cell_xy = np.stack(
        np.meshgrid(np.arange(8), np.arange(8), indexing="ij"),
        axis=-1,
    ).reshape(-1, 2)

    def make_chunk(t: int, cx: int, cy: int) -> ChunkData:
        coords = np.column_stack([
            np.full(cell_xy.shape[0], t, dtype=np.int64),
            cell_xy[:, 0] + 8 * cx,
            cell_xy[:, 1] + 8 * cy,
        ]).astype(np.int64)
        return ChunkData(
            _CHURN_SCHEMA, (t, cx, cy), coords,
            {"v": rng.normal(0.0, 10.0, coords.shape[0])},
            size_bytes=float(rng.lognormal(np.log(0.25 * GB), 0.4)),
        )

    # Fill whole 8×8 t-slices so every key is distinct (64 chunk keys
    # per slice); churn cycles write to disjoint slices further out.
    cluster.ingest([
        make_chunk(i // 64, (i % 64) // 8, i % 8)
        for i in range(base_chunks)
    ])
    t = 0  # churn cycles write slices at t*16 + s, clear of the base
    view = MaintainedGridStats(
        cluster, "C", "v", dims=(1, 2), cell_sizes=(8, 8), ndim=3,
        domain=_CHURN_DOMAIN, track_minmax=False,
    )
    view.refresh()  # prime: the first refresh always recomputes

    result = ChurnResult(
        churn_fractions=[], delta_chunks=[], delta_gb=[], full_gb=[],
        delta_arm_seconds=[], full_arm_seconds=[],
        refresh_wall_ms=[], full_wall_ms=[], modes=[],
    )
    for fraction in churn_fractions:
        # Keyed by the ChurnResult field each median lands in.
        samples: Dict[str, List[float]] = {
            k: [] for k in (
                "delta_chunks", "delta_gb", "full_gb", "delta_arm_seconds",
                "full_arm_seconds", "refresh_wall_ms", "full_wall_ms",
            )
        }
        modes: List[str] = []
        for _ in range(cycles_per_fraction):
            t += 1
            live = [
                c.ref()
                for c, _ in cluster.session().chunks_of_array("C")
            ]
            churned = max(1, int(round(fraction * len(live))))
            picks = rng.choice(len(live), size=churned, replace=False)
            cluster.remove_chunks([live[i] for i in picks])
            slices = -(-churned // 64)  # ceil: 64 keys per t-slice
            combos = [
                (t * 16 + s, cx, cy)
                for s in range(slices)
                for cx in range(8)
                for cy in range(8)
            ]
            order = rng.permutation(len(combos))[:churned]
            cluster.ingest([make_chunk(*combos[i]) for i in order])

            delta = cluster.session().deltas_since("C", view.cursors[0])
            started = time.perf_counter()
            report = view.refresh()
            refresh_ms = (time.perf_counter() - started) * 1e3
            started = time.perf_counter()
            want = view.recompute()
            full_ms = (time.perf_counter() - started) * 1e3
            got = view.result()
            if not (
                np.array_equal(got[0], want[0])
                and np.array_equal(got[1], want[1])
                and np.allclose(got[2], want[2], rtol=1e-9, atol=1e-9)
            ):
                raise QueryError(
                    "maintained view diverged from full recompute at "
                    f"churn fraction {fraction}"
                )
            samples["delta_chunks"].append(float(len(delta)))
            samples["delta_gb"].append(delta.bytes_touched / GB)
            samples["full_gb"].append(report.plan.full_bytes / GB)
            samples["delta_arm_seconds"].append(report.plan.delta_seconds)
            samples["full_arm_seconds"].append(report.plan.full_seconds)
            samples["refresh_wall_ms"].append(refresh_ms)
            samples["full_wall_ms"].append(full_ms)
            modes.append(report.mode)
        result.churn_fractions.append(float(fraction))
        for field_name, values in samples.items():
            getattr(result, field_name).append(float(np.median(values)))
        result.modes.append(max(set(modes), key=modes.count))
    return result


# ----------------------------------------------------------------------
# §6.2 headline claims
# ----------------------------------------------------------------------
@dataclass
class ClaimsResult:
    """The §6.2 prose claims, recomputed from the §6.2 sweep."""

    fine_grained_rsd_pct: float
    other_rsd_pct: float
    global_reorg_ratio: float
    clustered_win_pct: float

    def render(self) -> str:
        return "\n".join(
            [
                "Paper claims (recomputed):",
                f"  fine-grained partitioners mean RSD: "
                f"{self.fine_grained_rsd_pct:.0f}% (paper: ~13%)",
                f"  other partitioners mean RSD: "
                f"{self.other_rsd_pct:.0f}% (paper: ~44%)",
                f"  global/incremental reorg time ratio: "
                f"{self.global_reorg_ratio:.1f}x (paper: ~2.5x)",
                f"  clustered trio total-workload win vs baseline: "
                f"{self.clustered_win_pct:.0f}% (paper: >20%)",
            ]
        )


FINE_GRAINED = ("round_robin", "extendible_hash", "consistent_hash")
CLUSTERED_TRIO = ("incremental_quadtree", "hilbert_curve", "kd_tree")
GLOBAL_SCHEMES = ("round_robin", "uniform_range")


def headline_claims(sweep: PaperSweep) -> ClaimsResult:
    """Recompute the §6.2.1/§6.2.3 headline numbers from the sweep."""
    fig4 = figure4_insert_reorg(sweep).data
    rsd = [
        (name in FINE_GRAINED, values[2])
        for per_scheme in fig4.values()
        for name, values in per_scheme.items()
    ]
    fine = [pct for is_fine, pct in rsd if is_fine]
    other = [pct for is_fine, pct in rsd if not is_fine]

    def mean_reorg(names: Sequence[str]) -> float:
        vals = [fig4[w][n][1] for w in fig4 for n in names]
        return sum(vals) / len(vals) if vals else 0.0

    # Append moves nothing, so exclude it from the incremental mean the
    # ratio uses (the paper's 2.5x compares schemes that actually move
    # data).
    moving = mean_reorg([
        n for n in PAPER_ORDER if n not in (*GLOBAL_SCHEMES, "append")
    ])
    ratio = (
        mean_reorg(GLOBAL_SCHEMES) / moving if moving > 0 else float("inf")
    )

    def total_hours(name: str) -> float:
        return sum(
            runs[name].metrics.workload_cost_node_hours
            for runs in sweep.runs.values()
        )

    baseline_hours = total_hours("round_robin")
    trio_hours = [total_hours(n) for n in CLUSTERED_TRIO]
    win = (
        (baseline_hours - sum(trio_hours) / len(trio_hours))
        / baseline_hours * 100.0
    )
    return ClaimsResult(
        fine_grained_rsd_pct=sum(fine) / len(fine),
        other_rsd_pct=sum(other) / len(other),
        global_reorg_ratio=ratio,
        clustered_win_pct=win,
    )
